module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Solver = Stp_sat.Solver
module Ssv = Stp_encodings.Ssv
module Fence = Stp_topology.Fence

(* The SSV encoding requires a normal target; synthesise the complement
   otherwise and complement the decoded chain's output. *)
let normalise target =
  if Tt.get target 0 then (Tt.bnot target, true) else (target, false)

let flip_output negated (chain : Chain.t) =
  if not negated then chain
  else
    Chain.make ~n:chain.Chain.n
      ~steps:(Array.to_list chain.Chain.steps)
      ~output:chain.Chain.output
      ~output_negated:(not chain.Chain.output_negated) ()

let finish ~f ~n ~support ~negated chain =
  let chain = flip_output negated chain in
  let chain = Common.expand_chain ~n ~support chain in
  assert (Tt.equal (Chain.simulate chain) f);
  chain

(* An engine is instantiated once per target and stepped through
   increasing gate budgets: [engine ~options ~deadline ~target] may
   allocate per-instance state (for BMS and ABC, one long-lived solver
   whose learnt clauses survive every budget), and the returned stepper
   answers each budget [~r]. FEN is an ordinary four-argument function —
   partial application makes it a stateless stepper that rebuilds a
   solver per fence. *)
let run ~options ~deadline ~engine f =
  if Tt.is_const f then Spec.Infeasible
  else
    match Common.prepare f with
    | `Trivial chain -> Spec.Solved [ chain ]
    | `Reduced (target, support) ->
      let n = Tt.num_vars f in
      let target, negated = normalise target in
      let s = Tt.num_vars target in
      let step = engine ~options ~deadline ~target in
      let rec loop r =
        if r > options.Spec.max_gates then Spec.Infeasible
        else
          match step ~r with
          | `Sat chain -> Spec.Solved [ finish ~f ~n ~support ~negated chain ]
          | `Unsat -> loop (r + 1)
          | `Unknown -> Spec.Timeout
      in
      loop (max 1 (s - 1))

let fences_for ~options r =
  let all = Fence.generate_pruned r in
  match options.Spec.max_depth with
  | None -> all
  | Some d -> List.filter (fun f -> Fence.num_levels f <= d) all

let levels_of fence =
  let lv = Array.make (Fence.num_nodes fence) 0 in
  let idx = ref 0 in
  Array.iteri
    (fun level count ->
      for _ = 1 to count do
        lv.(!idx) <- level + 1;
        incr idx
      done)
    fence;
  lv

(* FEN: one restricted encoding per pruned fence, each on a fresh
   solver. The per-fence encodings are smaller than one shared
   unrestricted instance (illegal selections never exist, so watch lists
   stay short); a shared-solver variant with per-fence assumption sets
   lost to this engine on the NPN4 sweep (EXPERIMENTS.md). *)
let fen_engine ~options ~deadline ~target ~r =
  let fences = fences_for ~options r in
  let rec try_fences = function
    | [] -> `Unsat
    | fence :: rest -> (
      if Stp_util.Deadline.expired deadline then `Unknown
      else
        let solver = Solver.create () in
        match
          Ssv.build ?basis:options.Spec.basis ~levels:(levels_of fence) ~solver
            ~f:target ~r ()
        with
        | None -> try_fences rest
        | Some enc -> (
          match Solver.solve ~deadline solver with
          | Solver.Sat -> `Sat (Ssv.decode enc)
          | Solver.Unsat -> try_fences rest
          | Solver.Unknown -> `Unknown))
  in
  try_fences fences

(* BMS and ABC keep one solver per target, shared across every gate
   budget. Gate semantics clauses persist; each budget's output/usage
   clauses hang off a selector literal assumed during its solves and
   retired (a unit clause) once the budget is refuted, so conflict
   clauses learnt while refuting budget [r] prune the search at budget
   [r+1]. *)

(* BMS: all minterms up front, one solve per budget under that budget's
   selector. *)
let bms_inc ~options ~deadline ~target =
  let solver = Solver.create () in
  let enc = Ssv.Inc.create ?basis:options.Spec.basis ~solver ~f:target () in
  for m = 1 to (1 lsl Tt.num_vars target) - 1 do
    Ssv.Inc.add_minterm enc m
  done;
  fun ~r ->
    match Ssv.Inc.budget_selector enc r with
    | None -> `Unsat
    | Some sel -> (
      match Solver.solve ~assumptions:[ sel ] ~deadline solver with
      | Solver.Sat -> `Sat (Ssv.Inc.decode enc ~r)
      | Solver.Unsat ->
        Ssv.Inc.retire enc r;
        `Unsat
      | Solver.Unknown -> `Unknown)

(* ABC lutexact analogue: CEGAR over minterms. Counterexample minterms
   accumulate across budgets — refuting a budget on a minterm subset
   refutes it outright, and Sat answers are verified by simulation. *)
let abc_inc ~options ~deadline ~target =
  let solver = Solver.create () in
  let enc = Ssv.Inc.create ?basis:options.Spec.basis ~solver ~f:target () in
  let first_onset =
    let rec find m = if Tt.get target m then m else find (m + 1) in
    find 0
  in
  Ssv.Inc.add_minterm enc first_onset;
  fun ~r ->
    match Ssv.Inc.budget_selector enc r with
    | None -> `Unsat
    | Some sel ->
      let rec refine () =
        if Stp_util.Deadline.expired deadline then `Unknown
        else
          match Solver.solve ~assumptions:[ sel ] ~deadline solver with
          | Solver.Unsat ->
            Ssv.Inc.retire enc r;
            `Unsat
          | Solver.Unknown -> `Unknown
          | Solver.Sat -> (
            let chain = Ssv.Inc.decode enc ~r in
            let sim = Chain.simulate chain in
            if Tt.equal sim target then `Sat chain
            else begin
              let diff = Tt.bxor sim target in
              let rec first m = if Tt.get diff m then m else first (m + 1) in
              Ssv.Inc.add_minterm enc (first 0);
              refine ()
            end)
      in
      refine ()

type engine =
  ?options:Spec.options ->
  deadline:Stp_util.Deadline.t ->
  Tt.t ->
  Chain.t list Spec.outcome

(* Depth bounds are expressed through fence levels, so the flat BMS/ABC
   encodings route through the fence engine when one is requested. *)
let with_depth_via_fen ~options stepper =
  match options.Spec.max_depth with None -> stepper | Some _ -> fen_engine

let bms ?(options = Spec.default_options) ~deadline f =
  run ~options ~deadline ~engine:(with_depth_via_fen ~options bms_inc) f

let fen ?(options = Spec.default_options) ~deadline f =
  run ~options ~deadline ~engine:fen_engine f

let abc ?(options = Spec.default_options) ~deadline f =
  run ~options ~deadline ~engine:(with_depth_via_fen ~options abc_inc) f

module Gate = Stp_chain.Gate

(* A constructive (non-optimal) chain: recursive Shannon expansion with
   constant-cofactor folds and single-gate base cases. Cheap enough to
   serve as the graceful-degrade answer when an exact engine's deadline
   expires: every non-constant target gets *some* verified chain. *)
let upper_bound f =
  match Common.prepare f with
  | `Trivial chain -> chain
  | `Reduced (target, support) ->
    let n = Tt.num_vars f in
    let m = Tt.num_vars target in
    let steps = ref [] (* reversed *) in
    let count = ref 0 in
    let emit fanin1 fanin2 gate =
      steps := { Chain.fanin1; fanin2; gate } :: !steps;
      let s = m + !count in
      incr count;
      s
    in
    (* [gate_of (s, neg) (s', neg')]: fold literal complements of the
       operands into the gate code, as chains have no inverters. *)
    let emit_lit code (s1, neg1) (s2, neg2) =
      let code = if neg1 then Gate.negate_first code else code in
      let code = if neg2 then Gate.negate_second code else code in
      (emit s1 s2 code, false)
    in
    let memo = Hashtbl.create 64 in
    (* Build a literal (signal, complemented) computing the non-constant
       [g]; sharing identical subfunctions through [memo]. *)
    let rec build g =
      match Hashtbl.find_opt memo g with
      | Some lit -> lit
      | None ->
        let lit = build_uncached g in
        Hashtbl.replace memo g lit;
        lit
    and build_uncached g =
      match Tt.support g with
      | [ i ] -> (i, not (Tt.equal g (Tt.var m i)))
      | [ i; j ] ->
        (* the ten nontrivial gate codes are exactly the functions
           depending on both of two variables *)
        let xi = Tt.var m i and xj = Tt.var m j in
        let c =
          List.find (fun c -> Tt.equal g (Tt.apply2 c xi xj)) Gate.nontrivial
        in
        (emit i j c, false)
      | sup ->
        let i = List.hd (List.rev sup) in
        let g0 = Tt.cofactor g i false and g1 = Tt.cofactor g i true in
        let xi = (i, false) in
        (match (Tt.is_const_of g0, Tt.is_const_of g1) with
         | Some true, _ -> emit_lit 11 xi (build g1) (* ~xi OR g1 *)
         | Some false, _ -> emit_lit 8 xi (build g1) (* xi AND g1 *)
         | _, Some true -> emit_lit 14 xi (build g0) (* xi OR g0 *)
         | _, Some false -> emit_lit 2 xi (build g0) (* ~xi AND g0 *)
         | None, None ->
           if Tt.equal_bnot g0 g1 then emit_lit 9 xi (build g1) (* XNOR *)
           else begin
             let hi = emit_lit 8 xi (build g1) in
             let lo = emit_lit 2 xi (build g0) in
             emit_lit 14 hi lo
           end)
    in
    let output, output_negated = build target in
    let chain =
      Chain.make ~n:m
        ~steps:(List.rev !steps)
        ~output ~output_negated ()
    in
    let chain = Common.expand_chain ~n ~support chain in
    assert (Tt.equal (Chain.simulate chain) f);
    chain
