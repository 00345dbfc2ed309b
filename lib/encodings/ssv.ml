module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Solver = Stp_sat.Solver
module Lit = Stp_sat.Lit

type t = {
  solver : Solver.t;
  f : Tt.t;
  n : int;
  r : int;
  sel : (int * int * int) list array; (* per gate: (j, k, var) *)
  op : int array array;               (* per gate: vars for patterns 01 10 11 *)
  sim : (int * int, int) Hashtbl.t;   (* (gate, minterm) -> var *)
}

(* Fence legality of fanins (j, k) for gate [i]: both come from strictly
   lower levels and at least one from the level directly below. Primary
   inputs are level 0, gate levels are 1-based. *)
let fence_legal ~n ~levels i j k =
  let level_of s = if s < n then 0 else levels.(s - n) in
  let li = levels.(i) in
  let lj = level_of j and lk = level_of k in
  lj < li && lk < li && (lj = li - 1 || lk = li - 1)

(* Level of a signal: primary inputs are level 0, gate [i] has the given
   level; [None] levels mean "unrestricted" (every gate may read any
   earlier signal). *)
let legal_pairs ~n ~levels i =
  let total = n + i in
  let pairs = ref [] in
  for j = 0 to total - 1 do
    for k = j + 1 to total - 1 do
      let ok =
        match levels with
        | None -> true
        | Some lv -> fence_legal ~n ~levels:lv i j k
      in
      if ok then pairs := (j, k) :: !pairs
    done
  done;
  List.rev !pairs

(* Nontrivial operators: the gate must depend on both inputs.
   Patterns: op.(0) = output on 01, op.(1) on 10, op.(2) on 11. *)
let operator_clauses ~solver o =
  let o01 = o.(0) and o10 = o.(1) and o11 = o.(2) in
  (* depends on first input: o10 | (o01 <> o11) *)
  Solver.add_clause solver [ Lit.pos o10; Lit.pos o01; Lit.pos o11 ];
  Solver.add_clause solver [ Lit.pos o10; Lit.neg o01; Lit.neg o11 ];
  (* depends on second input: o01 | (o10 <> o11) *)
  Solver.add_clause solver [ Lit.pos o01; Lit.pos o10; Lit.pos o11 ];
  Solver.add_clause solver [ Lit.pos o01; Lit.neg o10; Lit.neg o11 ]

(* Restricted basis: block every normal nontrivial code outside it. *)
let basis_clauses ~solver ~basis o =
  let is_normal c = c land 1 = 0 in
  List.iter
    (fun c ->
      if is_normal c && not (List.mem c basis) then begin
        let bit p = (c lsr p) land 1 = 1 in
        (* clause: some op bit differs from code c *)
        Solver.add_clause solver
          [ Lit.make o.(0) (not (bit 1));
            Lit.make o.(1) (not (bit 2));
            Lit.make o.(2) (not (bit 3)) ]
      end)
    Stp_chain.Gate.nontrivial

(* Simulation clauses tying one gate's output to its selected fanins on
   minterm [m]: for every selected pair (j, k) and value combination
   (a, b, c),
     sel & (x_j = a) & (x_k = b) & (x_i = c)  ==>  op_i(a,b) = c.
   [signal_lit s v m] renders "signal s has value v on minterm m" as
   [Ok lit], or [Error b] when the signal is a primary input with
   constant truth [b] there. *)
let gate_sim_clauses ~solver ~signal_lit ~pairs ~opv ~gate_signal ~m =
  List.iter
    (fun (j, k, s) ->
      for a = 0 to 1 do
        for b = 0 to 1 do
          for c = 0 to 1 do
            (* Clause: ~sel | ~(x_j = a) | ~(x_k = b) | ~(x_i = c)
                       | (op(a,b) = c). *)
            let op_term =
              if a = 0 && b = 0 then
                (* normal gate: op(0,0) = 0 *)
                if c = 0 then `True else `Absent
              else
                let p = (2 * a) + b in
                (* pattern index into op array: 01 -> 0, 10 -> 1, 11 -> 2 *)
                let idx = p - 1 in
                `Lit (Lit.make opv.(idx) (c = 1))
            in
            match op_term with
            | `True -> ()
            | (`Absent | `Lit _) as term ->
              (* The clause carries the negation of "signal = v": a
                 constantly-true atom drops out of the clause, a
                 constantly-false atom satisfies it. *)
              let rec build acc = function
                | [] ->
                  let acc =
                    match term with `Lit l -> l :: acc | `Absent -> acc
                  in
                  Solver.add_clause solver acc
                | (sig_, v) :: rest -> (
                  match signal_lit sig_ (v = 1) m with
                  | Error true -> build acc rest
                  | Error false -> ()
                  | Ok l -> build (Lit.negate l :: acc) rest)
              in
              build [ Lit.neg s ] [ (j, a); (k, b); (gate_signal, c) ]
          done
        done
      done)
    pairs

let sim_var t i m =
  match Hashtbl.find_opt t.sim (i, m) with
  | Some v -> v
  | None ->
    let v = Solver.new_var t.solver in
    Hashtbl.replace t.sim (i, m) v;
    v

(* Literal asserting "signal s has value [v] on minterm m", or a constant
   for primary inputs: [Ok lit] / [Error b]. *)
let signal_lit t s v m =
  if s < t.n then Error ((m lsr s) land 1 = if v then 1 else 0)
  else Ok (Lit.make (sim_var t (s - t.n) m) v)

let add_minterm_clauses t m =
  for i = 0 to t.r - 1 do
    gate_sim_clauses ~solver:t.solver ~signal_lit:(signal_lit t)
      ~pairs:t.sel.(i) ~opv:t.op.(i) ~gate_signal:(t.n + i) ~m
  done;
  (* Output clause: the last gate equals f on m. *)
  let out = Lit.make (sim_var t (t.r - 1) m) (Tt.get t.f m) in
  Solver.add_clause t.solver [ out ]

let build ?levels ?basis ~solver ~f ~r () =
  let n = Tt.num_vars f in
  if Tt.get f 0 then invalid_arg "Ssv.build: target must be normal";
  (match levels with
   | Some lv when Array.length lv <> r -> invalid_arg "Ssv.build: levels"
   | _ -> ());
  let sel =
    Array.init r (fun i ->
        List.map
          (fun (j, k) -> (j, k, Solver.new_var solver))
          (legal_pairs ~n ~levels i))
  in
  if Array.exists (fun l -> l = []) sel then None
  else begin
    let op = Array.init r (fun _ -> Array.init 3 (fun _ -> Solver.new_var solver)) in
    let t = { solver; f; n; r; sel; op; sim = Hashtbl.create 97 } in
    (* At least one fanin pair per gate. *)
    Array.iter
      (fun pairs -> Solver.add_clause solver (List.map (fun (_, _, s) -> Lit.pos s) pairs))
      sel;
    Array.iter (fun o -> operator_clauses ~solver o) op;
    (match basis with
     | None -> ()
     | Some allowed -> Array.iter (fun o -> basis_clauses ~solver ~basis:allowed o) op);
    (* Every gate except the last must be used by a later gate. *)
    for i = 0 to r - 2 do
      let users = ref [] in
      for i' = i + 1 to r - 1 do
        List.iter
          (fun (j, k, s) -> if j = n + i || k = n + i then users := Lit.pos s :: !users)
          t.sel.(i')
      done;
      Solver.add_clause solver !users
    done;
    for m = 1 to (1 lsl n) - 1 do
      add_minterm_clauses t m
    done;
    Some t
  end

let decode_gates ~solver ~sel ~op ~r =
  List.init r (fun i ->
      let j, k, _ =
        match
          List.find_opt (fun (_, _, s) -> Solver.value solver s) sel.(i)
        with
        | Some p -> p
        | None -> invalid_arg "Ssv.decode: no selection in model"
      in
      let bit idx = if Solver.value solver op.(i).(idx) then 1 else 0 in
      (* gate code bit (2a+b); op(0,0) = 0 *)
      let gate = (bit 0 lsl 1) lor (bit 1 lsl 2) lor (bit 2 lsl 3) in
      { Chain.fanin1 = j; fanin2 = k; gate })

let decode t =
  let steps = decode_gates ~solver:t.solver ~sel:t.sel ~op:t.op ~r:t.r in
  Chain.make ~n:t.n ~steps ~output:(t.n + t.r - 1) ()

(* Monotone-extensible variant of the encoding above, designed for one
   long-lived solver per synthesis instance. Gate structure, operator
   and simulation clauses are budget-independent and persist; the only
   budget-specific clauses — the output must match the target, and every
   gate below the last must be read again — hang off a per-budget
   selector literal, so stepping from budget r to r+1 retires a selector
   instead of discarding the solver. *)
module Inc = struct
  type inc = {
    solver : Solver.t;
    f : Tt.t;
    n : int;
    basis : Stp_chain.Gate.code list option;
    mutable gates : int; (* gates encoded so far *)
    mutable sel : (int * int * int) list array;
    mutable op : int array array;
    sim : (int * int, int) Hashtbl.t;
    mutable minterms : int list;
    selectors : (int, Lit.t) Hashtbl.t; (* budget -> live selector *)
    mutable infeasible : bool; (* some gate admits no fanin pair at all *)
  }

  let create ?basis ~solver ~f () =
    let n = Tt.num_vars f in
    if Tt.get f 0 then invalid_arg "Ssv.Inc.create: target must be normal";
    { solver; f; n; basis; gates = 0; sel = [||]; op = [||];
      sim = Hashtbl.create 97; minterms = []; selectors = Hashtbl.create 7;
      infeasible = false }

  let sim_var c i m =
    match Hashtbl.find_opt c.sim (i, m) with
    | Some v -> v
    | None ->
      let v = Solver.new_var c.solver in
      Hashtbl.replace c.sim (i, m) v;
      v

  let signal_lit c s v m =
    if s < c.n then Error ((m lsr s) land 1 = if v then 1 else 0)
    else Ok (Lit.make (sim_var c (s - c.n) m) v)

  (* Encode gates [c.gates .. r-1]: selection and operator variables,
     their structural clauses, and simulation clauses for every minterm
     encoded so far. All of it is budget-independent. *)
  let ensure_gates c r =
    while c.gates < r && not c.infeasible do
      let i = c.gates in
      match legal_pairs ~n:c.n ~levels:None i with
      | [] -> c.infeasible <- true
      | pairs ->
        let pairs =
          List.map (fun (j, k) -> (j, k, Solver.new_var c.solver)) pairs
        in
        let opv = Array.init 3 (fun _ -> Solver.new_var c.solver) in
        c.sel <- Array.append c.sel [| pairs |];
        c.op <- Array.append c.op [| opv |];
        Solver.add_clause c.solver (List.map (fun (_, _, s) -> Lit.pos s) pairs);
        operator_clauses ~solver:c.solver opv;
        (match c.basis with
         | None -> ()
         | Some allowed -> basis_clauses ~solver:c.solver ~basis:allowed opv);
        List.iter
          (fun m ->
            gate_sim_clauses ~solver:c.solver ~signal_lit:(signal_lit c)
              ~pairs ~opv ~gate_signal:(c.n + i) ~m)
          c.minterms;
        c.gates <- i + 1
    done;
    not c.infeasible

  (* The budget-r output clause on minterm [m], guarded by [sel]. *)
  let output_clause c sel r m =
    Solver.add_clause c.solver
      [ Lit.negate sel; Lit.make (sim_var c (r - 1) m) (Tt.get c.f m) ]

  let budget_selector c r =
    if r < 1 || not (ensure_gates c r) then None
    else
      match Hashtbl.find_opt c.selectors r with
      | Some sel -> Some sel
      | None ->
        let sel = Solver.new_selector c.solver in
        Hashtbl.replace c.selectors r sel;
        List.iter (fun m -> output_clause c sel r m) c.minterms;
        (* Every gate except the (budget's) last must be used by a later
           gate within the budget. *)
        for i = 0 to r - 2 do
          let users = ref [ Lit.negate sel ] in
          for i' = i + 1 to r - 1 do
            List.iter
              (fun (j, k, s) ->
                if j = c.n + i || k = c.n + i then users := Lit.pos s :: !users)
              c.sel.(i')
          done;
          Solver.add_clause c.solver !users
        done;
        Some sel

  let retire c r =
    match Hashtbl.find_opt c.selectors r with
    | None -> ()
    | Some sel ->
      Hashtbl.remove c.selectors r;
      Solver.retire c.solver sel

  let add_minterm c m =
    if not (List.mem m c.minterms) then begin
      c.minterms <- m :: c.minterms;
      for i = 0 to c.gates - 1 do
        gate_sim_clauses ~solver:c.solver ~signal_lit:(signal_lit c)
          ~pairs:c.sel.(i) ~opv:c.op.(i) ~gate_signal:(c.n + i) ~m
      done;
      Hashtbl.iter (fun r sel -> output_clause c sel r m) c.selectors
    end

  let encoded_minterms c = c.minterms

  let decode c ~r =
    let steps = decode_gates ~solver:c.solver ~sel:c.sel ~op:c.op ~r in
    Chain.make ~n:c.n ~steps ~output:(c.n + r - 1) ()
end
