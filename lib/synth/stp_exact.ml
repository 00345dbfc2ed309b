module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Gate = Stp_chain.Gate
module Dag = Stp_topology.Dag

exception Found_enough

let basis_mask = function
  | None -> List.fold_left (fun m g -> m lor (1 lsl g)) 0 Gate.nontrivial
  | Some gates -> List.fold_left (fun m g -> m lor (1 lsl g)) 0 gates

(* Cross product of sub-chains joined by a top gate. [g_chains] and
   [h_chains] range over the same n-variable space with disjoint
   supports; output complements of gate-free sub-chains fold into the
   top gate code. [count] holds the length of [!acc], which stops
   growing at [cap]. *)
let compose_chains ~allowed ~cap phi g_chains h_chains acc count =
  List.iter
    (fun (cg : Chain.t) ->
      List.iter
        (fun (ch : Chain.t) ->
          if !count < cap then begin
            let n = cg.Chain.n in
            let sg = Array.to_list cg.Chain.steps in
            let shift = Array.length cg.Chain.steps in
            let move s = if s < n then s else s + shift in
            let sh =
              List.map
                (fun (st : Chain.step) ->
                  { Chain.fanin1 = move st.fanin1;
                    fanin2 = move st.fanin2;
                    gate = st.gate })
                (Array.to_list ch.Chain.steps)
            in
            let phi = if cg.Chain.output_negated then Gate.negate_first phi else phi in
            let phi = if ch.Chain.output_negated then Gate.negate_second phi else phi in
            if (allowed lsr phi) land 1 = 1 then begin
              let top =
                { Chain.fanin1 = cg.Chain.output;
                  fanin2 = move ch.Chain.output;
                  gate = phi }
              in
              let steps = sg @ sh @ [ top ] in
              let chain =
                Chain.make ~n ~steps
                  ~output:(n + List.length steps - 1)
                  ()
              in
              acc := chain :: !acc;
              incr count
            end
          end)
        h_chains)
    g_chains

(* Shape search at one gate count (the paper's Section III loop). *)
let search_shapes ~options ~deadline ~memo ~stats target r =
  let s = Tt.support_size target in
  let depth_ok (shape : Dag.t) =
    match options.Spec.max_depth with
    | None -> true
    | Some d -> Array.length shape.Dag.fence <= d
  in
  let found = ref [] in
  (try
     Dag.iter r (fun shape ->
         Stp_util.Deadline.check deadline;
         if depth_ok shape && shape.Dag.num_leaves >= s then begin
           let chains =
             Factor.solve_shape ~deadline ~memo ~stats
               ~cap:options.Spec.solution_cap ~shape ~target ()
           in
           if chains <> [] then begin
             let verified = Common.optimal_and_verified ~deadline target chains in
             found := verified @ !found;
             (* Paper semantics: all optimal solutions under the current
                topological constraints, in one pass. *)
             if (not options.Spec.all_shapes) && !found <> [] then
               raise Found_enough
           end
         end)
   with Found_enough -> ());
  if options.Spec.all_shapes then
    Common.optimal_and_verified ~deadline target !found
  else !found

(* Synthesis of one target over the full reduced variable space. Returns
   (gates, chains); raises Deadline.Timeout. [None] when max_gates is
   exceeded. Targets are memoised: DSD peeling revisits subfunctions
   (complement pairs in particular). *)
let rec synth ~options ~deadline ~memo ~stats ~cache target =
  match Hashtbl.find_opt cache target with
  | Some r -> r
  | None ->
    let result = synth_uncached ~options ~deadline ~memo ~stats ~cache target in
    Hashtbl.replace cache target result;
    result

and synth_uncached ~options ~deadline ~memo ~stats ~cache target =
  Stp_util.Deadline.check deadline;
  let n = Tt.num_vars target in
  match Tt.support target with
  | [] -> None (* constants have no chain *)
  | [ v ] ->
    let negated = Tt.equal target (Tt.bnot (Tt.var n v)) in
    Some (0, [ Chain.make ~n ~steps:[] ~output:v ~output_negated:negated () ])
  | support ->
    let s = List.length support in
    let splits =
      if options.Spec.use_dsd && options.Spec.max_depth = None then
        Stp_tt.Dsd.top_splits target
      else []
    in
    let via_dsd =
      match splits with
      | [] -> None
      | (amask, bmask) :: _ ->
       (* Disjoint decomposition: synthesise each factorisation's
          sub-functions recursively and join. All factorisations of the
          split contribute solutions; the optimum is split-invariant. *)
       let triples =
         Factor.decompose ~memo ~cap:64 ~target ~amask ~bmask ()
       in
       let best = ref None in
       let chains = ref [] and count = ref 0 in
       List.iter
         (fun { Factor.phi; g; h } ->
           match synth ~options ~deadline ~memo ~stats ~cache g with
           | None -> ()
           | Some (gates_g, chains_g) -> (
             match synth ~options ~deadline ~memo ~stats ~cache h with
             | None -> ()
             | Some (gates_h, chains_h) ->
               let allowed = basis_mask options.Spec.basis in
               let total = gates_g + gates_h + 1 in
               (match !best with
                | Some b when b < total -> ()
                | Some b when b = total ->
                  compose_chains ~allowed ~cap:options.Spec.solution_cap phi
                    chains_g chains_h chains count
                | _ ->
                  best := Some total;
                  chains := [];
                  count := 0;
                  compose_chains ~allowed ~cap:options.Spec.solution_cap phi
                    chains_g chains_h chains count)))
         triples;
        (match !best with
         | Some gates when !chains <> [] ->
           let verified = Common.optimal_and_verified ~deadline target !chains in
           assert (verified <> []);
           Some (gates, verified)
         | _ -> None)
    in
    (match via_dsd with
     | Some r -> Some r
     | None ->
       (* Prime target — or a decomposable one whose split produced no
          chain under a restricted basis: the fence/DAG shape search. *)
       let rec try_size r =
         if r > options.Spec.max_gates then None
         else begin
           Stp_util.Deadline.check deadline;
           match search_shapes ~options ~deadline ~memo ~stats target r with
           | [] -> try_size (r + 1)
           | chains -> Some (r, chains)
         end
       in
       try_size (max 1 (s - 1)))

let synthesize_reduced ~options ~deadline ~memo target =
  let memo =
    match memo with
    | Some m -> m
    | None -> Factor.create_memo ?basis:options.Spec.basis ()
  in
  let stats = Factor.fresh_stats () in
  let cache = Hashtbl.create 97 in
  synth ~options ~deadline ~memo ~stats ~cache target

let synthesize ?(options = Spec.default_options) ?memo ~deadline f =
  (match memo with
   | Some m when not (Factor.memo_has_basis m options.Spec.basis) ->
     invalid_arg "Stp_exact.synthesize: memo basis differs from options.basis"
   | _ -> ());
  if Tt.is_const f then Spec.Infeasible
  else
    match Common.prepare f with
    | `Trivial chain -> Spec.Solved [ chain ]
    | `Reduced (target, support) -> (
      let n = Tt.num_vars f in
      match synthesize_reduced ~options ~deadline ~memo target with
      | Some (_, chains) ->
        Spec.Solved (List.map (Common.expand_chain ~n ~support) chains)
      | None ->
        (* [try_size] only returns [None] when the gate budget is
           exhausted with every size refuted — deadline expiry raises. *)
        Spec.Infeasible
      | exception Stp_util.Deadline.Timeout -> Spec.Timeout)
