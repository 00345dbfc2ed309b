module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Npn_cache = Stp_synth.Npn_cache
module Pool = Stp_parallel.Pool

type options = {
  cut_size : int;
  cut_limit : int;
  timeout : float;
  jobs : int;
  basis : Stp_chain.Gate.code list option;
  max_chains : int;
}

let and_basis = [ 1; 2; 4; 7; 8; 11; 13; 14 ]

let default_options =
  { cut_size = 4;
    cut_limit = 8;
    timeout = 5.0;
    jobs = 1;
    basis = Some and_basis;
    max_chains = 8 }

type report = {
  ands_before : int;
  ands_after : int;
  depth_before : int;
  depth_after : int;
  applied : int;
  candidates : int;
  classes : int;
  cache : Npn_cache.stats;
  verified : bool;
  verify_method : string;
  elapsed : float;
}

let gain r = r.ands_before - r.ands_after

let verify_equivalent = Pass.verify_equivalent

(* One rewriting candidate of a node: a cut, its support-reduced
   function, and where the surviving leaves sit in the cut. *)
type candidate = {
  cand_leaves : int array; (** cut leaves backing the reduced variables *)
  cand_tt : Tt.t;          (** support-reduced cut function *)
  cand_rep : Tt.t option;  (** NPN class representative, [None] below 2 vars *)
}

let delta_stats (s0 : Npn_cache.stats) (s1 : Npn_cache.stats) =
  { Npn_cache.hits = s1.hits - s0.hits;
    misses = s1.misses - s0.misses;
    bypassed = s1.bypassed - s0.bypassed;
    failures = s1.failures - s0.failures;
    known_timeouts = s1.known_timeouts - s0.known_timeouts }

let run ?(options = default_options) ?cache ntk =
  let t0 = Stp_util.Unix_time.now () in
  let cache =
    match cache with Some c -> c | None -> Npn_cache.create ()
  in
  let stats0 = Npn_cache.stats cache in
  let ands_before = Ntk.count_live ntk in
  let depth_before = Ntk.depth ntk in
  let orig_nv = Ntk.num_vars ntk in
  let cuts = Cuts.enumerate ~k:options.cut_size ~limit:options.cut_limit ntk in

  (* Phase A: reduce every non-trivial cut to a candidate and collect
     the distinct NPN classes that need synthesis. *)
  let reps = Hashtbl.create 97 in
  let candidates = ref 0 in
  let node_cands = Array.make orig_nv [] in
  Ntk.iter_ands ntk (fun v ->
      node_cands.(v) <-
        List.filter_map
          (fun (c : Cuts.cut) ->
            if Cuts.is_trivial c then None
            else begin
              incr candidates;
              let tt, support = Tt.shrink_to_support c.tt in
              let cand_leaves =
                Array.of_list (List.map (fun j -> c.leaves.(j)) support)
              in
              let cand_rep =
                if Tt.num_vars tt < 2 then None
                else begin
                  let rep, _ = Npn.canonical tt in
                  if not (Hashtbl.mem reps rep) then Hashtbl.replace reps rep ();
                  Some rep
                end
              in
              Some { cand_leaves; cand_tt = tt; cand_rep }
            end)
          cuts.(v));

  (* Phase B: synthesize each class once, fanned over the pool; the
     shared cache makes phase C replay-only. Classes are solved through
     the unified Engine API with an explicit per-class deadline. *)
  let synth_options = { Spec.default_options with Spec.basis = options.basis } in
  let (module E : Stp_synth.Engine.S) =
    Npn_cache.wrap cache Stp_synth.Engine.stp
  in
  let synth target =
    E.synthesize
      (Stp_synth.Engine.spec ~options:synth_options target)
      ~deadline:(Stp_util.Deadline.after options.timeout)
  in
  let rep_list =
    Hashtbl.fold (fun rep () acc -> rep :: acc) reps []
    |> List.sort Tt.compare
  in
  let solve rep =
    match synth rep with Stp_synth.Engine.Solved _ -> true | _ -> false
  in
  let statuses =
    if options.jobs > 1 then Pool.map ~domains:options.jobs solve rep_list
    else List.map solve rep_list
  in
  let solved_class = Hashtbl.create 97 in
  List.iter2
    (fun rep ok -> Hashtbl.replace solved_class rep ok)
    rep_list statuses;

  (* Phase C: greedy topological apply with ABC-style reference
     counting. [refs] tracks the virtual (post-substitution) network;
     scratch nodes appended for losing candidates stay at zero and are
     swept by the final extract. *)
  let refs = ref (Ntk.refcounts ntk) in
  let ensure v =
    if v >= Array.length !refs then begin
      let grown = Array.make (max (v + 1) (2 * Array.length !refs)) 0 in
      Array.blit !refs 0 grown 0 (Array.length !refs);
      refs := grown
    end
  in
  let get v = if v < Array.length !refs then !refs.(v) else 0 in
  let set v x = ensure v; !refs.(v) <- x in
  let rec deref_use w =
    set w (get w - 1);
    if get w = 0 && Ntk.is_and ntk w then
      1
      + deref_use (Ntk.var_of_lit (Ntk.fanin0 ntk w))
      + deref_use (Ntk.var_of_lit (Ntk.fanin1 ntk w))
    else 0
  in
  let rec ref_use w =
    let was = get w in
    set w (was + 1);
    if was = 0 && Ntk.is_and ntk w then
      1
      + ref_use (Ntk.var_of_lit (Ntk.fanin0 ntk w))
      + ref_use (Ntk.var_of_lit (Ntk.fanin1 ntk w))
    else 0
  in
  let deref_node v =
    1
    + deref_use (Ntk.var_of_lit (Ntk.fanin0 ntk v))
    + deref_use (Ntk.var_of_lit (Ntk.fanin1 ntk v))
  in
  let ref_node v =
    ignore (ref_use (Ntk.var_of_lit (Ntk.fanin0 ntk v)));
    ignore (ref_use (Ntk.var_of_lit (Ntk.fanin1 ntk v)))
  in
  let rmap = Array.make orig_nv None in
  (* Resolve a literal through the substitutions recorded so far, with
     path compression; replacement cones never contain the replaced
     node (checked at record time), so this terminates. *)
  let rec resolve l =
    let v = Ntk.var_of_lit l in
    if v >= orig_nv then l
    else
      match rmap.(v) with
      | None -> l
      | Some m ->
        let r = resolve m in
        rmap.(v) <- Some r;
        if Ntk.is_compl l then Ntk.lit_not r else r
  in
  let applied = ref 0 in
  for v = Ntk.num_pis ntk + 1 to orig_nv - 1 do
    if get v > 0 then begin
      let mffc = deref_node v in
      let best = ref None in
      (* A replacement cone may only use original nodes strictly below
         [v] (their substitutions are final and themselves clean, by
         induction) plus scratch nodes over such; structural hashing
         can otherwise hand back a node at or above [v] and tie a
         substitution cycle. Only scratch nodes need traversal. *)
      let cone_ok rlit =
        let memo = Hashtbl.create 16 in
        let rec ok l =
          let w = Ntk.var_of_lit l in
          if w < orig_nv then w < v
          else
            match Hashtbl.find_opt memo w with
            | Some r -> r
            | None ->
              let r = ok (Ntk.fanin0 ntk w) && ok (Ntk.fanin1 ntk w) in
              Hashtbl.replace memo w r;
              r
        in
        let w = Ntk.var_of_lit rlit in
        Ntk.is_const_var w || ok rlit
      in
      let consider rlit =
        if Ntk.var_of_lit rlit <> v && cone_ok rlit then begin
          let cost = ref_use (Ntk.var_of_lit rlit) in
          let g = mffc - cost in
          (match !best with
          | Some (g0, _) when g0 >= g -> ()
          | _ -> best := Some (g, rlit));
          ignore (deref_use (Ntk.var_of_lit rlit))
        end
      in
      List.iter
        (fun cand ->
          let leaf_lits =
            Array.map
              (fun leaf -> resolve (Ntk.lit_of_var leaf false))
              cand.cand_leaves
          in
          match cand.cand_rep with
          | None ->
            (* degenerate cut: the node is a constant or a wire *)
            (match Tt.is_const_of cand.cand_tt with
            | Some b -> consider (Ntk.lit_const b)
            | None ->
              let wire =
                if Tt.equal cand.cand_tt (Tt.var 1 0) then leaf_lits.(0)
                else Ntk.lit_not leaf_lits.(0)
              in
              consider wire)
          | Some rep ->
            if Hashtbl.find_opt solved_class rep = Some true then begin
              match synth cand.cand_tt with
              | Stp_synth.Engine.Solved chains ->
                List.filteri (fun i _ -> i < options.max_chains) chains
                |> List.iter (fun chain ->
                       (* window re-verification: the chain must compute
                          the cut function exactly *)
                       if Tt.equal (Chain.simulate chain) cand.cand_tt then
                         consider (Ntk.lit_of_chain ntk chain leaf_lits))
              | Stp_synth.Engine.Timeout | Stp_synth.Engine.Infeasible -> ()
            end)
        node_cands.(v);
      match !best with
      | Some (g, rlit) when g > 0 ->
        let r = Ntk.var_of_lit rlit in
        ignore (ref_use r);
        (* the rest of v's fanouts re-target r as well *)
        set r (get r + get v - 1);
        set v 0;
        rmap.(v) <- Some rlit;
        incr applied
      | _ -> ref_node v
    end
  done;

  let out =
    Ntk.extract ~repr:(fun v -> if v < orig_nv then rmap.(v) else None) ntk
  in
  let verified, verify_method = verify_equivalent ntk out in
  let stats1 = Npn_cache.stats cache in
  ( out,
    { ands_before;
      ands_after = Ntk.count_live out;
      depth_before;
      depth_after = Ntk.depth out;
      applied = !applied;
      candidates = !candidates;
      classes = List.length rep_list;
      cache = delta_stats stats0 stats1;
      verified;
      verify_method;
      elapsed = Stp_util.Unix_time.now () -. t0 } )

let pass ?(options = default_options) ?cache () =
  { Pass.name = "rewrite";
    run =
      (fun ntk ->
        let out, r = run ~options ?cache ntk in
        ( out,
          { Pass.pass = "rewrite";
            ands_before = r.ands_before;
            ands_after = r.ands_after;
            depth_before = r.depth_before;
            depth_after = r.depth_after;
            verified = r.verified;
            verify_method = r.verify_method;
            elapsed_s = r.elapsed;
            detail =
              [ ("applied", r.applied);
                ("candidates", r.candidates);
                ("classes", r.classes);
                ("cache_hits", r.cache.Npn_cache.hits);
                ("cache_misses", r.cache.Npn_cache.misses) ] } )) }
