module Engine = Stp_synth.Engine
module Npn_cache = Stp_synth.Npn_cache

type engine = (module Engine.S)

let stp_engine = Engine.stp
let bms_engine = Engine.bms
let fen_engine = Engine.fen
let abc_engine = Engine.lutexact

let all_engines = Engine.all

let engine_name = Engine.name

type aggregate = {
  name : string;
  solved : int;
  timeouts : int;
  infeasible : int;
  mean_time : float;
  total_time : float;
  wall_time : float;
  mean_solutions : float;
  mean_per_solution : float;
  optima : (int * int) list;
  cache_hits : int;
  cache_misses : int;
  profile : Stp_util.Profile.snapshot option;
  latency : Stp_telemetry.Hist.snapshot;
}

let speedup agg =
  if agg.wall_time > 0.0 then agg.total_time /. agg.wall_time else 1.0

let hit_rate agg =
  let looked_up = agg.cache_hits + agg.cache_misses in
  if looked_up = 0 then 0.0
  else float_of_int agg.cache_hits /. float_of_int looked_up

let run_collection ?(timeout = 5.0) ?(jobs = 1) ?cache ?on_instance engine
    functions =
  let jobs = max 1 jobs in
  (* Force the lazily built global tables (the NPN4 canonicalisation
     table in particular) before any fan-out: racing domains on an
     unforced [lazy] is an error in OCaml 5, and the first instance's
     timing should not pay for table construction either. *)
  ignore (Stp_tt.Npn.canon4 0);
  (* [observed] is outermost, so its spans and latency histograms cover
     cache replays as well as solver calls — the per-instance cost a
     caller actually experiences. *)
  let (module E : Engine.S) =
    Engine.observed
      (match cache with None -> engine | Some c -> Npn_cache.wrap c engine)
  in
  let cache_before = Option.map Npn_cache.stats cache in
  (* One Factor.memo per domain, reused across the instances that domain
     executes. The memo's hash tables are not thread-safe, so domains
     must never share one — domain-local storage gives each domain its
     own, created on first use; a fresh key per run keeps runs
     independent. Sharing across instances is sound because memo entries
     are pure functions of their keys (see Factor.memo). *)
  let memo_key = Domain.DLS.new_key (fun () -> Stp_synth.Factor.create_memo ()) in
  let solve f =
    let t0 = Stp_util.Unix_time.now () in
    let r =
      E.synthesize
        (Engine.spec ~memo:(Domain.DLS.get memo_key) f)
        ~deadline:(Stp_util.Deadline.after timeout)
    in
    (r, Stp_util.Unix_time.now () -. t0)
  in
  (* The profiler's accumulators are global: reset per run so each
     aggregate carries exactly its own run's counters. *)
  if Stp_util.Profile.enabled () then Stp_util.Profile.reset ();
  let t0 = Stp_util.Unix_time.now () in
  let results =
    if jobs = 1 then List.map solve functions
    else Stp_parallel.Pool.map ~domains:jobs solve functions
  in
  let wall_time = Stp_util.Unix_time.now () -. t0 in
  (* Aggregation is one sequential pass over (instance, result) in input
     order — byte-identical between the sequential and parallel paths,
     and [on_instance] observes instances in input order either way. *)
  let solved = ref 0 and timeouts = ref 0 and infeasible = ref 0 in
  let solved_time = ref 0.0 and total_time = ref 0.0 in
  let solutions = ref 0 in
  let optima = Hashtbl.create 16 in
  let latency = Stp_telemetry.Hist.make E.name in
  List.iteri
    (fun i (f, (result, elapsed)) ->
      (match on_instance with Some obs -> obs i f result | None -> ());
      Stp_telemetry.Hist.observe_s latency elapsed;
      total_time := !total_time +. elapsed;
      match result with
      | Engine.Solved chains ->
        incr solved;
        solved_time := !solved_time +. elapsed;
        solutions := !solutions + List.length chains;
        let g = Option.value ~default:(-1) (Engine.gates result) in
        Hashtbl.replace optima g (1 + Option.value ~default:0 (Hashtbl.find_opt optima g))
      | Engine.Timeout -> incr timeouts
      | Engine.Infeasible -> incr infeasible)
    (List.combine functions results);
  let mean_time = if !solved = 0 then 0.0 else !solved_time /. float_of_int !solved in
  let mean_solutions =
    if !solved = 0 then 0.0 else float_of_int !solutions /. float_of_int !solved
  in
  let mean_per_solution =
    if mean_solutions = 0.0 then 0.0 else mean_time /. mean_solutions
  in
  let cache_hits, cache_misses =
    match (cache, cache_before) with
    | Some c, Some before ->
      let after = Npn_cache.stats c in
      ( after.Npn_cache.hits - before.Npn_cache.hits,
        after.Npn_cache.misses - before.Npn_cache.misses )
    | _ -> (0, 0)
  in
  { name = E.name;
    solved = !solved;
    timeouts = !timeouts;
    infeasible = !infeasible;
    mean_time;
    total_time = !total_time;
    wall_time;
    mean_solutions;
    mean_per_solution;
    optima =
      List.sort Stdlib.compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) optima []);
    cache_hits;
    cache_misses;
    profile =
      (if Stp_util.Profile.enabled () then Some (Stp_util.Profile.snapshot ())
       else None);
    latency = Stp_telemetry.Hist.snapshot latency }
