(* The whole-stack benchmark. See README.md for the workloads, the
   metrics and how to run it; [run.py] builds this executable and calls

     bench.exe run --workload W --seed N --seconds S --trace 0|1

   whose last stdout line is the result object. Also:

     bench.exe selftest            feed the checker known-bad answers
     bench.exe reference           regenerate reference.txt on stdout *)

module Json = Stp_telemetry.Json
module Profile = Stp_util.Profile
module Trace = Stp_telemetry.Trace
module Telemetry = Stp_telemetry.Telemetry

(* What one measured phase of a workload yields. *)
type phase = {
  attempted : int;
  failed : int;  (** operations with at least one failed check *)
  failures : string list;
  e2e : (string * string * float) list;  (** the end-to-end metrics *)
  report : (string * string * float) list;  (** the same, by workload-specific name *)
  layers : (string * float) list;  (** per-layer values (traced phase) *)
  rss_mb : float;
  latency : float * float;
      (** untraced median and supported-tail latency of the workload's
          operations: verdicts, netlist passes, service cache hits and
          requests *)
  spans : Spans.t;
}

let throughput p =
  match List.find_opt (fun (n, _, _) -> n = "throughput_per_s") p.e2e with
  | Some (_, _, v) -> v
  | None -> 0.0

(* A workload after setup: [measure] consumes it, [discard] drops it. *)
type prepared = { measure : traced:bool -> phase; discard : unit -> unit }

let setup_repeats = 9

let jobs = min 2 (Domain.recommended_domain_count ())

let set_tracing on =
  Profile.set_enabled on;
  Trace.set_enabled on;
  Telemetry.set_metrics_enabled on;
  if on then begin
    Profile.reset ();
    Trace.reset ()
  end

let counter (p : Profile.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name p.Profile.counts))

let stage (p : Profile.snapshot) name =
  match List.find_opt (fun s -> s.Profile.stage = name) p.Profile.stages with
  | Some s -> s.Profile.self_s
  | None -> 0.0

let sat_layers sat ~busy_s =
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k sat)) in
  [ ("sat.solvers", get "solvers"); ("sat.solves", get "solves");
    ("sat.conflicts", get "conflicts"); ("sat.propagations", get "propagations");
    ("sat.props_per_s", Common.ratio (get "propagations") busy_s) ]

let sat_delta before after = List.map (fun (k, v) -> (k, v - List.assoc k before)) after

(* {2 exact-stp / exact-sat} *)

let exact ~sat ~seed ~seconds reference () =
  ignore (Stp_tt.Npn.canon4 0);
  let instances = Exact.inputs ~sat ~seed ~seconds reference in
  let measure ~traced =
    let spans = Spans.create ~enabled:traced in
    set_tracing traced;
    let m = Exact.measure ~sat ~spans instances in
    set_tracing false;
    let e2e, report = Exact.end_to_end m in
    let p = m.Exact.profile in
    let solved name =
      float_of_int
        (List.length
           (List.filter (fun r -> r.Exact.engine = name && Exact.on_time r) m.Exact.records))
    in
    let layers =
      [ ("synth.engine_s", m.Exact.wall);
        ("synth.bms_s", Spans.total spans "synth.BMS");
        ("synth.fen_s", Spans.total spans "synth.FEN");
        ("synth.abc_s", Spans.total spans "synth.ABC");
        ("synth.bms_solved", solved "BMS"); ("synth.fen_solved", solved "FEN");
        ("synth.abc_solved", solved "ABC");
        ("synth.decompose_self_s", stage p "decompose");
        ("synth.decompose_calls", counter p "decompose_calls");
        ("synth.decompose_cache_hits", counter p "decompose_cache_hits");
        ("synth.feasibility_self_s", stage p "feasibility");
        ("synth.realise_self_s", stage p "realise");
        ("synth.learned_prunes", counter p "learned_prunes");
        ("synth.quarter_reject_ratio",
         Common.ratio (counter p "quarter_rejects") (counter p "quarter_tests"));
        ("stp.canonical_self_s", stage p "canonical");
        ("stp.multiword_decomposes", counter p "multiword_decomposes");
        ("stp.kernel_calls", counter p "multiword_kernel_calls");
        ("circuitsat.verify_self_s", stage p "verify");
        ("circuitsat.chains_verified", counter p "chains_verified");
        ("circuitsat.cube_merges", counter p "cube_merges");
        ("circuitsat.verified_per_emitted",
         Common.ratio (counter p "chains_verified") (counter p "chains_emitted")) ]
      @ sat_layers m.Exact.sat ~busy_s:m.Exact.wall
    in
    { attempted = List.length m.Exact.records;
      failed = List.length (List.filter (fun r -> r.Exact.fails <> []) m.Exact.records);
      failures = Exact.failures m;
      e2e; report; layers;
      rss_mb = Common.peak_rss_mb 0;
      latency = Exact.latencies m;
      spans }
  in
  { measure; discard = ignore }

(* {2 netlist} *)

let pool_totals () =
  let f k =
    Option.value ~default:0.0
      (Option.bind (Json.member k (Stp_parallel.Pool.stats_json ())) Json.to_float_opt)
  in
  (f "busy_s", f "queue_wait_s")

let netlist ~seed ~seconds () =
  let dir = Common.fresh_scratch "netlist" in
  let input = Netlist.setup ~seed ~dir in
  let output = Filename.concat dir "out.aig" in
  let measure ~traced =
    let spans = Spans.create ~enabled:traced in
    set_tracing traced;
    let busy0, wait0 = pool_totals () in
    let sat0 = Stp_sat.Solver.Totals.snapshot () in
    let ps =
      List.init (Netlist.passes seconds) (fun k ->
          Netlist.run_pass ~spans ~seed ~jobs ~input ~output k)
    in
    let self = if traced then Layers.self_times () else fun _ -> 0.0 in
    let sat = sat_delta sat0 (Stp_sat.Solver.Totals.snapshot ()) in
    set_tracing false;
    let busy1, wait1 = pool_totals () in
    Common.remove_tree dir;
    let n = float_of_int (List.length ps) in
    let per_pass x = x /. n in
    let last = List.hd (List.rev ps) in
    let med f = Common.median (List.map f ps) in
    let nodes_per_s = med (fun p -> float_of_int p.Netlist.ands_in /. p.Netlist.wall) in
    let ands_ratio = med (fun p -> Common.fratio p.Netlist.ands_out p.Netlist.ands_in) in
    let depth_ratio = med (fun p -> Common.fratio p.Netlist.depth_out p.Netlist.depth_in) in
    let wall = med (fun p -> p.Netlist.wall) in
    let sw = last.Netlist.sweep and rw = last.Netlist.rewrite in
    let rewrite_s = per_pass (Spans.total spans "network.rewrite") in
    let cache = rw.Stp_network.Rewrite.cache in
    let layers =
      [ ("network.aiger_read_s", per_pass (Spans.total spans "network.aiger_read"));
        ("network.aiger_write_s", per_pass (Spans.total spans "network.aiger_write"));
        ("network.sweep_s", per_pass (Spans.total spans "network.sweep"));
        ("network.sweep_sim_s", per_pass (self "sweep.sim"));
        ("network.sweep_prove_s", per_pass (self "sweep.prove"));
        ("network.sweep_candidates", float_of_int sw.Stp_network.Sweep.candidates);
        ("network.sweep_proved_ratio",
         Common.fratio sw.Stp_network.Sweep.pairs_proved sw.Stp_network.Sweep.candidates);
        ("network.sweep_skipped", float_of_int sw.Stp_network.Sweep.pairs_skipped);
        ("network.rewrite_s", rewrite_s);
        ("network.rewrite_candidates", float_of_int rw.Stp_network.Rewrite.candidates);
        ("network.rewrite_s_per_candidate",
         Common.ratio rewrite_s (float_of_int rw.Stp_network.Rewrite.candidates));
        ("network.rewrite_applied", float_of_int rw.Stp_network.Rewrite.applied);
        ("network.rewrite_classes", float_of_int rw.Stp_network.Rewrite.classes);
        ("network.depth_ratio", depth_ratio);
        ("parallel.busy_s", per_pass (busy1 -. busy0));
        ("parallel.queue_wait_s", per_pass (wait1 -. wait0));
        ("synth.cache_hit_share",
         Common.fratio cache.Stp_synth.Npn_cache.hits
           (cache.Stp_synth.Npn_cache.hits + cache.Stp_synth.Npn_cache.misses));
        ("synth.replay_failures", float_of_int cache.Stp_synth.Npn_cache.failures) ]
      @ List.map (fun (k, v) -> (k, if k = "sat.props_per_s" then v else per_pass v))
          (sat_layers sat ~busy_s:(n *. wall))
    in
    { attempted = List.length ps;
      failed = List.length (List.filter (fun p -> p.Netlist.fails <> []) ps);
      failures = List.concat_map (fun p -> p.Netlist.fails) ps;
      e2e = [ ("throughput_per_s", "1/s", nodes_per_s); ("goal_share", "ratio", 1.0 -. ands_ratio) ];
      report =
        [ ("nodes_per_s", "1/s", nodes_per_s); ("ands_ratio", "ratio", ands_ratio);
          ("depth_ratio", "ratio", depth_ratio); ("pass_p50_s", "s", wall) ];
      layers;
      rss_mb = med (fun p -> p.Netlist.rss_mb);
      latency = (wall, snd (Common.supported_tail (List.map (fun p -> p.Netlist.wall) ps)));
      spans }
  in
  { measure; discard = (fun () -> Common.remove_tree dir) }

(* {2 service} *)

let service ~seed ~seconds reference () =
  let dir = Common.fresh_scratch "service" in
  let svc = Serving.start ~dir in
  let discard () =
    ignore (Serving.stop svc);
    Common.remove_tree dir
  in
  let measure ~traced =
    let spans = Spans.create ~enabled:traced in
    let rounds =
      List.init Serving.rounds (fun r ->
          let svc = if r = 0 then svc else Serving.start ~dir:(Common.fresh_scratch "service") in
          Serving.round ~spans ~seed:((seed * Serving.rounds) + r)
            ~seconds:(seconds /. float_of_int Serving.rounds) ~reference svc)
    in
    let m = Serving.merge (List.map (fun (m, _, _) -> m) rounds) in
    let unclean = List.length (List.filter (fun (_, clean, _) -> not clean) rounds) in
    let stored = List.fold_left (fun acc (_, _, n) -> acc + n) 0 rounds in
    let answered = List.length m.Serving.samples in
    let rate = Serving.rate m in
    let lat = Serving.latencies m in
    let hit_p50 = Common.median (Serving.latencies ~source:"cache" m) in
    let mean_latency = Common.ratio (List.fold_left ( +. ) 0.0 lat) (float_of_int answered) in
    let tail_pct, tail = Common.supported_tail lat in
    let optimal = Serving.share m (fun r -> r.Check.status = "solved") in
    let elapsed src =
      Common.median
        (List.filter_map
           (fun s -> if s.Serving.resp.Check.source = src then Some s.Serving.resp.Check.elapsed_s else None)
           m.Serving.samples)
    in
    let overhead =
      List.map (fun s -> s.Serving.latency -. s.Serving.resp.Check.elapsed_s) m.Serving.samples
    in
    (* Per-shard figures of the stats replies, summed over rounds. *)
    let per_shard f =
      List.fold_left
        (fun acc stats ->
          let xs =
            match Json.member "shards" stats with
            | Some (Json.List ss) -> List.map f ss
            | _ -> []
          in
          if acc = [] then xs else List.map2 ( +. ) acc xs)
        [] m.Serving.stats
    in
    let shard_answered =
      per_shard (fun s -> Option.value ~default:0.0 (Option.bind (Json.member "answered" s) Json.to_float_opt))
    in
    let stalls =
      List.fold_left
        (fun acc stats ->
          match Option.bind (Json.member "backpressure" stats) (Json.member "stalls") with
          | Some (Json.Int i) -> acc +. float_of_int i
          | _ -> acc)
        0.0 m.Serving.stats
    in
    let mean_answered =
      Common.ratio (List.fold_left ( +. ) 0.0 shard_answered) (float_of_int (List.length shard_answered))
    in
    let cache_share = Serving.share m (fun r -> r.Check.source = "cache") in
    let layers =
      [ ("store.classes_written", float_of_int stored);
        ("store.solve_elapsed_p50_s", elapsed "solver");
        ("store.degrade_elapsed_p50_s", elapsed "upper_bound");
        ("service.overhead_p50_s", Common.median overhead);
        ("service.overhead_tail_s", snd (Common.supported_tail overhead));
        ("service.backpressure_stalls", stalls);
        ("service.shard_max_over_mean",
         Common.ratio (List.fold_left Float.max 0.0 shard_answered) mean_answered);
        ("service.cache_share", cache_share);
        ("service.solver_share", Serving.share m (fun r -> r.Check.source = "solver"));
        ("service.degraded_share", Serving.share m (fun r -> r.Check.source = "upper_bound"));
        ("synth.cache_hit_share", Common.ratio cache_share (Common.fratio answered m.Serving.sent)) ]
    in
    { attempted = m.Serving.sent;
      failed = min m.Serving.sent (Serving.failed m + unclean);
      failures =
        Serving.failures m @ List.init unclean (fun _ -> "service did not exit cleanly");
      e2e = [ ("throughput_per_s", "1/s", rate); ("goal_share", "ratio", optimal) ];
      report =
        [ ("requests_per_s", "1/s", rate); ("hit_latency_p50_s", "s", hit_p50);
          ("latency_mean_s", "s", mean_latency);
          (Printf.sprintf "latency_tail_s(p%.1f)" tail_pct, "s", tail);
          ("optimal_share", "ratio", optimal) ];
      layers;
      rss_mb = m.Serving.rss_mb;
      latency = (hit_p50, tail);
      spans }
  in
  { measure; discard }

(* {2 Running a workload} *)

let workloads = [ "exact-stp"; "exact-sat"; "netlist"; "service" ]

(* The workload's set-up. The reference is benchmark code, so it is
   loaded here, outside the timed set-up. *)
let setup_of ~workload ~seed ~seconds =
  match workload with
  | "exact-stp" -> exact ~sat:false ~seed ~seconds (Reference.load ())
  | "exact-sat" -> exact ~sat:true ~seed ~seconds (Reference.load ())
  | "netlist" -> netlist ~seed ~seconds
  | "service" -> service ~seed ~seconds (Reference.load ())
  | w -> failwith ("unknown workload " ^ w)

(* The time of one cold set-up: it runs in a forked child, which finds
   none of the program's lazily built tables (NPN classes, the canon4
   table, the PDSD8 pool) built, because this process has not set up
   yet. The child drops what it set up and reports the time on a pipe. *)
let cold_setup_time setup =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let p, dt = Common.time setup in
        p.discard ();
        let oc = Unix.out_channel_of_descr w in
        Printf.fprintf oc "%h\n%!" dt;
        0
      with e ->
        prerr_endline ("set-up failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    (match (Unix.waitpid [] pid, line) with
     | (_, Unix.WEXITED 0), Some l -> float_of_string l
     | _ -> failwith "a set-up child failed")

let meta ~workload ~seed ~seconds ~trace =
  Json.Obj
    [ ("workload", Json.String workload); ("seed", Json.Int seed);
      ("seconds", Json.Float seconds); ("trace", Json.Bool trace);
      ("commit", Json.String (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
      ("source_digest",
       Json.String (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_DIGEST")));
      ("ocaml", Json.String Sys.ocaml_version); ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int jobs); ("kern_impl", Json.String Stp_matrix.Kern.impl_name);
      ("exact_deadline_s", Json.Float Exact.deadline_s);
      ("exact_solved_slack_s", Json.Float Exact.slack_s);
      ("service_deadline_s", Json.Float Serving.timeout_s);
      ("rewrite_class_budget_s", Json.Float (Netlist.rewrite_options jobs).Stp_network.Rewrite.timeout) ]

let run ~workload ~seed ~seconds ~trace =
  let setup = setup_of ~workload ~seed ~seconds in
  (* Several cold set-ups, each in a child, then this process's own. *)
  let setup_times = List.init setup_repeats (fun _ -> cold_setup_time setup) in
  let prepared = setup () in
  let untraced = prepared.measure ~traced:false in
  let traced =
    if trace then
      (* On before set-up, so that a forked service traces too. *)
      let () = set_tracing true in
      let p = setup () in
      let t = p.measure ~traced:true in
      set_tracing false;
      Common.mkdir_p Common.scratch_root;
      Spans.write t.spans
        (Filename.concat Common.scratch_root (Printf.sprintf "spans-%s-%d.json" workload seed));
      Some t
    else None
  in
  let phases = untraced :: Option.to_list traced in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 phases in
  let failures = List.concat_map (fun p -> p.failures) phases in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 phases in
  let setup_s = Common.median setup_times in
  print_endline (Json.to_string (Json.Obj [ ("meta", meta ~workload ~seed ~seconds ~trace) ]));
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  let error_share = Common.fratio failed attempted in
  List.iter
    (fun (name, unit_, v) -> Printf.printf "%-28s %14.6g %s\n" name v unit_)
    ((("setup_s", "s", setup_s) :: untraced.report)
     @ [ ("error_share", "ratio", error_share); ("peak_rss_mb", "MB", untraced.rss_mb) ]);
  let metrics =
    match traced with
    | None ->
      List.map (fun (n, u, v) -> Common.metric n u v) (("setup_s", "s", setup_s) :: untraced.e2e)
    | Some t ->
      let p50, tail = untraced.latency in
      let ms =
        Layers.metrics
          ([ ("telemetry.overhead_ratio", Common.ratio (throughput t) (throughput untraced));
             ("e2e.peak_rss_mb", untraced.rss_mb); ("e2e.latency_p50_s", p50);
             ("e2e.latency_tail_s", tail) ]
          @ t.layers)
      in
      List.iter (fun m -> Printf.printf "%-34s %14.6g %s\n" m.Common.name m.Common.value m.Common.unit_) ms;
      ms
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0 && failures = [])); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", Common.metrics_json metrics) ]))

let usage () =
  prerr_endline
    "usage: bench.exe run --workload (exact-stp|exact-sat|netlist|service) --seed N \
     --seconds S --trace 0|1\n       bench.exe selftest\n       bench.exe reference";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest ->
    let rec opts acc = function
      | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) tl
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload workloads) then usage ();
    let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
    run ~workload ~seed ~seconds ~trace:(get "trace" = "1")
  | [ "selftest" ] -> exit (Selftest.run ())
  | [ "reference" ] -> Reference.generate ~jobs
  | _ -> usage ()
