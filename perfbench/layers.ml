(* Per-layer metrics of the traced run. Every traced run prints every
   name below; a layer that does no work on a workload reads 0. *)

module Trace = Stp_telemetry.Trace

let names =
  [ (* synth *)
    ("synth.engine_s", "s"); ("synth.bms_s", "s"); ("synth.fen_s", "s"); ("synth.abc_s", "s");
    ("synth.bms_solved", "count"); ("synth.fen_solved", "count"); ("synth.abc_solved", "count");
    ("synth.decompose_self_s", "s"); ("synth.decompose_calls", "count");
    ("synth.decompose_cache_hits", "count"); ("synth.feasibility_self_s", "s");
    ("synth.realise_self_s", "s"); ("synth.learned_prunes", "count");
    ("synth.quarter_reject_ratio", "ratio"); ("synth.cache_hit_share", "ratio");
    ("synth.replay_failures", "count");
    (* stp *)
    ("stp.canonical_self_s", "s"); ("stp.multiword_decomposes", "count");
    ("stp.kernel_calls", "count");
    (* circuitsat *)
    ("circuitsat.verify_self_s", "s"); ("circuitsat.chains_verified", "count");
    ("circuitsat.cube_merges", "count"); ("circuitsat.verified_per_emitted", "ratio");
    (* sat *)
    ("sat.solvers", "count"); ("sat.solves", "count"); ("sat.conflicts", "count");
    ("sat.propagations", "count"); ("sat.props_per_s", "1/s");
    (* network *)
    ("network.aiger_read_s", "s"); ("network.aiger_write_s", "s"); ("network.sweep_s", "s");
    ("network.sweep_sim_s", "s"); ("network.sweep_prove_s", "s");
    ("network.sweep_candidates", "count"); ("network.sweep_proved_ratio", "ratio");
    ("network.sweep_skipped", "count"); ("network.rewrite_s", "s");
    ("network.rewrite_candidates", "count"); ("network.rewrite_s_per_candidate", "s");
    ("network.rewrite_applied", "count"); ("network.rewrite_classes", "count");
    ("network.depth_ratio", "ratio");
    (* parallel *)
    ("parallel.busy_s", "s"); ("parallel.queue_wait_s", "s");
    (* store *)
    ("store.classes_written", "count"); ("store.solve_elapsed_p50_s", "s");
    ("store.degrade_elapsed_p50_s", "s");
    (* service *)
    ("service.overhead_p50_s", "s"); ("service.overhead_tail_s", "s");
    ("service.backpressure_stalls", "count");
    ("service.shard_max_over_mean", "ratio"); ("service.cache_share", "ratio");
    ("service.solver_share", "ratio"); ("service.degraded_share", "ratio");
    (* untraced end-to-end timings and memory, not gated *)
    ("e2e.peak_rss_mb", "MB"); ("e2e.latency_p50_s", "s"); ("e2e.latency_tail_s", "s");
    (* telemetry *)
    ("telemetry.overhead_ratio", "ratio") ]

let metrics values =
  List.map
    (fun (name, unit_) ->
      Common.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    names

(* Self time per span name of the program's own trace spans: each
   span's duration minus the spans nested directly inside it on the
   same domain. *)
let self_times () =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace by_domain e.domain_id
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_domain e.domain_id)))
    (Trace.events ());
  let self = Hashtbl.create 16 in
  let add name s =
    Hashtbl.replace self name (s +. Option.value ~default:0.0 (Hashtbl.find_opt self name))
  in
  Hashtbl.iter
    (fun _ events ->
      let sorted =
        List.sort
          (fun (a : Trace.event) (b : Trace.event) ->
            compare (a.t_start_ns, -a.t_end_ns) (b.t_start_ns, -b.t_end_ns))
          events
      in
      (* A stack of open spans; a span's duration is charged to its own
         name and taken back from its parent's. *)
      let stack = ref [] in
      List.iter
        (fun (e : Trace.event) ->
          while
            match !stack with
            | (top : Trace.event) :: _ -> top.t_end_ns <= e.t_start_ns
            | [] -> false
          do
            stack := List.tl !stack
          done;
          let dur = float_of_int (e.t_end_ns - e.t_start_ns) *. 1e-9 in
          add e.name dur;
          (match !stack with
           | (parent : Trace.event) :: _ -> add parent.name (-.dur)
           | [] -> ());
          stack := e :: !stack)
        sorted)
    by_domain;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt self name)
