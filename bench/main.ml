(* Regenerates every table and figure of the paper's evaluation:

   - TABLE I: the four engines over the five function collections
     (reduced default scale and timeout so one run stays laptop-sized;
     bin/table1.exe exposes the full parameter space);
   - FIG 1: the STP AllSAT search tree of the liar puzzle (Example 4);
   - FIG 2: fence family sizes and the pruned F_3;
   - FIG 3: the valid DAG shapes of F_3;
   - Bechamel microbenchmarks, one group per reproduced artefact.

   Run with:  dune exec bench/main.exe
   Flags:     --jobs N         fan Table I instances over N domains
              --no-npn-cache   disable NPN-class chain reuse
   Each run also writes its Table I aggregates (wall-clock, speedup,
   cache hit-rate) to BENCH_table1.json for cross-PR tracking. *)

module Tt = Stp_tt.Tt
module Runner = Stp_harness.Runner
module Table = Stp_harness.Table
module Collections = Stp_workloads.Collections

let bench_timeout = 2.5

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Collection scale for one bench run: NPN4 is subsampled (every third
   class) because the hardest classes dominate wall-clock; the paper's
   relative picture is preserved (see EXPERIMENTS.md). *)
let bench_collections () =
  let sub k (c : Collections.t) =
    { c with
      Collections.functions =
        List.filteri (fun i _ -> i mod k = 0) c.Collections.functions }
  in
  [ sub 5 (Collections.npn4 Collections.Default);
    (* The class-reuse workload: many functions per NPN class, so the
       cache turns most instances into transform replays. *)
    sub 4 (Collections.npn4_all Collections.Default);
    { (Collections.fdsd6 Collections.Default) with
      Collections.functions =
        (Collections.fdsd6 Collections.Default).Collections.functions
        |> List.filteri (fun i _ -> i < 30) };
    sub 1 (Collections.fdsd8 (Collections.Custom 0.12));
    sub 1 (Collections.pdsd6 (Collections.Custom 0.015));
    sub 1 (Collections.pdsd8 (Collections.Custom 0.06)) ]

let table1 ~jobs ~npn_cache () =
  Format.printf
    "=== TABLE I (reduced scale: timeout %.1fs/instance, %d job%s, npn \
     cache %s) ===@.@."
    bench_timeout jobs
    (if jobs = 1 then "" else "s")
    (if npn_cache then "on" else "off");
  let caches =
    List.map
      (fun (e : Runner.engine) ->
        ( Runner.engine_name e,
          if npn_cache then Some (Stp_synth.Npn_cache.create ()) else None ))
      Runner.all_engines
  in
  let rows =
    List.map
      (fun (c : Collections.t) ->
        Printf.eprintf "[bench] %s (%d instances)\n%!" c.Collections.name
          (List.length c.Collections.functions);
        let aggs =
          List.map
            (fun (e : Runner.engine) ->
              Printf.eprintf "[bench]   engine %s...\n%!" (Runner.engine_name e);
              let agg =
                Runner.run_collection ~timeout:bench_timeout ~jobs
                  ?cache:(List.assoc (Runner.engine_name e) caches)
                  e c.Collections.functions
              in
              Printf.eprintf
                "[bench]     wall %.2fs, speedup %.2fx, cache %d/%d hits\n%!"
                agg.Runner.wall_time (Runner.speedup agg) agg.Runner.cache_hits
                (agg.Runner.cache_hits + agg.Runner.cache_misses);
              agg)
            Runner.all_engines
        in
        (c.Collections.name, List.length c.Collections.functions, aggs))
      (bench_collections ())
  in
  Table.render Format.std_formatter
    ~rows:(List.map (fun (name, _, aggs) -> (name, aggs)) rows);
  Format.printf "@.";
  let open Stp_harness.Report in
  write ~path:"BENCH_table1.json"
    ~meta:
      [ ("source", String "bench/main");
        ("timeout_s", Float bench_timeout);
        ("jobs", Int jobs);
        ("npn_cache", Bool npn_cache) ]
    ~rows;
  Printf.eprintf "[bench] wrote BENCH_table1.json\n%!"

let fig1 () =
  Format.printf "=== FIG 1: STP AllSAT descent for the liar puzzle ===@.@.";
  let phi =
    let open Stp_matrix.Expr in
    let a = var 0 and b = var 1 and c = var 2 in
    ((a <=> not_ b) && (b <=> not_ c)) && (c <=> (not_ a && not_ b))
  in
  let m = Stp_matrix.Canonical.of_expr ~n:3 phi in
  Format.printf "M_phi = %a@.@." Stp_matrix.Matrix.pp m;
  Format.printf "%a@.@." Stp_matrix.Stp_sat.pp_tree (Stp_matrix.Stp_sat.trace m);
  List.iter
    (fun s ->
      Format.printf "solution: a=%b b=%b c=%b@." s.(0) s.(1) s.(2))
    (Stp_matrix.Stp_sat.all_solutions m);
  Format.printf "@."

let fig2 () =
  Format.printf "=== FIG 2: fence families ===@.@.";
  Format.printf "%4s %10s %10s@." "k" "|F_k|" "pruned";
  for k = 1 to 8 do
    Format.printf "%4d %10d %10d@." k
      (List.length (Stp_topology.Fence.generate k))
      (List.length (Stp_topology.Fence.generate_pruned k))
  done;
  Format.printf "@.pruned F_3 (Fig. 2b): ";
  List.iter
    (fun f -> Format.printf "%a " Stp_topology.Fence.pp f)
    (Stp_topology.Fence.generate_pruned 3);
  Format.printf "@.@."

let fig3 () =
  Format.printf "=== FIG 3: valid DAG shapes of F_3 ===@.@.";
  List.iter
    (fun s -> Format.printf "  %a@." Stp_topology.Dag.pp s)
    (Stp_topology.Dag.enumerate 3);
  Format.printf "@.shapes per gate count: ";
  for k = 1 to 7 do
    Format.printf "k=%d:%d " k (List.length (Stp_topology.Dag.enumerate k))
  done;
  Format.printf "@.@."

(* --- Bechamel microbenchmarks: one per reproduced artefact --- *)

let micro () =
  let open Bechamel in
  let fdsd6 = Stp_workloads.Dsd_gen.fdsd ~n:6 ~seed:11 in
  let liar =
    let open Stp_matrix.Expr in
    let a = var 0 and b = var 1 and c = var 2 in
    ((a <=> not_ b) && (b <=> not_ c)) && (c <=> (not_ a && not_ b))
  in
  let synth_options = Stp_synth.Spec.with_timeout 10.0 in
  let tests =
    [ (* Table I's headline path: STP exact synthesis of a DSD function *)
      Test.make ~name:"table1/stp-fdsd6"
        (Staged.stage (fun () ->
             ignore (Stp_synth.Stp_exact.synthesize ~options:synth_options fdsd6)));
      Test.make ~name:"table1/bms-xor4"
        (Staged.stage (fun () ->
             ignore
               (Stp_synth.Baselines.bms ~options:synth_options
                  (Tt.of_hex ~n:4 "6996"))));
      (* Fig. 1: canonical form + AllSAT *)
      Test.make ~name:"fig1/liar-allsat"
        (Staged.stage (fun () ->
             let m = Stp_matrix.Canonical.of_expr ~n:3 liar in
             ignore (Stp_matrix.Stp_sat.all_solutions m)));
      (* Fig. 2: fence enumeration *)
      Test.make ~name:"fig2/fences-k7"
        (Staged.stage (fun () ->
             ignore (Stp_topology.Fence.generate_pruned 7)));
      (* Fig. 3: DAG shape enumeration *)
      Test.make ~name:"fig3/shapes-k5"
        (Staged.stage (fun () -> ignore (Stp_topology.Dag.enumerate 5))) ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  Format.printf "=== Bechamel microbenchmarks (monotonic clock) ===@.@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Format.printf "%-24s %12.1f ns/run@." name est
          | _ -> Format.printf "%-24s (no estimate)@." name)
        analysed)
    tests;
  Format.printf "@."

(* --- kernel microbenchmarks (--kernels) ---

   ns/op for the two hot Kern operations — forced-value propagation
   (force + undo) and output assembly — on random rows at 4/5/6 side
   variables, for the C stubs the solver runs and the pure-OCaml
   reference. Then ns/op of [Npn.canonical] at 3-6 variables. Written
   to BENCH_kernels.json for the CI smoke check. *)

let kernels () =
  let module Kern = Stp_matrix.Kern in
  let open Stp_harness.Report in
  let st = Random.State.make [| 0xbe_c4; 42 |] in
  let rand_bytes words =
    let b = Bytes.create (words * 8) in
    for k = 0 to words - 1 do
      Bytes.set_int64_ne b (k * 8) (Random.State.int64 st Int64.max_int)
    done;
    b
  in
  let time_ns iters f =
    (* one warmup pass, then a timed loop around the op *)
    f ();
    let t0 = Stp_util.Profile.now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    float_of_int (Stp_util.Profile.now_ns () - t0) /. float_of_int iters
  in
  let impls =
    [ ("c", (module Kern.C_ops : Kern.OPS));
      ("ocaml", (module Kern.Ocaml_ops : Kern.OPS)) ]
  in
  let sink = ref 0 in
  let blocks = ref [] in
  Format.printf "=== Kern microbenchmarks (ns/op, the solver runs %s) ===@.@."
    Kern.impl_name;
  Format.printf "%-14s %4s  %10s %10s@." "op" "vars" "c" "ocaml";
  List.iter
    (fun vars ->
      let bits = 1 lsl vars in
      let w = (bits + 63) / 64 in
      let frows = rand_bytes (2 * w) in
      let state = Bytes.make (2 * w * 8) '\000' in
      let newly = Bytes.create (w * 8) in
      let inds = rand_bytes (bits * w) in
      let sel = rand_bytes ((bits + 63) / 64) in
      let out = Bytes.create (w * 8) in
      let per_op op =
        let ns =
          List.map
            (fun (impl, ops) ->
              let module K = (val ops : Kern.OPS) in
              let iters, f =
                match op with
                | "force" ->
                  ( 200_000,
                    fun () ->
                      let rc = K.force frows 0 state 0 w newly 0 w 1 1 in
                      sink := !sink + rc;
                      if rc > 0 then K.undo state 0 w newly 0 w )
                | "assemble" ->
                  (100_000, fun () -> K.assemble inds 0 sel 0 bits w out 0)
                | _ -> assert false
              in
              let ns = time_ns iters f in
              blocks :=
                Obj
                  [ ("op", String op); ("vars", Int vars);
                    ("impl", String impl); ("iters", Int iters);
                    ("ns_per_op", Float ns) ]
                :: !blocks;
              ns)
            impls
        in
        match ns with
        | [ c; ml ] -> Format.printf "%-14s %4d  %10.1f %10.1f@." op vars c ml
        | _ -> assert false
      in
      List.iter per_op [ "force"; "assemble" ])
    [ 4; 5; 6 ];
  (* Exhaustive NPN canonicalisation, the per-cut kernel of the NPN
     cache and the rewriter; pure OCaml, so one column. *)
  Format.printf "@.%-14s %4s  %10s@." "op" "vars" "ocaml";
  List.iter
    (fun (vars, iters) ->
      let tables =
        Array.init 16 (fun _ ->
            Stp_tt.Tt.of_fun vars (fun _ -> Random.State.bool st))
      in
      let i = ref 0 in
      let ns =
        time_ns iters (fun () ->
            let rep, _ = Stp_tt.Npn.canonical tables.(!i land 15) in
            incr i;
            sink := !sink + Stp_tt.Tt.hash rep)
      in
      blocks :=
        Obj
          [ ("op", String "npn_canonical"); ("vars", Int vars);
            ("impl", String "ocaml"); ("iters", Int iters);
            ("ns_per_op", Float ns) ]
        :: !blocks;
      Format.printf "%-14s %4d  %10.1f@." "npn_canonical" vars ns)
    [ (3, 200_000); (4, 50_000); (5, 5_000); (6, 200) ];
  let json =
    Obj
      [ ("source", String "bench/main --kernels");
        ("impl_default", String Kern.impl_name);
        ("blocks", List (List.rev !blocks)) ]
  in
  let oc = open_out "BENCH_kernels.json" in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.(sink %d)@." (!sink land 1);
  Printf.eprintf "[bench] wrote BENCH_kernels.json\n%!"

(* --- SAT-core microbenchmarks (--sat) ---

   Two parts, written to BENCH_sat.json for the CI smoke check:

   - raw CDCL throughput (propagations/s, conflicts/s) over the
     committed DIMACS mini-corpus in bench/dimacs — every file's verdict
     is cross-checked against the .sat.cnf/.unsat.cnf label;
   - a cold-vs-incremental A/B of the BMS and FEN budget sweeps over an
     NPN4 subsample: same targets, same timeout, one fresh solver per
     budget (cold) against one long-lived solver with per-budget
     selectors (incremental). The process-wide [Solver.Totals] counters
     are snapshotted around each leg, so the conflict/propagation saving
     is visible next to the wall-clock one. *)

let sat_bench ~corpus () =
  let module Solver = Stp_sat.Solver in
  let module Dimacs = Stp_sat.Dimacs in
  let open Stp_harness.Report in
  Format.printf "=== SAT-core microbenchmarks ===@.@.";
  (* corpus throughput *)
  let files =
    Sys.readdir corpus |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cnf")
    |> List.sort compare
  in
  Format.printf "%-28s %8s %6s %12s %12s@." "file" "result" "reps"
    "props/s" "conflicts/s";
  let corpus_rows =
    List.map
      (fun file ->
        let cnf = Dimacs.parse (read_file (Filename.concat corpus file)) in
        let expected =
          if Filename.check_suffix file ".sat.cnf" then "sat"
          else if Filename.check_suffix file ".unsat.cnf" then "unsat"
          else "unknown"
        in
        let result = ref Solver.Unknown in
        let props = ref 0 and conflicts = ref 0 and reps = ref 0 in
        let t0 = Stp_util.Profile.now_ns () in
        (* repeat fresh cold solves until the sample is long enough to
           time meaningfully *)
        while
          !reps < 100
          && (!reps < 3
             || Stp_util.Profile.now_ns () - t0 < 300_000_000)
        do
          let solver = Solver.create () in
          Dimacs.load solver cnf;
          result := Solver.solve solver;
          let st = Solver.stats solver in
          props := !props + st.Solver.propagations;
          conflicts := !conflicts + st.Solver.conflicts;
          incr reps
        done;
        let elapsed =
          float_of_int (Stp_util.Profile.now_ns () - t0) *. 1e-9
        in
        let verdict =
          match !result with
          | Solver.Sat -> "sat"
          | Solver.Unsat -> "unsat"
          | Solver.Unknown -> "unknown"
        in
        let ok = expected = "unknown" || verdict = expected in
        if not ok then
          Printf.eprintf "[bench] MISMATCH %s: expected %s, got %s\n%!" file
            expected verdict;
        let props_s = float_of_int !props /. elapsed in
        let conf_s = float_of_int !conflicts /. elapsed in
        Format.printf "%-28s %8s %6d %12.0f %12.0f@." file verdict !reps
          props_s conf_s;
        Obj
          [ ("file", String file); ("expected", String expected);
            ("result", String verdict); ("ok", Bool ok);
            ("reps", Int !reps); ("time_s", Float elapsed);
            ("propagations", Int !props); ("conflicts", Int !conflicts);
            ("props_per_s", Float props_s);
            ("conflicts_per_s", Float conf_s) ])
      files
  in
  (* cold vs incremental budget sweeps *)
  let targets =
    (Collections.npn4 Collections.Default).Collections.functions
    |> List.filteri (fun i _ -> i mod 18 = 0)
  in
  let sweep_timeout = 1.0 in
  Format.printf "@.%-6s %-12s %7s %9s %9s %12s %12s@." "engine" "mode"
    "targets" "solved" "timeouts" "wall_s" "conflicts";
  let sweep_rows =
    List.concat_map
      (fun (name, outcome) ->
        List.map
          (fun incremental ->
            let before = Solver.Totals.snapshot () in
            let t0 = Stp_util.Profile.now_ns () in
            let solved = ref 0 and timeouts = ref 0 in
            List.iter
              (fun f ->
                let options = Stp_synth.Spec.with_timeout sweep_timeout in
                let deadline = Stp_synth.Spec.deadline_of options in
                match outcome ~incremental ~options ~deadline f with
                | `Solved _ -> incr solved
                | `Timeout | `Infeasible -> incr timeouts)
              targets;
            let wall =
              float_of_int (Stp_util.Profile.now_ns () - t0) *. 1e-9
            in
            let after = Solver.Totals.snapshot () in
            let delta key =
              List.assoc key after - List.assoc key before
            in
            let mode = if incremental then "incremental" else "cold" in
            Format.printf "%-6s %-12s %7d %9d %9d %12.2f %12d@." name mode
              (List.length targets) !solved !timeouts wall
              (delta "conflicts");
            Obj
              [ ("engine", String name); ("mode", String mode);
                ("targets", Int (List.length targets));
                ("solved", Int !solved); ("timeouts", Int !timeouts);
                ("wall_s", Float wall);
                ("conflicts", Int (delta "conflicts"));
                ("propagations", Int (delta "propagations"));
                ("solvers", Int (delta "solvers")) ])
          [ false; true ])
      [ ("BMS",
         fun ~incremental ~options ~deadline f ->
           Stp_synth.Baselines.bms_outcome ~incremental ~options ~deadline f);
        ("FEN",
         fun ~incremental ~options ~deadline f ->
           Stp_synth.Baselines.fen_outcome ~incremental ~options ~deadline f) ]
  in
  let json =
    Obj
      [ ("source", String "bench/main --sat");
        ("timeout_s", Float sweep_timeout);
        ("corpus", List corpus_rows);
        ("sweep", List sweep_rows) ]
  in
  let oc = open_out "BENCH_sat.json" in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.";
  Printf.eprintf "[bench] wrote BENCH_sat.json\n%!"

(* --- SAT-sweeping benchmark (--sweep) ---

   Generated netlists (Ntk_gen, fixed seed) at three scales through
   Sweep.run, each under a wall budget so the 50k-node point stays
   bounded; rows go to BENCH_sweep.json for the CI smoke check. *)
let netsweep () =
  let open Stp_harness.Report in
  let module Sweep = Stp_network.Sweep in
  let module Ntk = Stp_network.Ntk in
  Format.printf "=== SAT SWEEPING (generated netlists, seed 1) ===@.@.";
  Format.printf "%9s %9s %9s %8s %8s %8s %8s %7s %9s@." "nodes" "ands" "after"
    "merges" "refuted" "skipped" "rounds" "verif" "wall_s";
  let rows =
    List.map
      (fun (nodes, timeout) ->
        let ntk = Stp_workloads.Ntk_gen.generate ~seed:1 ~nodes () in
        let options = { Sweep.default_options with Sweep.timeout } in
        let _, r = Sweep.run ~options ntk in
        Format.printf "%9d %9d %9d %8d %8d %8d %8d %7b %9.2f@." nodes
          r.Sweep.ands_before r.Sweep.ands_after r.Sweep.merges
          r.Sweep.pairs_refuted r.Sweep.pairs_skipped r.Sweep.rounds
          r.Sweep.verified r.Sweep.elapsed;
        Obj
          [ ("nodes", Int nodes);
            ("timeout_s", Float timeout);
            ("pis", Int (Ntk.num_pis ntk));
            ("pos", Int (Ntk.num_pos ntk));
            ("ands_before", Int r.Sweep.ands_before);
            ("ands_after", Int r.Sweep.ands_after);
            ("gain", Int (r.Sweep.ands_before - r.Sweep.ands_after));
            ("depth_before", Int r.Sweep.depth_before);
            ("depth_after", Int r.Sweep.depth_after);
            ("classes", Int r.Sweep.classes);
            ("candidates", Int r.Sweep.candidates);
            ("pairs_proved", Int r.Sweep.pairs_proved);
            ("pairs_refuted", Int r.Sweep.pairs_refuted);
            ("pairs_skipped", Int r.Sweep.pairs_skipped);
            ("merges", Int r.Sweep.merges);
            ("rounds", Int r.Sweep.rounds);
            ("cex_patterns", Int r.Sweep.cex_patterns);
            ("sat_vars", Int r.Sweep.sat_vars);
            ("sat_conflicts", Int r.Sweep.sat.Stp_sat.Solver.conflicts);
            ("sat_propagations", Int r.Sweep.sat.Stp_sat.Solver.propagations);
            ("verified", Bool r.Sweep.verified);
            ("verify_method", String r.Sweep.verify_method);
            ("wall_s", Float r.Sweep.elapsed) ])
      [ (5_000, 10.0); (20_000, 30.0); (50_000, 60.0) ]
  in
  let json =
    Obj
      [ ("source", String "bench/main --sweep");
        ("seed", Int 1);
        ("rows", List rows) ]
  in
  let oc = open_out "BENCH_sweep.json" in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.";
  Printf.eprintf "[bench] wrote BENCH_sweep.json\n%!"

(* Ablations over the engine's design choices (DESIGN.md section 3):
   DSD peeling, and first-topology vs exhaustive all-solutions. All
   timing below reads the one monotonic source, [Profile.now_ns]. *)
let ablations () =
  Format.printf "=== ABLATIONS ===@.@.";
  let run name options fns =
    let t0 = Stp_util.Profile.now_ns () in
    let solved = ref 0 and sols = ref 0 in
    Stp_telemetry.Trace.span "bench.ablation" ~args:[ ("name", name) ]
      (fun () ->
        List.iter
          (fun f ->
            match Stp_synth.Stp_exact.synthesize ~options f with
            | { Stp_synth.Spec.status = Stp_synth.Spec.Solved; chains; _ } ->
              incr solved;
              sols := !sols + List.length chains
            | _ -> ())
          fns);
    let elapsed =
      float_of_int (Stp_util.Profile.now_ns () - t0) *. 1e-9
    in
    Stp_telemetry.Hist.observe_s
      (Stp_telemetry.Hist.get "bench/ablation")
      elapsed;
    Format.printf "%-36s solved %2d/%2d, %5d chains, %6.2fs@." name !solved
      (List.length fns) !sols elapsed
  in
  let pdsd6 = Stp_workloads.Dsd_gen.pdsd_collection ~n:6 ~count:10 ~seed:303 in
  let base = Stp_synth.Spec.with_timeout bench_timeout in
  run "PDSD6 with DSD peeling (default)" base pdsd6;
  run "PDSD6 without DSD peeling"
    { base with Stp_synth.Spec.use_dsd = false }
    pdsd6;
  let maj_like =
    [ Tt.of_hex ~n:3 "e8"; Tt.of_hex ~n:3 "ca"; Tt.of_hex ~n:4 "8ff8" ]
  in
  run "primes, first topology (default)" base maj_like;
  run "primes, all shapes"
    { base with Stp_synth.Spec.all_shapes = true }
    maj_like;
  Format.printf "@."

let () =
  let open Cmdliner in
  let module Cli = Stp_harness.Cli in
  let kernels_flag =
    Arg.(
      value & flag
      & info [ "kernels" ]
          ~doc:
            "Run only the Kern multi-word kernel microbenchmarks (both the C \
             stubs and the pure-OCaml fallback) and write \
             BENCH_kernels.json.")
  in
  let sat_flag =
    Arg.(
      value & flag
      & info [ "sat" ]
          ~doc:
            "Run only the SAT-core microbenchmarks (DIMACS corpus \
             throughput, cold-vs-incremental budget-sweep A/B) and write \
             BENCH_sat.json.")
  in
  let corpus =
    Arg.(
      value
      & opt string "bench/dimacs"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory of .cnf files for the --sat corpus benchmark.")
  in
  let sweep_flag =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run only the SAT-sweeping benchmark (generated netlists at \
             three scales) and write BENCH_sweep.json.")
  in
  let run jobs no_npn_cache profile trace metrics kernels_only sat_only
      sweep_only corpus =
    Cli.with_telemetry ~trace ~metrics @@ fun () ->
    Stp_util.Profile.set_enabled profile;
    if kernels_only then kernels ()
    else if sat_only then sat_bench ~corpus ()
    else if sweep_only then netsweep ()
    else begin
      fig2 ();
      fig3 ();
      fig1 ();
      micro ();
      kernels ();
      ablations ();
      table1 ~jobs:(Cli.resolve_jobs jobs) ~npn_cache:(not no_npn_cache) ()
    end
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"regenerate the paper's tables and figures")
      Term.(
        const run $ Cli.jobs $ Cli.no_npn_cache $ Cli.profile $ Cli.trace
        $ Cli.metrics $ kernels_flag $ sat_flag $ sweep_flag $ corpus)
  in
  exit (Cmd.eval cmd)
