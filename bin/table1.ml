(* Regenerate Table I: four engines over the five function collections. *)

open Cmdliner
module Runner = Stp_harness.Runner
module Cli = Stp_harness.Cli
module Store = Stp_store.Store

let run collections timeout scale jobs no_npn_cache json_path csv cross_check
    profile limit store_path trace metrics =
  Cli.with_telemetry ~trace ~metrics @@ fun () ->
  let jobs = Cli.resolve_jobs jobs in
  Stp_util.Profile.set_enabled profile;
  let scale =
    match scale with
    | s when s <= 0.0 -> Stp_workloads.Collections.Default
    | 1.0 -> Stp_workloads.Collections.Paper
    | s -> Stp_workloads.Collections.Custom s
  in
  let available =
    Stp_workloads.Collections.table1 scale
    @ [ Stp_workloads.Collections.npn4_all scale ]
  in
  let selected =
    match collections with
    | [] -> Stp_workloads.Collections.table1 scale
    | names ->
      let names = List.map String.lowercase_ascii names in
      let known =
        List.map
          (fun (c : Stp_workloads.Collections.t) ->
            String.lowercase_ascii c.name)
          available
      in
      List.iter
        (fun n ->
          if not (List.mem n known) then (
            Printf.eprintf "table1: unknown collection %S (known: %s)\n" n
              (String.concat ", " known);
            exit 124))
        names;
      List.filter
        (fun (c : Stp_workloads.Collections.t) ->
          List.mem (String.lowercase_ascii c.name) names)
        available
  in
  let selected =
    if limit <= 0 then selected
    else
      List.map
        (fun (c : Stp_workloads.Collections.t) ->
          { c with
            Stp_workloads.Collections.functions =
              List.filteri (fun i _ -> i < limit) c.functions })
        selected
  in
  let store =
    match store_path with
    | "" -> None
    | path ->
      let s = Store.load ~path in
      let st = Store.stats s in
      Printf.eprintf "[table1] store %s: %d classes in %d sections%s\n%!" path
        st.Store.classes st.Store.sections
        (if st.Store.skipped = 0 then ""
         else Printf.sprintf " (%d corrupt records skipped)" st.Store.skipped);
      Store.attach_telemetry s;
      Some s
  in
  (* One NPN cache per engine, carried across collections: entries store
     the engine's own chain sets, so caches must not be shared between
     engines. A persistent store seeds each cache from the section named
     after its engine and absorbs it back at the end of the run. *)
  let caches =
    List.map
      (fun (e : Runner.engine) ->
        let name = Runner.engine_name e in
        let cache =
          if no_npn_cache then None
          else begin
            let c = Stp_synth.Npn_cache.create () in
            (match store with
             | Some s ->
               let st = Store.seed s ~section:name c in
               if st.Store.seeded > 0 || st.Store.seed_rejected > 0 then
                 Printf.eprintf "[table1] store: seeded %d %s classes%s\n%!"
                   st.Store.seeded name
                   (if st.Store.seed_rejected = 0 then ""
                    else
                      Printf.sprintf " (%d rejected by re-validation)"
                        st.Store.seed_rejected)
             | None -> ());
            Some c
          end
        in
        (name, cache))
      Runner.all_engines
  in
  let rows =
    List.map
      (fun (c : Stp_workloads.Collections.t) ->
        Printf.eprintf "[table1] %s: %d instances, timeout %.1fs, %d job%s%s\n%!"
          c.name
          (List.length c.functions)
          timeout jobs
          (if jobs = 1 then "" else "s")
          (if no_npn_cache then "" else ", npn-cache on");
        let optima : (int, int) Hashtbl.t = Hashtbl.create 97 in
        let check_optimum name i r =
          match Stp_synth.Engine.gates r with
          | Some g -> (
            match Hashtbl.find_opt optima i with
            | None -> Hashtbl.replace optima i g
            | Some g0 ->
              if g0 <> g then
                Printf.eprintf
                  "[table1] WARNING: %s instance %d: %s found %d gates, \
                   others %d\n%!"
                  c.name i name g g0)
          | None -> ()
        in
        let aggs =
          List.map
            (fun (e : Runner.engine) ->
              let name = Runner.engine_name e in
              let on_instance i _f r =
                if cross_check then check_optimum name i r
              in
              let cache = List.assoc name caches in
              let agg =
                Runner.run_collection ~timeout ~jobs ?cache ~on_instance e
                  c.functions
              in
              Printf.eprintf
                "[table1]   %s: mean %.3fs, %d t/o, %d infeasible, %d ok, \
                 wall %.2fs (speedup %.2fx, cache %d/%d hits)\n%!"
                name agg.mean_time agg.timeouts agg.infeasible agg.solved
                agg.wall_time
                (Runner.speedup agg) agg.cache_hits
                (agg.cache_hits + agg.cache_misses);
              (match agg.Runner.profile with
               | Some p ->
                 Format.eprintf "[table1]   %s profile:@.%a@.%!" name
                   Stp_util.Profile.pp p
               | None -> ());
              agg)
            Runner.all_engines
        in
        (c.name, List.length c.functions, aggs))
      selected
  in
  (match store with
   | None -> ()
   | Some s ->
     let fresh, dup =
       List.fold_left
         (fun (fresh, dup) (section, cache) ->
           match cache with
           | None -> (fresh, dup)
           | Some c ->
             let st = Store.absorb s ~section c in
             (fresh + st.Store.absorbed, dup + st.Store.duplicates))
         (0, 0) caches
     in
     Store.flush s;
     let st = Store.stats s in
     Printf.eprintf
       "[table1] store: flushed %d classes (%d new, %d already known, %d \
        bytes) to %s\n%!"
       st.Store.classes fresh dup st.Store.flush_bytes (Store.path s));
  let table_rows = List.map (fun (name, _, aggs) -> (name, aggs)) rows in
  if csv then Stp_harness.Table.render_csv Format.std_formatter ~rows:table_rows
  else Stp_harness.Table.render Format.std_formatter ~rows:table_rows;
  match json_path with
  | "" -> ()
  | path ->
    let open Stp_harness.Report in
    write ~path
      ~meta:
        [ ("source", String "bin/table1");
          ("timeout_s", Float timeout);
          ("jobs", Int jobs);
          ("npn_cache", Bool (not no_npn_cache));
          ("store",
           match store with
           | None -> Null
           | Some s -> Store.stats_json s) ]
      ~rows;
    Printf.eprintf "[table1] wrote %s\n%!" path

let collections_arg =
  let doc =
    "Collections to run (npn4, fdsd6, fdsd8, pdsd6, pdsd8; also npn4all, \
     the all-65536-functions sweep that showcases the NPN cache); default: \
     the paper's five."
  in
  Arg.(value & opt_all string [] & info [ "c"; "collection" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc =
    "Instance-count scale: 0 = reduced defaults, 1 = paper scale, other \
     values multiply the paper's counts."
  in
  Arg.(value & opt float 0.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of the formatted table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let cross_arg =
  let doc = "Warn when two engines disagree on an instance's optimum size." in
  Arg.(value & flag & info [ "cross-check" ] ~doc)

let limit_arg =
  let doc =
    "Keep only the first $(docv) instances of each selected collection \
     (0 = all); for smoke runs and CI."
  in
  Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N" ~doc)

let cmd =
  let doc = "regenerate Table I of the paper" in
  Cmd.v
    (Cmd.info "table1" ~doc)
    Term.(
      const run $ collections_arg
      $ Cli.timeout ~doc:"Per-instance timeout in seconds (the paper used 180)."
          ()
      $ scale_arg $ Cli.jobs $ Cli.no_npn_cache
      $ Cli.json ~default:"BENCH_table1.json" ()
      $ csv_arg $ cross_arg $ Cli.profile $ limit_arg $ Cli.store
      $ Cli.trace $ Cli.metrics)

let () = exit (Cmd.eval cmd)
