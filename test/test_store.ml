(* Tests for the persistent NPN cache store and the batch synthesis
   daemon: save/load round-trips, corrupt-record rejection, concurrent
   flushes under the domain pool, and the daemon's request protocol
   including SIGTERM survival with a reloadable store. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Engine = Stp_synth.Engine
module Npn_cache = Stp_synth.Npn_cache
module Report = Stp_harness.Report
module Store = Stp_store.Store
module Daemon = Stp_store.Daemon

let solve_into cache f =
  let (module E : Engine.S) = Npn_cache.wrap cache Engine.stp in
  match
    E.synthesize (Engine.spec f) ~deadline:(Stp_util.Deadline.after 60.0)
  with
  | Engine.Solved _ -> ()
  | Engine.Timeout | Engine.Infeasible -> Alcotest.fail "expected Solved"

let temp_path () =
  let path = Filename.temp_file "stp_store_test" ".npn" in
  Sys.remove path;
  path

(* Four functions from four distinct NPN classes. *)
let targets =
  [ Tt.of_hex ~n:3 "e8";
    Tt.of_hex ~n:3 "96";
    Tt.of_hex ~n:4 "8ff8";
    Tt.of_hex ~n:4 "6996" ]

let populated_store path =
  let cache = Npn_cache.create () in
  List.iter (solve_into cache) targets;
  Alcotest.(check int) "four classes solved" 4 (Npn_cache.classes cache);
  let store = Store.create ~path in
  let ab = Store.absorb store ~section:"STP" cache in
  Alcotest.(check int) "all classes absorbed" 4 ab.Store.absorbed;
  Alcotest.(check int) "nothing already present" 0 ab.Store.duplicates;
  let again = Store.absorb store ~section:"STP" cache in
  Alcotest.(check int) "re-absorb is a no-op" 0 again.Store.absorbed;
  Alcotest.(check int) "re-absorb counts duplicates" 4 again.Store.duplicates;
  Store.flush store;
  store

let test_round_trip () =
  let path = temp_path () in
  ignore (populated_store path);
  let store = Store.load ~path in
  let st = Store.stats store in
  Alcotest.(check int) "classes survive the round trip" 4 st.Store.classes;
  Alcotest.(check int) "one section" 1 st.Store.sections;
  Alcotest.(check int) "nothing skipped" 0 st.Store.skipped;
  (* A cache seeded from the store must answer every target by replay. *)
  let cache = Npn_cache.create () in
  let sd = Store.seed store ~section:"STP" cache in
  Alcotest.(check int) "all classes seeded" 4 sd.Store.seeded;
  Alcotest.(check int) "none rejected" 0 sd.Store.seed_rejected;
  List.iter
    (fun f -> Alcotest.(check bool) "target is cached" true (Npn_cache.cached cache f))
    targets;
  List.iter (solve_into cache) targets;
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "warm run: zero solver calls" 0 s.Npn_cache.misses;
  Alcotest.(check int) "warm run: all hits" 4 s.Npn_cache.hits;
  Alcotest.(check int) "no replay failures" 0 s.Npn_cache.failures;
  Sys.remove path

let test_missing_file_is_empty () =
  let store = Store.load ~path:"/nonexistent/dir/stp.npn" in
  Alcotest.(check int) "no classes" 0 (Store.stats store).Store.classes

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_truncated_file () =
  let path = temp_path () in
  ignore (populated_store path);
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  let store = Store.load ~path in
  let st = Store.stats store in
  Alcotest.(check int) "only the cut record is lost" 3 st.Store.classes;
  Alcotest.(check int) "truncation counted" 1 st.Store.skipped;
  Sys.remove path

let test_bad_checksum () =
  let path = temp_path () in
  ignore (populated_store path);
  let bytes = Bytes.of_string (read_file path) in
  (* Offset 16 is the first payload byte of the first record (after the
     8-byte magic and the record's length + checksum words). *)
  Bytes.set bytes 16 (Char.chr (Char.code (Bytes.get bytes 16) lxor 0xff));
  write_file path (Bytes.to_string bytes);
  let store = Store.load ~path in
  let st = Store.stats store in
  Alcotest.(check int) "corrupt record skipped, rest kept" 3 st.Store.classes;
  Alcotest.(check int) "skip counted" 1 st.Store.skipped;
  Sys.remove path

let test_bad_magic () =
  let path = temp_path () in
  ignore (populated_store path);
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes 0 'X';
  write_file path (Bytes.to_string bytes);
  let store = Store.load ~path in
  Alcotest.(check int) "wrong magic loads nothing" 0
    (Store.stats store).Store.classes;
  Sys.remove path

let test_sanitised_seed_rejects_corruption () =
  (* Even a record that passes its checksum is re-validated at seed
     time: a wrong gate count or non-simulating chain must not poison
     the cache. *)
  let cache = Npn_cache.create () in
  List.iter (solve_into cache) targets;
  let entries = Npn_cache.entries cache in
  let corrupt = Npn_cache.create () in
  List.iter
    (fun (canon, (entry : Npn_cache.entry)) ->
      Alcotest.(check bool) "wrong gate count rejected" false
        (Npn_cache.add_entry corrupt canon
           { entry with Npn_cache.gates = entry.Npn_cache.gates + 1 }))
    entries;
  Alcotest.(check int) "nothing seeded" 0 (Npn_cache.classes corrupt)

let test_concurrent_flush_under_pool () =
  let path = temp_path () in
  let store = Store.create ~path in
  (* Eight domains race absorb+flush on one store; every intermediate
     file must stay a valid store and the final flush must hold every
     class. *)
  let sections = List.init 8 (fun i -> Printf.sprintf "S%d" i) in
  let results =
    Stp_parallel.Pool.map ~domains:4
      (fun section ->
        let cache = Npn_cache.create () in
        List.iter (solve_into cache) targets;
        let fresh = Store.absorb store ~section cache in
        Store.flush store;
        fresh.Store.absorbed)
      sections
  in
  List.iter (Alcotest.(check int) "each section absorbed its classes" 4) results;
  (* The on-disk file is some complete flush: valid, never torn. *)
  let mid = Store.load ~path in
  Alcotest.(check int) "no corrupt records after racing flushes" 0
    (Store.stats mid).Store.skipped;
  Store.flush store;
  let final = Store.load ~path in
  let st = Store.stats final in
  Alcotest.(check int) "final flush holds every class" 32 st.Store.classes;
  Alcotest.(check int) "all sections present" 8 st.Store.sections;
  Sys.remove path

(* {2 Append-mode persistence, compaction, merge} *)

let solve_cache fs =
  let cache = Npn_cache.create () in
  List.iter (solve_into cache) fs;
  cache

let seeded_classes store =
  let cache = Npn_cache.create () in
  ignore (Store.seed store ~section:"STP" cache);
  Npn_cache.classes cache

let test_append_round_trip () =
  let path = temp_path () in
  let store = Store.create ~path in
  (* Two batches. The first persist of a fresh store must write the
     header, so it is a rewrite; the second must append after the
     first extent without rewriting a byte of it. *)
  ignore
    (Store.absorb store ~section:"STP"
       (solve_cache [ List.nth targets 0; List.nth targets 1 ]));
  Store.append store;
  let first_size = (Store.stats store).Store.disk_bytes in
  let first_extent = read_file path in
  Alcotest.(check int) "fresh store persists via one header rewrite" 1
    (Store.stats store).Store.flushes;
  ignore
    (Store.absorb store ~section:"STP"
       (solve_cache [ List.nth targets 2; List.nth targets 3 ]));
  Store.append store;
  let st = Store.stats store in
  Alcotest.(check int) "second persist appended" 1 st.Store.appends;
  Alcotest.(check int) "second persist did not rewrite" 1 st.Store.flushes;
  Alcotest.(check bool) "second append grew the file" true
    (st.Store.disk_bytes > first_size);
  Alcotest.(check string) "first extent untouched by the append"
    first_extent
    (String.sub (read_file path) 0 first_size);
  (* Round-trip equivalence with a full rewrite of the same content. *)
  let reloaded = Store.load ~path in
  Alcotest.(check int) "appended store reloads all classes" 4
    (Store.stats reloaded).Store.classes;
  Alcotest.(check int) "no corrupt records" 0 (Store.stats reloaded).Store.skipped;
  let flushed_path = temp_path () in
  let flushed = populated_store flushed_path in
  Alcotest.(check int) "appended store seeds like a flushed one"
    (seeded_classes flushed) (seeded_classes reloaded);
  Sys.remove path;
  Sys.remove flushed_path

let test_append_truncates_torn_tail () =
  let path = temp_path () in
  let store = Store.create ~path in
  ignore
    (Store.absorb store ~section:"STP"
       (solve_cache [ List.nth targets 0; List.nth targets 1 ]));
  Store.append store;
  (* Tear the file mid-frame, as a crash during an append would. *)
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 7));
  let store = Store.load ~path in
  Alcotest.(check int) "one record survives the torn tail" 1
    (Store.stats store).Store.classes;
  (* The next append must truncate the torn frame before writing, so
     the new frame never lands mid-garbage. *)
  ignore
    (Store.absorb store ~section:"STP" (solve_cache [ List.nth targets 2 ]));
  Store.append store;
  let reloaded = Store.load ~path in
  let st = Store.stats reloaded in
  Alcotest.(check int) "torn tail replaced by clean frames" 2 st.Store.classes;
  Alcotest.(check int) "no corrupt frame left behind" 0 st.Store.skipped;
  Sys.remove path

let test_compaction_equivalence () =
  let path = temp_path () in
  let store = populated_store path in
  let before = seeded_classes store in
  (* Corrupt one frame on disk: the reload skips it and accounts the
     frame as dead bytes. *)
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes 16 (Char.chr (Char.code (Bytes.get bytes 16) lxor 0xff));
  write_file path (Bytes.to_string bytes);
  let corrupted = Store.load ~path in
  let st = Store.stats corrupted in
  Alcotest.(check int) "corrupt record skipped" 1 st.Store.skipped;
  Alcotest.(check int) "skip survives as live classes" (before - 1)
    st.Store.classes;
  Alcotest.(check bool) "corrupt frame counts as dead bytes" true
    (st.Store.dead_bytes > 0);
  (* Compaction drops the dead frame and keeps every live record. *)
  let c = Store.compact corrupted in
  Alcotest.(check bool) "compaction reclaimed the dead frame" true
    (c.Store.reclaimed > 0);
  let reloaded = Store.load ~path in
  let st = Store.stats reloaded in
  Alcotest.(check int) "compacted store is fully clean" 0 st.Store.skipped;
  Alcotest.(check int) "live classes preserved" (before - 1) st.Store.classes;
  Alcotest.(check int) "no dead bytes after compaction" 0 st.Store.dead_bytes;
  Alcotest.(check int) "seeds the same live classes" (before - 1)
    (seeded_classes reloaded);
  Sys.remove path

let test_merge_stores () =
  let path_a = temp_path () and path_b = temp_path () in
  let a = Store.create ~path:path_a in
  ignore
    (Store.absorb a ~section:"STP"
       (solve_cache [ List.nth targets 0; List.nth targets 1; List.nth targets 2 ]));
  Store.flush a;
  let b = Store.create ~path:path_b in
  ignore
    (Store.absorb b ~section:"STP"
       (solve_cache [ List.nth targets 1; List.nth targets 2; List.nth targets 3 ]));
  Store.flush b;
  let m = Store.merge_from a b in
  Alcotest.(check int) "one class is new" 1 m.Store.merged;
  Alcotest.(check int) "two already present" 2 m.Store.merge_duplicates;
  Alcotest.(check int) "equal-gate records never supersede" 0 m.Store.superseded;
  Store.flush a;
  let reloaded = Store.load ~path:path_a in
  Alcotest.(check int) "merged store holds the union" 4
    (Store.stats reloaded).Store.classes;
  Alcotest.(check int) "merge is idempotent" 0
    (Store.merge_from a b).Store.merged;
  Sys.remove path_a;
  Sys.remove path_b

let test_concurrent_absorb_while_compacting () =
  let path = temp_path () in
  let store = Store.create ~path in
  (* Half the domains absorb fresh sections and append; the other half
     compact concurrently. Every interleaving must leave a valid file
     holding every absorbed class. *)
  let jobs = List.init 8 (fun i -> i) in
  let results =
    Stp_parallel.Pool.map ~domains:4
      (fun i ->
        if i mod 2 = 0 then begin
          let cache = Npn_cache.create () in
          List.iter (solve_into cache) targets;
          let fresh =
            Store.absorb store ~section:(Printf.sprintf "S%d" i) cache
          in
          Store.append store;
          fresh.Store.absorbed
        end
        else begin
          ignore (Store.compact store);
          0
        end)
      jobs
  in
  Alcotest.(check int) "every absorb admitted its classes" 16
    (List.fold_left ( + ) 0 results);
  let mid = Store.load ~path in
  Alcotest.(check int) "no corrupt records mid-race" 0
    (Store.stats mid).Store.skipped;
  ignore (Store.compact store);
  let final = Store.load ~path in
  let st = Store.stats final in
  Alcotest.(check int) "final file holds every class" 16 st.Store.classes;
  Alcotest.(check int) "four sections present" 4 st.Store.sections;
  Alcotest.(check int) "clean after final compaction" 0 st.Store.skipped;
  Sys.remove path

(* {2 The daemon's request protocol (in-process)} *)

let get_string key json =
  match Report.member key json with
  | Some (Report.String s) -> Some s
  | _ -> None

let parse_response line =
  match Report.of_string line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let test_handle_solves () =
  let resp =
    parse_response
      (Daemon.handle Daemon.default_config [] (Daemon.request ~id:7 ~n:4 "8ff8"))
  in
  Alcotest.(check (option string)) "status" (Some "solved")
    (get_string "status" resp);
  Alcotest.(check (option string)) "source" (Some "solver")
    (get_string "source" resp);
  Alcotest.(check bool) "id echoed" true
    (Report.member "id" resp = Some (Report.Int 7));
  (match Report.member "gates" resp with
   | Some (Report.Int 3) -> ()
   | _ -> Alcotest.fail "8ff8 needs 3 gates");
  match Report.member "chains" resp with
  | Some (Report.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "chains missing"

let test_handle_cache_attribution () =
  let cache = Npn_cache.create () in
  solve_into cache (Tt.of_hex ~n:4 "8ff8");
  let resp =
    parse_response
      (Daemon.handle Daemon.default_config
         [ ("STP", cache) ]
         (Daemon.request ~n:4 "8ff8"))
  in
  Alcotest.(check (option string)) "cache-answered" (Some "cache")
    (get_string "source" resp)

let test_handle_degrades_on_timeout () =
  (* A dense 6-variable function under a microscopic deadline: the exact
     engine cannot finish, so the daemon must return the Shannon upper
     bound instead of an empty timeout. *)
  let resp =
    parse_response
      (Daemon.handle Daemon.default_config []
         (Daemon.request ~timeout:1e-6 ~n:6 "b4d2693996c85a17"))
  in
  Alcotest.(check (option string)) "degraded status" (Some "upper_bound")
    (get_string "status" resp);
  Alcotest.(check (option string)) "degraded source" (Some "upper_bound")
    (get_string "source" resp);
  match Report.member "gates" resp with
  | Some (Report.Int g) -> Alcotest.(check bool) "has gates" true (g > 0)
  | _ -> Alcotest.fail "upper bound carries a gate count"

(* Parse a chain as the daemon prints it ("x7=6(x1,x2); ...; f=!x9")
   back into a [Chain.t]. *)
let chain_of_compact ~n text =
  let steps = ref [] and output = ref None in
  List.iter
    (fun part ->
      match String.trim part with
      | "" -> ()
      | part when String.length part > 2 && String.sub part 0 2 = "f=" ->
        output :=
          Some
            (if part.[2] = '!' then Scanf.sscanf part "f=!x%d" (fun o -> (o - 1, true))
             else Scanf.sscanf part "f=x%d" (fun o -> (o - 1, false)))
      | part ->
        Scanf.sscanf part "x%d=%x(x%d,x%d)" (fun _ gate a b ->
            steps := { Chain.fanin1 = a - 1; fanin2 = b - 1; gate } :: !steps))
    (String.split_on_char ';' text);
  match !output with
  | Some (output, output_negated) ->
    Chain.make ~n ~steps:(List.rev !steps) ~output ~output_negated ()
  | None -> Alcotest.failf "chain %S has no output" text

let test_handle_skips_known_timeouts () =
  (* Two members of one hard 6-variable class under the same microscopic
     budget: the first times out in the solver, the second is answered
     from the cache's failure record. Both still get a verified upper
     bound for their own member. *)
  let f = Tt.of_hex ~n:6 "b4d2693996c85a17" in
  let g =
    Stp_tt.Npn.apply f
      { Stp_tt.Npn.perm = [| 2; 0; 5; 1; 4; 3 |]; input_neg = 0b101001;
        output_neg = true }
  in
  let cache = Npn_cache.create () in
  List.iter
    (fun member ->
      let resp =
        parse_response
          (Daemon.handle Daemon.default_config
             [ ("STP", cache) ]
             (Daemon.request ~timeout:1e-6 ~n:6 (Tt.to_hex member)))
      in
      Alcotest.(check (option string)) "degraded status" (Some "upper_bound")
        (get_string "status" resp);
      match Report.member "chains" resp with
      | Some (Report.List [ Report.String c ]) ->
        Alcotest.(check bool) "bound simulates to its member" true
          (Tt.equal (Chain.simulate (chain_of_compact ~n:6 c)) member)
      | _ -> Alcotest.fail "upper bound carries one chain")
    [ f; g ];
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "second member skipped the solver" 1
    s.Npn_cache.known_timeouts;
  Alcotest.(check int) "one solver call" 1 s.Npn_cache.misses;
  let stats =
    parse_response
      (Daemon.handle Daemon.default_config [ ("STP", cache) ]
         (Daemon.control "stats"))
  in
  let field name = function Some j -> Report.member name j | None -> None in
  Alcotest.(check bool) "stats reply: caches.STP.known_timeouts = 1" true
    (Some stats |> field "caches" |> field "STP" |> field "known_timeouts"
     = Some (Report.Int 1))

let test_handle_rejects_infinite_timeout () =
  (* [1e999] parses to infinity; an unbounded deadline would pin the
     worker, so the request is refused rather than solved. *)
  let resp =
    parse_response
      (Daemon.handle Daemon.default_config []
         {|{"n":4,"tt":"8ff8","timeout":1e999}|})
  in
  Alcotest.(check (option string)) "non-finite timeout" (Some "error")
    (get_string "status" resp)

let test_handle_rejects_malformed () =
  let status line = get_string "status" (parse_response (Daemon.handle Daemon.default_config [] line)) in
  Alcotest.(check (option string)) "bad JSON" (Some "error") (status "{nope");
  Alcotest.(check (option string)) "missing tt" (Some "error")
    (status {|{"n": 4}|});
  Alcotest.(check (option string)) "bad hex" (Some "error")
    (status {|{"n": 4, "tt": "xyzw"}|});
  Alcotest.(check (option string)) "bad unicode escape" (Some "error")
    (status {|{"tt":"\uZZZZ"}|});
  Alcotest.(check (option string)) "unknown engine" (Some "error")
    (status {|{"n": 4, "tt": "8ff8", "engine": "zchaff"}|})

let test_handle_infeasible_constant () =
  let resp =
    parse_response
      (Daemon.handle Daemon.default_config [] (Daemon.request ~n:3 "00"))
  in
  Alcotest.(check (option string)) "constant is infeasible" (Some "infeasible")
    (get_string "status" resp)

let () =
  Alcotest.run "store"
    [ ( "store",
        [ Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "missing file is empty" `Quick
            test_missing_file_is_empty;
          Alcotest.test_case "truncated file" `Quick test_truncated_file;
          Alcotest.test_case "bad checksum" `Quick test_bad_checksum;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "seed sanitises entries" `Quick
            test_sanitised_seed_rejects_corruption;
          Alcotest.test_case "concurrent flush under pool" `Slow
            test_concurrent_flush_under_pool ] );
      ( "append",
        [ Alcotest.test_case "append round trip" `Quick test_append_round_trip;
          Alcotest.test_case "append truncates a torn tail" `Quick
            test_append_truncates_torn_tail;
          Alcotest.test_case "compaction preserves live records" `Quick
            test_compaction_equivalence;
          Alcotest.test_case "merge folds stores" `Quick test_merge_stores;
          Alcotest.test_case "concurrent absorb while compacting" `Slow
            test_concurrent_absorb_while_compacting ] );
      ( "protocol",
        [ Alcotest.test_case "solves a request" `Quick test_handle_solves;
          Alcotest.test_case "attributes cache answers" `Quick
            test_handle_cache_attribution;
          Alcotest.test_case "degrades to an upper bound" `Quick
            test_handle_degrades_on_timeout;
          Alcotest.test_case "skips known timeouts" `Quick
            test_handle_skips_known_timeouts;
          Alcotest.test_case "rejects malformed requests" `Quick
            test_handle_rejects_malformed;
          Alcotest.test_case "rejects a non-finite timeout" `Quick
            test_handle_rejects_infinite_timeout;
          Alcotest.test_case "constants are infeasible" `Quick
            test_handle_infeasible_constant ] ) ]
