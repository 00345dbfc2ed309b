(* Tests for the NPN-class synthesis cache: chains returned via a cache
   hit must simulate to the concrete target and carry the same optimum
   gate count as a cold synthesis; the cache must replay — not
   re-search — for further members of an already-solved class. *)

module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Engine = Stp_synth.Engine
module Stp_exact = Stp_synth.Stp_exact
module Npn_cache = Stp_synth.Npn_cache
module Deadline = Stp_util.Deadline
module Prng = Stp_util.Prng

(* The chains of a [Solved] outcome; any other outcome fails the test. *)
let chains_of what = function
  | Spec.Solved chains -> chains
  | Spec.Timeout -> Alcotest.failf "%s timed out" what
  | Spec.Infeasible -> Alcotest.failf "%s reported infeasible" what

let gates_of chains = Chain.size (List.hd chains)

let cold f = chains_of "cold" (Stp_exact.synthesize ~deadline:(Deadline.after 60.0) f)

(* The STP engine behind [cache]. *)
let cached ?(deadline = Deadline.after 60.0) cache f =
  let (module E : Engine.S) = Npn_cache.wrap cache Engine.stp in
  E.synthesize (Engine.spec f) ~deadline

let random_tt rng n =
  Tt.of_fun n (fun _ -> Prng.bool rng)

let random_transform rng n =
  let perms = Array.of_list (Npn.permutations n) in
  { Npn.perm = perms.(Prng.int rng (Array.length perms));
    input_neg = Prng.int rng (1 lsl n);
    output_neg = Prng.bool rng }

let test_hit_matches_cold_synthesis () =
  (* DSD-decomposable targets keep cold synthesis in the millisecond
     range; dense random 4-var functions can run for minutes. *)
  let rng = Prng.create 2024 in
  let targets = Stp_workloads.Dsd_gen.fdsd_collection ~n:4 ~count:6 ~seed:2024 in
  List.iter
    (fun f ->
      let cold = cold f in
      let cache = Npn_cache.create () in
      let miss = chains_of "miss" (cached cache f) in
      Alcotest.(check int) "miss optimum" (gates_of cold) (gates_of miss);
      (* A different member of the same class must be a replay. *)
      let g = Npn.apply f (random_transform rng 4) in
      let hit = chains_of "hit" (cached cache g) in
      Alcotest.(check int) "hit optimum == cold optimum" (gates_of cold)
        (gates_of hit);
      List.iter
        (fun c ->
          Alcotest.(check bool) "hit chain simulates to target" true
            (Tt.equal (Chain.simulate c) g))
        hit;
      let s = Npn_cache.stats cache in
      Alcotest.(check int) "one hit" 1 s.Npn_cache.hits;
      Alcotest.(check int) "one miss" 1 s.Npn_cache.misses;
      Alcotest.(check int) "no replay failures" 0 s.Npn_cache.failures)
    targets

let test_hit_count_matches_cold_count () =
  (* The replayed solution set has the same cardinality as a cold run on
     the same target: NPN transforms map the optimum chains of the first
     realised topology bijectively. *)
  let rng = Prng.create 4096 in
  let tried = ref 0 in
  while !tried < 4 do
    let f = random_tt rng 3 in
    if Tt.support_size f >= 2 then begin
      incr tried;
      let cache = Npn_cache.create () in
      (* Warm the cache with the class representative's orbit member. *)
      ignore (cached cache (Npn.apply f (random_transform rng 3)));
      let cold = cold f in
      let hit = chains_of "hit" (cached cache f) in
      Alcotest.(check int) "same optimum" (gates_of cold) (gates_of hit);
      Alcotest.(check int) "same number of optimum chains"
        (List.length cold) (List.length hit)
    end
  done

let test_many_members_one_synthesis () =
  (* Sweep a whole orbit: exactly one miss, everything else replays. *)
  let f = Tt.of_hex ~n:4 "8ff8" (* the paper's Example 7 function *) in
  let rng = Prng.create 7 in
  let members =
    f :: List.init 15 (fun _ -> Npn.apply f (random_transform rng 4))
  in
  let cache = Npn_cache.create () in
  let results = List.map (cached cache) members in
  List.iter2
    (fun m r ->
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates" true (Tt.equal (Chain.simulate c) m))
        (chains_of "member" r))
    members results;
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "one miss for the whole orbit" 1 s.Npn_cache.misses;
  Alcotest.(check int) "rest are hits" (List.length members - 1) s.Npn_cache.hits;
  Alcotest.(check int) "one class cached" 1 (Npn_cache.classes cache);
  Alcotest.(check (float 1e-9)) "hit rate" (15.0 /. 16.0) (Npn_cache.hit_rate cache)

let test_wide_support_bypasses () =
  (* 7-input read-once function: support exceeds the canonicalisation
     bound, so the cache steps aside and solves directly. *)
  let f =
    List.fold_left Tt.bor (Tt.var 7 0) (List.init 6 (fun i -> Tt.var 7 (i + 1)))
  in
  let cache = Npn_cache.create () in
  let r = chains_of "wide" (cached cache f) in
  Alcotest.(check int) "read-once optimum" 6 (gates_of r);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "bypassed" 1 s.Npn_cache.bypassed;
  Alcotest.(check int) "no lookups" 0 (s.Npn_cache.hits + s.Npn_cache.misses)

let test_trivial_targets_skip_cache () =
  let cache = Npn_cache.create () in
  let r = chains_of "projection" (cached cache (Tt.var 4 2)) in
  Alcotest.(check int) "gate-free" 0 (gates_of r);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "no lookups" 0
    (s.Npn_cache.hits + s.Npn_cache.misses + s.Npn_cache.bypassed)

let test_wrapped_baseline_agrees () =
  (* The cache is engine-generic: wrapping a CNF baseline must preserve
     its optima on class members. *)
  let f = Tt.of_hex ~n:4 "6996" (* xor4 *) in
  let cache = Npn_cache.create () in
  let (module E : Stp_synth.Engine.S) =
    Npn_cache.wrap cache Stp_synth.Engine.bms
  in
  let run g = E.synthesize (Engine.spec g) ~deadline:(Deadline.after 60.0) in
  let r1 = chains_of "bms miss" (run f) in
  let g = Npn.apply f { Npn.perm = [| 3; 1; 0; 2 |]; input_neg = 5; output_neg = true } in
  let r2 = chains_of "bms hit" (run g) in
  Alcotest.(check int) "same optimum" (gates_of r1) (gates_of r2);
  List.iter
    (fun c ->
      Alcotest.(check bool) "baseline replay simulates" true
        (Tt.equal (Chain.simulate c) g))
    r2;
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "hit" 1 s.Npn_cache.hits

let test_timeouts_not_cached () =
  (* [b4d2] needs ~4 gates and tens of milliseconds of search — far more
     than the 0.5 ms budget below, yet instant with a real one. *)
  let f = Tt.of_hex ~n:4 "b4d2" in
  let cache = Npn_cache.create () in
  let r = cached ~deadline:(Deadline.after 0.0005) cache f in
  Alcotest.(check bool) "timed out" true (r = Spec.Timeout);
  Alcotest.(check int) "nothing cached" 0 (Npn_cache.classes cache);
  (* With budget restored the same cache must now solve and store. *)
  ignore (chains_of "after timeout" (cached cache f));
  Alcotest.(check int) "class stored" 1 (Npn_cache.classes cache)

let test_known_timeouts_skip_solver () =
  (* A fake solver behind [wrap_solver] that counts its calls: it times
     out while [fail] is set and otherwise defers to the STP engine
     under a generous deadline. *)
  let calls = ref 0 and fail = ref true in
  let solver spec ~deadline:_ =
    incr calls;
    if !fail then Stp_synth.Engine.Timeout
    else
      let (module E : Stp_synth.Engine.S) = Stp_synth.Engine.stp in
      E.synthesize spec ~deadline:(Deadline.after 60.0)
  in
  let cache = Npn_cache.create () in
  let solve = Npn_cache.wrap_solver cache solver in
  let run deadline g = solve (Stp_synth.Engine.spec g) ~deadline in
  let f = Tt.of_hex ~n:4 "8ff8" in
  let rng = Prng.create 11 in
  let member () = Npn.apply f (random_transform rng 4) in
  let is_timeout = function Stp_synth.Engine.Timeout -> true | _ -> false in
  let after = Stp_util.Deadline.after in
  Alcotest.(check bool) "first try times out" true (is_timeout (run (after 0.25) f));
  Alcotest.(check int) "one solver call" 1 !calls;
  Alcotest.(check bool) "repeat at the same budget times out" true
    (is_timeout (run (after 0.25) (member ())));
  Alcotest.(check int) "repeat made no solver call" 1 !calls;
  Alcotest.(check int) "counted as a known timeout" 1
    (Npn_cache.stats cache).Npn_cache.known_timeouts;
  (* A larger budget solves again; the optimum replaces the failure. *)
  fail := false;
  let g = member () in
  (match run (after 0.5) g with
   | Stp_synth.Engine.Solved chains ->
     List.iter
       (fun c ->
         Alcotest.(check bool) "simulates" true (Tt.equal (Chain.simulate c) g))
       chains
   | _ -> Alcotest.fail "a larger budget must re-solve");
  Alcotest.(check int) "larger budget called the solver" 2 !calls;
  Alcotest.(check int) "class stored" 1 (Npn_cache.classes cache);
  (match run (after 0.25) (member ()) with
   | Stp_synth.Engine.Solved _ -> ()
   | _ -> Alcotest.fail "next member must replay");
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "next member is a hit" 1 s.Npn_cache.hits;
  Alcotest.(check int) "no further solver call" 2 !calls;
  Alcotest.(check int) "still one known timeout" 1 s.Npn_cache.known_timeouts;
  (* [Deadline.never] is never skipped, even after a timeout. *)
  let cache = Npn_cache.create () in
  let solve = Npn_cache.wrap_solver cache solver in
  fail := true;
  calls := 0;
  ignore (solve (Stp_synth.Engine.spec f) ~deadline:(after 0.25));
  ignore (solve (Stp_synth.Engine.spec f) ~deadline:Stp_util.Deadline.never);
  ignore (solve (Stp_synth.Engine.spec f) ~deadline:Stp_util.Deadline.never);
  Alcotest.(check int) "never always calls the solver" 3 !calls;
  Alcotest.(check int) "no known timeouts" 0
    (Npn_cache.stats cache).Npn_cache.known_timeouts

let () =
  Alcotest.run "npn_cache"
    [ ( "replay",
        [ Alcotest.test_case "hit matches cold synthesis" `Slow
            test_hit_matches_cold_synthesis;
          Alcotest.test_case "hit count matches cold count" `Quick
            test_hit_count_matches_cold_count;
          Alcotest.test_case "orbit sweep: one synthesis" `Quick
            test_many_members_one_synthesis;
          Alcotest.test_case "baseline wrap agrees" `Quick
            test_wrapped_baseline_agrees ] );
      ( "gating",
        [ Alcotest.test_case "wide support bypasses" `Quick
            test_wide_support_bypasses;
          Alcotest.test_case "trivial targets skip" `Quick
            test_trivial_targets_skip_cache;
          Alcotest.test_case "timeouts not cached" `Quick
            test_timeouts_not_cached;
          Alcotest.test_case "known timeouts skip the solver" `Quick
            test_known_timeouts_skip_solver ] ) ]
