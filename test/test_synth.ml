(* Tests for the STP factorisation engine, the full synthesis loop and
   the three baselines: correctness of decompositions, known optima,
   all-solutions completeness on brute-forceable cases, and agreement
   between engines. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Factor = Stp_synth.Factor
module Spec = Stp_synth.Spec
module Stp_exact = Stp_synth.Stp_exact
module Baselines = Stp_synth.Baselines
module Dag = Stp_topology.Dag
module Prng = Stp_util.Prng

module Deadline = Stp_util.Deadline
module Engine = Stp_synth.Engine
module Npn_cache = Stp_synth.Npn_cache

(* The chains of a [Solved] outcome; any other outcome fails the test. *)
let chains_of name = function
  | Spec.Solved chains -> chains
  | Spec.Timeout -> Alcotest.failf "%s timed out" name
  | Spec.Infeasible -> Alcotest.failf "%s reported infeasible" name

let gates_of chains = Chain.size (List.hd chains)

let stp ?options f =
  Stp_exact.synthesize ?options ~deadline:(Deadline.after 30.0) f

(* --- decompose --- *)

let test_decompose_disjoint () =
  (* 0x8ff8 = OR(AND over {a,b}, XOR over {c,d}) *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let triples =
    Factor.decompose ~cap:1000 ~target:f ~amask:0b0011 ~bmask:0b1100 ()
  in
  Alcotest.(check bool) "found" true (triples <> []);
  List.iter
    (fun { Factor.phi; g; h } ->
      (* supports respected *)
      Alcotest.(check int) "g side" 0 (Tt.support_mask g land 0b1100);
      Alcotest.(check int) "h side" 0 (Tt.support_mask h land 0b0011);
      (* recomposition *)
      let recomposed = Tt.apply2 phi g h in
      Alcotest.(check bool) "phi(g,h) = f" true (Tt.equal recomposed f))
    triples

let test_decompose_rejects () =
  (* parity cannot split with a support-violating cover *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  Alcotest.(check (list unit)) "support not covered" []
    (List.map ignore
       (Factor.decompose ~cap:10 ~target:f ~amask:0b0011 ~bmask:0b0100 ()))

let test_decompose_overlapping () =
  (* MAJ3 = phi(g over {a,b}, h over {a? b? c}) requires overlap: check
     that overlapping factorisations recompose correctly *)
  let maj = Tt.of_hex ~n:3 "e8" in
  let triples =
    Factor.decompose ~cap:1000 ~target:maj ~amask:0b011 ~bmask:0b111 ()
  in
  List.iter
    (fun { Factor.phi; g; h } ->
      Alcotest.(check bool) "recomposes" true
        (Tt.equal (Tt.apply2 phi g h) maj))
    triples

let test_decompose_fixed_side () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  let g0 = Tt.band (Tt.var 4 0) (Tt.var 4 1) in
  let triples =
    Factor.decompose ~g_fixed:g0 ~cap:1000 ~target:f ~amask:0b0011
      ~bmask:0b1100 ()
  in
  Alcotest.(check bool) "found with fixed g" true (triples <> []);
  List.iter
    (fun { Factor.phi; g; h } ->
      Alcotest.(check bool) "g pinned" true (Tt.equal g g0);
      Alcotest.(check bool) "recomposes" true (Tt.equal (Tt.apply2 phi g h) f))
    triples

let test_decompose_exhaustive () =
  (* Completeness of the packed block solver: on 4-variable targets with
     the disjoint cover {a,b} | {c,d}, compare against direct enumeration
     of every (phi, g, h) with non-constant sides. Half the targets are
     built to factor, so both empty and non-empty answers are checked —
     including that the sharpened quartering reject never drops a
     solution. *)
  let nontrivial = Stp_chain.Gate.nontrivial in
  let rng = Prng.create 2024 in
  let g_of gv = Tt.of_fun 4 (fun m -> (gv lsr (m land 3)) land 1 = 1) in
  let h_of hv = Tt.of_fun 4 (fun m -> (hv lsr (m lsr 2)) land 1 = 1) in
  for i = 1 to 30 do
    let f =
      if i mod 2 = 0 then Tt.of_int 4 (Prng.int rng 0x10000)
      else
        Tt.apply2
          (List.nth nontrivial (Prng.int rng (List.length nontrivial)))
          (g_of (1 + Prng.int rng 14))
          (h_of (1 + Prng.int rng 14))
    in
    let got =
      Factor.decompose ~cap:100000 ~target:f ~amask:0b0011 ~bmask:0b1100 ()
      |> List.map (fun { Factor.phi; g; h } -> (phi, Tt.to_hex g, Tt.to_hex h))
      |> List.sort compare
    in
    let expected = ref [] in
    List.iter
      (fun phi ->
        for gv = 1 to 14 do
          for hv = 1 to 14 do
            let g = g_of gv and h = h_of hv in
            if Tt.equal (Tt.apply2 phi g h) f then
              expected := (phi, Tt.to_hex g, Tt.to_hex h) :: !expected
          done
        done)
      nontrivial;
    let expected = List.sort compare !expected in
    Alcotest.(check (list (triple int string string))) "same solution set"
      expected got
  done

let test_decompose_memo_regression () =
  (* The cached value is the full enumeration, truncated per call: the
     answer for a given cap must not depend on which cap populated the
     entry, and a cache hit must return the same list. *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let key { Factor.phi; g; h } = (phi, Tt.to_hex g, Tt.to_hex h) in
  let call memo cap =
    List.map key
      (Factor.decompose ~memo ~cap ~target:f ~amask:0b0011 ~bmask:0b1100 ())
  in
  let m1 = Factor.create_memo () in
  let full1 = call m1 1000 in
  let capped1 = call m1 3 in
  let m2 = Factor.create_memo () in
  let capped2 = call m2 3 in
  let full2 = call m2 1000 in
  let tst = Alcotest.(list (triple int string string)) in
  Alcotest.check tst "full independent of call order" full1 full2;
  Alcotest.check tst "capped independent of call order" capped1 capped2;
  Alcotest.check tst "cap truncates the full enumeration" capped1
    (List.filteri (fun i _ -> i < 3) full1);
  Alcotest.check tst "cache hit returns the same list" full1 (call m1 1000);
  Alcotest.check tst "memoised = unmemoised" full1
    (List.map key
       (Factor.decompose ~cap:1000 ~target:f ~amask:0b0011 ~bmask:0b1100 ()))

(* --- decompose against the list-based reference engine --- *)

let tst = Alcotest.(list (triple int string string))
let key { Factor.phi; g; h } = (phi, Tt.to_hex g, Tt.to_hex h)
let oracle_key { Decompose_oracle.phi; g; h } = (phi, Tt.to_hex g, Tt.to_hex h)

(* [Factor.decompose] must emit exactly the reference engine's triples,
   in the same order (the capped prefix and memo contents depend on it).
   Returns the number of triples, so callers can check that a sample
   was not vacuous. *)
let agrees ?memo ?basis ?g_fixed ?h_fixed ~cap ~target ~amask ~bmask msg =
  let expected =
    List.map oracle_key
      (Decompose_oracle.decompose ?basis ?g_fixed ?h_fixed ~cap ~target
         ~amask ~bmask ())
  in
  Alcotest.check tst msg expected
    (List.map key
       (Factor.decompose ?memo ?g_fixed ?h_fixed ~cap ~target ~amask ~bmask
          ()));
  List.length expected

(* A random function of [n] variables whose support lies inside [mask]. *)
let random_over rng n mask =
  let tbl = Array.init (1 lsl n) (fun _ -> Prng.bool rng) in
  Tt.of_fun n (fun m -> tbl.(m land mask))

let random_subset rng n k =
  let vars = Array.init n Fun.id in
  Prng.shuffle rng vars;
  Array.fold_left ( lor ) 0
    (Array.map (fun v -> 1 lsl v) (Array.sub vars 0 k))

let test_oracle_small () =
  (* Random targets and masks on 3-6 variables (every side fits one
     machine word), with and without a memo. *)
  let rng = Prng.create 4711 in
  let memo = Factor.create_memo () in
  let found = ref 0 in
  for _ = 1 to 120 do
    let n = 3 + Prng.int rng 4 in
    let target = Tt.of_fun n (fun _ -> Prng.bool rng) in
    let full = (1 lsl n) - 1 in
    let amask = 1 + Prng.int rng full in
    let bmask = 1 + Prng.int rng full in
    found := !found + agrees ~cap:4096 ~target ~amask ~bmask "no memo";
    ignore (agrees ~memo ~cap:4096 ~target ~amask ~bmask "memo");
    ignore (agrees ~memo ~cap:5 ~target ~amask ~bmask "memo, capped")
  done;
  Alcotest.(check bool) "some covers factor" true (!found > 0)

let test_oracle_wide () =
  (* 7- and 8-variable targets built as phi(g over A, h over B) with A
     of 6, 7 or 8 variables; B is either the complement of A (disjoint,
     through the quartering test) or a random set overlapping it. *)
  let rng = Prng.create 2024 in
  let found = ref 0 in
  for i = 0 to 17 do
    let k = 6 + (i mod 3) in
    let n = max k (7 + Prng.int rng 2) in
    let amask = random_subset rng n k in
    let rest = ((1 lsl n) - 1) land lnot amask in
    let bmask =
      if rest <> 0 && i mod 2 = 0 then rest
      else rest lor random_subset rng n (1 + Prng.int rng 3)
    in
    let phi = List.nth Stp_chain.Gate.nontrivial (Prng.int rng 10) in
    let target =
      Tt.apply2 phi (random_over rng n amask) (random_over rng n bmask)
    in
    found := !found + agrees ~cap:64 ~target ~amask ~bmask "wide cover";
    (* an unrelated random target on the same cover *)
    ignore
      (agrees ~cap:64
         ~target:(Tt.of_fun n (fun _ -> Prng.bool rng))
         ~amask ~bmask "random target")
  done;
  Alcotest.(check bool) "planted decompositions found" true (!found > 0)

let test_oracle_fixed_overlap () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  let g0 = Tt.band (Tt.var 4 0) (Tt.var 4 1) in
  let n =
    agrees ~g_fixed:g0 ~cap:4096 ~target:f ~amask:0b0011 ~bmask:0b1111
      "fixed g, overlapping cover"
  in
  Alcotest.(check bool) "fixed-side cover solvable" true (n > 0);
  (* Pin each side to a factor of a solution and to a random function,
     on overlapping and disjoint covers of 4-8 variable targets. *)
  let rng = Prng.create 99 in
  let found = ref 0 in
  for _ = 1 to 40 do
    let n = 4 + Prng.int rng 5 in
    let full = (1 lsl n) - 1 in
    let amask = 1 + Prng.int rng full in
    let bmask = (full land lnot amask) lor Prng.int rng (full + 1) in
    let phi = List.nth Stp_chain.Gate.nontrivial (Prng.int rng 10) in
    let g = random_over rng n amask and h = random_over rng n bmask in
    let target = Tt.apply2 phi g h in
    let cap = 256 in
    found :=
      !found + agrees ~g_fixed:g ~cap ~target ~amask ~bmask "g pinned to a factor";
    found :=
      !found + agrees ~h_fixed:h ~cap ~target ~amask ~bmask "h pinned to a factor";
    ignore
      (agrees ~g_fixed:g ~h_fixed:h ~cap ~target ~amask ~bmask "both pinned");
    ignore
      (agrees ~h_fixed:(random_over rng n bmask) ~cap ~target ~amask ~bmask
         "h pinned at random")
  done;
  Alcotest.(check bool) "pinned factors found" true (!found > 0)

let test_oracle_basis () =
  let basis = [ 1; 2; 4; 7; 8; 11; 13; 14 ] in
  let memo = Factor.create_memo ~basis () in
  let rng = Prng.create 31337 in
  let found = ref 0 in
  for _ = 1 to 80 do
    let n = 3 + Prng.int rng 3 in
    let full = (1 lsl n) - 1 in
    let amask = 1 + Prng.int rng full in
    let bmask = (full land lnot amask) lor Prng.int rng (full + 1) in
    let phi = List.nth Stp_chain.Gate.nontrivial (Prng.int rng 10) in
    let target =
      Tt.apply2 phi (random_over rng n amask) (random_over rng n bmask)
    in
    found :=
      !found + agrees ~memo ~basis ~cap:128 ~target ~amask ~bmask "AND basis"
  done;
  Alcotest.(check bool) "AND-basis factors found" true (!found > 0)

(* A 13-variable table (128 words) whose support is 6 variables,
   XOR3 AND OR-of-AND, split 3 + 3. *)
let wide13 () =
  let v = Tt.var 13 in
  Tt.band
    (Tt.bxor (v 0) (Tt.bxor (v 5) (v 12)))
    (Tt.bor (v 2) (Tt.band (v 7) (v 9)))

let test_oracle_13_vars () =
  let target = wide13 () in
  let amask = (1 lsl 0) lor (1 lsl 5) lor (1 lsl 12) in
  let bmask = (1 lsl 2) lor (1 lsl 7) lor (1 lsl 9) in
  let n = agrees ~cap:4096 ~target ~amask ~bmask "13-variable target" in
  Alcotest.(check bool) "13-variable target factors" true (n > 0);
  ignore
    (agrees ~cap:4096 ~target ~amask:(amask lor 0b10) ~bmask:(bmask lor 0b10)
       "13-variable target, overlapping")

let test_oracle_arena () =
  (* Small covers, then calls that outgrow the first arena (8-variable
     sides, a 13-variable table), then the small covers again: the grown
     arena must give the same answers. *)
  let small msg =
    let f = Tt.of_hex ~n:4 "8ff8" in
    ignore (agrees ~cap:4096 ~target:f ~amask:0b0011 ~bmask:0b1100 msg);
    ignore (agrees ~cap:4096 ~target:f ~amask:0b0111 ~bmask:0b1110 msg)
  in
  small "small covers before growth";
  let rng = Prng.create 5 in
  let target8 =
    Tt.apply2 7 (random_over rng 8 0xff) (random_over rng 8 0x0f)
  in
  ignore (agrees ~cap:64 ~target:target8 ~amask:0xff ~bmask:0x0f "8-var side");
  ignore
    (agrees ~cap:64 ~target:(wide13 ()) ~amask:0x1fff ~bmask:0x0284
       "13-var side");
  small "small covers after growth"

let qcheck_decompose_sound =
  QCheck.Test.make ~name:"decompose recomposes (random targets/covers)"
    ~count:150
    QCheck.(pair (int_bound 0xffff) (int_bound 1000))
    (fun (v, seed) ->
      let rng = Prng.create seed in
      let f = Tt.of_int 4 v in
      let amask = 1 + Prng.int rng 14 in
      let bmask = 1 + Prng.int rng 14 in
      let triples = Factor.decompose ~cap:64 ~target:f ~amask ~bmask () in
      List.for_all
        (fun { Factor.phi; g; h } ->
          Tt.equal (Tt.apply2 phi g h) f
          && Tt.support_mask g land lnot amask = 0
          && Tt.support_mask h land lnot bmask = 0
          && (not (Tt.is_const g))
          && not (Tt.is_const h))
        triples)

(* --- solve_shape --- *)

let test_solve_shape_xor3 () =
  let xor3 = Tt.of_hex ~n:3 "96" in
  let total = ref 0 in
  Dag.iter 2 (fun shape ->
      let chains = Factor.solve_shape ~cap:100 ~shape ~target:xor3 () in
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates xor3" true
            (Tt.equal (Chain.simulate c) xor3))
        chains;
      total := !total + List.length chains);
  (* 3 variants of the leaf split x 2 polarities = 6 *)
  Alcotest.(check int) "xor3 solutions" 6 !total

let test_solve_shape_wrong_size () =
  let xor3 = Tt.of_hex ~n:3 "96" in
  Dag.iter 1 (fun shape ->
      Alcotest.(check (list unit)) "no 1-gate chain" []
        (List.map ignore (Factor.solve_shape ~cap:10 ~shape ~target:xor3 ())))

let test_learned_cache_permutation () =
  (* Learned cover refutations and survivor sets are keyed by
     (target, cover, capability signature), so entries recorded while
     solving one shape are replayed while solving another. The replay
     must be invisible: solving the same shapes in a different order —
     hitting the learned entries from a different population history —
     must produce exactly the same chains per shape. *)
  let chain_key c =
    Format.asprintf "%a" Chain.pp_compact (Chain.normalise_fanin_order c)
  in
  let targets = [ Tt.of_hex ~n:4 "8ff8"; Tt.of_hex ~n:4 "1ee6" ] in
  let shapes = Dag.enumerate 3 in
  List.iter
    (fun target ->
      let solve memo shape =
        List.sort compare
          (List.map chain_key
             (Factor.solve_shape ~memo ~cap:1000 ~shape ~target ()))
      in
      let fwd_memo = Factor.create_memo () in
      let fwd = List.map (solve fwd_memo) shapes in
      let rev_memo = Factor.create_memo () in
      let rev = List.rev (List.map (solve rev_memo) (List.rev shapes)) in
      let fresh =
        List.map (fun s -> solve (Factor.create_memo ()) s) shapes
      in
      let tst = Alcotest.(list (list string)) in
      Alcotest.check tst "reverse call order = forward" fwd rev;
      Alcotest.check tst "shared memo = fresh memos" fresh fwd)
    targets

(* --- full synthesis: known optima --- *)

let known_optima =
  [ ("xor3", Tt.of_hex ~n:3 "96", 2);
    ("maj3", Tt.of_hex ~n:3 "e8", 4);
    ("mux", Tt.of_hex ~n:3 "ca", 3);
    ("and4", Tt.of_hex ~n:4 "8000", 3);
    ("or4", Tt.of_hex ~n:4 "fffe", 3);
    ("xor4", Tt.of_hex ~n:4 "6996", 3);
    ("paper 0x8ff8", Tt.of_hex ~n:4 "8ff8", 3);
    ("and2", Tt.of_hex ~n:2 "8", 1) ]

let test_stp_known_optima () =
  List.iter
    (fun (name, f, expected) ->
      let chains = chains_of name (stp f) in
      Alcotest.(check int) (name ^ " optimum") expected (gates_of chains);
      List.iter
        (fun c ->
          Alcotest.(check bool) (name ^ " chain correct") true
            (Tt.equal (Chain.simulate c) f))
        chains)
    known_optima

let baselines =
  [ ("BMS", Baselines.bms); ("FEN", Baselines.fen); ("ABC", Baselines.abc) ]

let test_baselines_known_optima () =
  List.iter
    (fun (engine_name, (engine : Baselines.engine)) ->
      List.iter
        (fun (name, f, expected) ->
          let name = engine_name ^ " " ^ name in
          let chains =
            chains_of name (engine ~deadline:(Deadline.after 30.0) f)
          in
          Alcotest.(check int) (name ^ " optimum") expected (gates_of chains);
          List.iter
            (fun c ->
              Alcotest.(check bool) "chain correct" true
                (Tt.equal (Chain.simulate c) f))
            chains)
        known_optima)
    baselines

let test_trivial_targets () =
  (* literals need zero gates in every engine *)
  let lit = Tt.var 4 2 in
  List.iter
    (fun r ->
      let chains = chains_of "literal" r in
      Alcotest.(check int) "0 gates" 0 (gates_of chains);
      Alcotest.(check bool) "simulates" true
        (Tt.equal (Chain.simulate (List.hd chains)) lit))
    (Stp_exact.synthesize ~deadline:Deadline.never lit
     :: List.map
          (fun (_, (engine : Baselines.engine)) ->
            engine ~deadline:Deadline.never lit)
          baselines);
  (* complemented literal *)
  let nlit = Tt.bnot (Tt.var 3 0) in
  let chains =
    chains_of "negated literal" (Stp_exact.synthesize ~deadline:Deadline.never nlit)
  in
  Alcotest.(check int) "0 gates" 0 (gates_of chains);
  Alcotest.(check bool) "simulates" true
    (Tt.equal (Chain.simulate (List.hd chains)) nlit)

let test_constant_rejected () =
  (* a constant has no Boolean chain: an answer, not an exception *)
  List.iter
    (fun f ->
      match Stp_exact.synthesize ~deadline:Deadline.never f with
      | Spec.Infeasible -> ()
      | Spec.Solved _ | Spec.Timeout ->
        Alcotest.fail "constant target not reported Infeasible")
    [ Tt.zero 3; Tt.one 3 ]

let test_engines_agree_random () =
  (* On random 3-input functions every baseline must report the same
     optimum gate count as the STP engine, with a chain that computes
     the target. *)
  let rng = Prng.create 51 in
  for _ = 1 to 15 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 1 then begin
      let stp = chains_of "stp" (stp f) in
      List.iter
        (fun (name, (engine : Baselines.engine)) ->
          let chains =
            chains_of name (engine ~deadline:(Deadline.after 30.0) f)
          in
          Alcotest.(check int) (name ^ " same optimum") (gates_of stp)
            (gates_of chains);
          List.iter
            (fun c ->
              Alcotest.(check bool) (name ^ " chain correct") true
                (Tt.equal (Chain.simulate c) f))
            chains)
        baselines
    end
  done

let test_all_solutions_distinct_and_verified () =
  let f = Tt.of_hex ~n:3 "e8" in
  let chains =
    chains_of "maj" (Stp_exact.synthesize ~deadline:Deadline.never f)
  in
  let keys =
    List.map
      (fun c -> Format.asprintf "%a" Chain.pp_compact (Chain.normalise_fanin_order c))
      chains
  in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "no duplicates" (List.length keys) (List.length distinct);
  List.iter
    (fun c ->
      Alcotest.(check bool) "verified" true
        (Stp_circuitsat.Circuit_solver.verify_chain c f);
      Alcotest.(check int) "optimal size" (gates_of chains) (Chain.size c))
    chains

let test_all_solutions_superset_of_example7 () =
  (* the two chains of the paper's Example 7 must be among the
     all-solutions output for 0x8ff8 *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let chains =
    chains_of "8ff8" (Stp_exact.synthesize ~deadline:Deadline.never f)
  in
  let normalised =
    List.map
      (fun c -> Format.asprintf "%a" Chain.pp_compact (Chain.normalise_fanin_order c))
      chains
  in
  let expect_chain steps =
    let c = Chain.make ~n:4 ~steps ~output:6 () in
    let key =
      Format.asprintf "%a" Chain.pp_compact (Chain.normalise_fanin_order c)
    in
    (* solution sets are order-insensitive; membership up to the shape's
       step permutation is checked by simulating instead when absent *)
    List.mem key normalised
    || List.exists
         (fun c' -> Tt.equal (Chain.simulate c') (Chain.simulate c))
         chains
  in
  Alcotest.(check bool) "Example 7 variant 1" true
    (expect_chain
       [ { Chain.fanin1 = 2; fanin2 = 3; gate = 6 };
         { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
         { Chain.fanin1 = 4; fanin2 = 5; gate = 14 } ]);
  Alcotest.(check bool) "Example 7 variant 2" true
    (expect_chain
       [ { Chain.fanin1 = 2; fanin2 = 3; gate = 9 };
         { Chain.fanin1 = 0; fanin2 = 1; gate = 7 };
         { Chain.fanin1 = 4; fanin2 = 5; gate = 7 } ])

let test_support_reduction () =
  (* a 6-variable function with 3-variable support synthesises like its
     compacted form, with correctly relabelled inputs *)
  let core = Tt.of_hex ~n:3 "96" in
  let f = Tt.expand core 6 [| 1; 3; 5 |] in
  let chains =
    chains_of "embedded xor3" (Stp_exact.synthesize ~deadline:Deadline.never f)
  in
  Alcotest.(check int) "2 gates" 2 (gates_of chains);
  List.iter
    (fun c ->
      Alcotest.(check int) "over 6 vars" 6 c.Chain.n;
      Alcotest.(check bool) "simulates" true (Tt.equal (Chain.simulate c) f))
    chains

let test_timeout_reported () =
  (* an extremely tight deadline must yield a clean timeout *)
  let f = Tt.of_hex ~n:4 "1ee6" in
  match Stp_exact.synthesize ~deadline:(Deadline.after 0.001) f with
  | Spec.Timeout -> ()
  | Spec.Solved _ | Spec.Infeasible -> Alcotest.fail "expected Timeout"

let test_deadline_binds () =
  (* An 8-variable prime target with DSD peeling off keeps the STP
     search inside long factorisation calls between polls; a 1 s
     deadline must still end the run within 1.2 s. *)
  let f = Stp_workloads.Dsd_gen.pdsd ~n:8 ~seed:1000 in
  let options = { Spec.default_options with Spec.use_dsd = false } in
  let t0 = Stp_util.Unix_time.now () in
  let r = Stp_exact.synthesize ~options ~deadline:(Deadline.after 1.0) f in
  let wall = Stp_util.Unix_time.now () -. t0 in
  Alcotest.(check bool) "timeout" true (r = Spec.Timeout);
  if wall >= 1.2 then
    Alcotest.failf "1 s deadline returned after %.2f s" wall

(* --- step (iv): Common.optimal_and_verified --- *)

module Common = Stp_synth.Common

let example7_steps =
  [ { Chain.fanin1 = 2; fanin2 = 3; gate = 6 };
    { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
    { Chain.fanin1 = 4; fanin2 = 5; gate = 14 } ]

let test_verify_expired_deadline () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  let c = Chain.make ~n:4 ~steps:example7_steps ~output:6 () in
  let expired = Deadline.after (-1.0) in
  Alcotest.check_raises "non-empty batch" Deadline.Timeout (fun () ->
      ignore (Common.optimal_and_verified ~deadline:expired f [ c ]));
  Alcotest.(check int) "empty batch polls nothing" 0
    (List.length (Common.optimal_and_verified ~deadline:expired f []))

let test_verify_session_soundness () =
  (* The flipped copy (top OR turned into AND) shares both sub-cones of
     the Example 7 chain; whichever order they come in, only the correct
     chain survives. *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let good = Chain.make ~n:4 ~steps:example7_steps ~output:6 () in
  let flipped =
    Chain.make ~n:4
      ~steps:
        (List.mapi
           (fun i s -> if i = 2 then { s with Chain.gate = 8 } else s)
           example7_steps)
      ~output:6 ()
  in
  List.iter
    (fun batch ->
      let kept = Common.optimal_and_verified f batch in
      Alcotest.(check int) "one survivor" 1 (List.length kept);
      Alcotest.(check bool) "the correct chain" true
        (Chain.equal (List.hd kept) good))
    [ [ good; flipped ]; [ flipped; good ]; [ flipped; good; flipped; good ] ]

let test_verify_calls_do_not_share () =
  (* The same step records mean different cones at n = 3 (signal 3 is a
     gate) and n = 4 (signal 3 is an input); back-to-back calls must each
     verify against their own arity. *)
  let steps =
    [ { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
      { Chain.fanin1 = 2; fanin2 = 3; gate = 6 } ]
  in
  for _ = 1 to 2 do
    List.iter
      (fun n ->
        let c = Chain.make ~n ~steps ~output:(n + 1) () in
        let f = Chain.simulate c in
        Alcotest.(check int) "kept at its arity" 1
          (List.length (Common.optimal_and_verified f [ c ]));
        Alcotest.(check int) "complement rejected" 0
          (List.length (Common.optimal_and_verified (Tt.bnot f) [ c ])))
      [ 3; 4; 3 ]
  done

let test_deadline_binds_through_verification () =
  (* DSD peeling of an 8-variable PDSD target with 2000 optimum chains
     spends much of its run verifying composed chains. Deadlines that
     expire anywhere in the run, verification included, must each end
     it within 0.05 s. The budgets are shares of the fastest of three
     full runs; a run that beats that calibration may still answer, but
     only inside its budget, and the smallest budget must time out. *)
  let f = Stp_workloads.Dsd_gen.pdsd ~n:8 ~seed:1008 in
  let run deadline =
    let t0 = Stp_util.Unix_time.now () in
    let r = Stp_exact.synthesize ~deadline f in
    (r, Stp_util.Unix_time.now () -. t0)
  in
  let full =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           match run Deadline.never with
           | Spec.Solved _, wall -> wall
           | _ -> Alcotest.fail "pdsd8 target unsolved without a deadline"))
  in
  List.iteri
    (fun i share ->
      let budget = share *. full in
      match run (Deadline.after budget) with
      | Spec.Timeout, wall when wall <= budget +. 0.05 -> ()
      | Spec.Timeout, wall ->
        Alcotest.failf "%.3f s deadline returned after %.3f s" budget wall
      | Spec.Solved _, wall when i > 0 && wall <= budget -> ()
      | _, wall ->
        Alcotest.failf "no Timeout under %.3f s (answered after %.3f s)" budget
          wall)
    [ 0.1; 0.2; 0.3; 0.4; 0.5 ]

(* NPN reuse goes through [Npn_cache]: a class member solved via its
   canonical representative must reach the direct optimum. *)
let npn_stp f =
  let (module E : Engine.S) = Npn_cache.wrap (Npn_cache.create ()) Engine.stp in
  E.synthesize (Engine.spec f) ~deadline:(Deadline.after 30.0)

let test_npn_route_agrees () =
  let rng = Prng.create 57 in
  for _ = 1 to 8 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      let direct = chains_of "direct" (stp f) in
      let via_npn = chains_of "npn" (npn_stp f) in
      Alcotest.(check int) "same optimum" (gates_of direct) (gates_of via_npn);
      List.iter
        (fun c ->
          Alcotest.(check bool) "npn chain simulates" true
            (Tt.equal (Chain.simulate c) f))
        via_npn
    end
  done

let test_npn_route_wide () =
  (* beyond canonicalisation arity the NPN route solves directly *)
  let v i = Tt.var 7 i in
  let f =
    Tt.bxor (Tt.band (Tt.bor (v 0) (v 1)) (v 2))
      (Tt.bor (Tt.band (v 3) (v 4)) (Tt.bxor (v 5) (v 6)))
  in
  let direct = chains_of "direct" (stp f) in
  let via_npn = chains_of "npn" (npn_stp f) in
  Alcotest.(check int) "same optimum" (gates_of direct) (gates_of via_npn);
  List.iter
    (fun c ->
      Alcotest.(check bool) "npn chain simulates" true
        (Tt.equal (Chain.simulate c) f))
    via_npn

let test_fdsd6_optimum () =
  (* a read-once 6-input function must synthesise at n-1 gates *)
  let f =
    let a = Tt.var 6 0 and b = Tt.var 6 1 and c = Tt.var 6 2 in
    let d = Tt.var 6 3 and e = Tt.var 6 4 and g = Tt.var 6 5 in
    Tt.bor (Tt.band (Tt.bxor a b) c) (Tt.band (Tt.bor d e) (Tt.bnot g))
  in
  let chains = chains_of "fdsd6" (stp f) in
  Alcotest.(check int) "read-once optimum" 5 (gates_of chains);
  List.iter
    (fun ch ->
      Alcotest.(check bool) "simulates" true (Tt.equal (Chain.simulate ch) f))
    chains

let () =
  Alcotest.run "synth"
    [ ( "decompose",
        [ Alcotest.test_case "disjoint" `Quick test_decompose_disjoint;
          Alcotest.test_case "rejects" `Quick test_decompose_rejects;
          Alcotest.test_case "overlapping" `Quick test_decompose_overlapping;
          Alcotest.test_case "fixed side" `Quick test_decompose_fixed_side;
          Alcotest.test_case "exhaustive agreement" `Quick
            test_decompose_exhaustive;
          Alcotest.test_case "memo regression" `Quick
            test_decompose_memo_regression;
          Alcotest.test_case "oracle: old packed domain" `Quick
            test_oracle_small;
          Alcotest.test_case "oracle: 7-8 variable targets, wide sides" `Quick
            test_oracle_wide;
          Alcotest.test_case "oracle: fixed-side and overlapping covers" `Quick
            test_oracle_fixed_overlap;
          Alcotest.test_case "oracle: restricted basis" `Quick
            test_oracle_basis;
          Alcotest.test_case "oracle: 13-variable target" `Quick
            test_oracle_13_vars;
          Alcotest.test_case "oracle: arena grows and shrinks back" `Quick
            test_oracle_arena;
          QCheck_alcotest.to_alcotest qcheck_decompose_sound ] );
      ( "solve_shape",
        [ Alcotest.test_case "xor3" `Quick test_solve_shape_xor3;
          Alcotest.test_case "wrong size" `Quick test_solve_shape_wrong_size;
          Alcotest.test_case "learned cache permutation" `Quick
            test_learned_cache_permutation ] );
      ( "stp_exact",
        [ Alcotest.test_case "known optima" `Slow test_stp_known_optima;
          Alcotest.test_case "trivial targets" `Quick test_trivial_targets;
          Alcotest.test_case "constants rejected" `Quick test_constant_rejected;
          Alcotest.test_case "all solutions distinct+verified" `Quick
            test_all_solutions_distinct_and_verified;
          Alcotest.test_case "contains Example 7 chains" `Quick
            test_all_solutions_superset_of_example7;
          Alcotest.test_case "support reduction" `Quick test_support_reduction;
          Alcotest.test_case "timeout" `Quick test_timeout_reported;
          Alcotest.test_case "npn variant" `Slow test_npn_route_agrees;
          Alcotest.test_case "npn variant, 7 inputs" `Quick test_npn_route_wide;
          Alcotest.test_case "fdsd6 optimum" `Slow test_fdsd6_optimum;
          Alcotest.test_case "deadline binds on a wide target" `Quick
            test_deadline_binds;
          Alcotest.test_case "deadline binds through verification" `Quick
            test_deadline_binds_through_verification ] );
      ( "verify",
        [ Alcotest.test_case "expired deadline" `Quick
            test_verify_expired_deadline;
          Alcotest.test_case "session soundness" `Quick
            test_verify_session_soundness;
          Alcotest.test_case "calls do not share a session" `Quick
            test_verify_calls_do_not_share ] );
      ( "baselines",
        [ Alcotest.test_case "known optima" `Slow test_baselines_known_optima;
          Alcotest.test_case "engines agree" `Slow test_engines_agree_random ] ) ]
