(* Tests for LUT networks and the circuit-based AllSAT solver
   (Algorithms 1-2), including the paper's Example 8. *)

module Net = Stp_circuitsat.Lut_network
module Solver = Stp_circuitsat.Circuit_solver
module Chain = Stp_chain.Chain
module Tt = Stp_tt.Tt
module Prng = Stp_util.Prng

let example7_chain =
  (* x5 = XOR(c,d); x6 = AND(a,b); x7 = OR(x5,x6), computing 0x8ff8 *)
  Chain.make ~n:4
    ~steps:
      [ { Chain.fanin1 = 2; fanin2 = 3; gate = 6 };
        { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
        { Chain.fanin1 = 4; fanin2 = 5; gate = 14 } ]
    ~output:6 ()

let test_network_validation () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Lut_network.make: arity mismatch") (fun () ->
      ignore
        (Net.make ~num_inputs:2
           ~luts:[ { Net.tt = Tt.of_int 2 6; fanins = [| 0 |] } ]
           ~outputs:[ 2 ]));
  Alcotest.check_raises "no outputs"
    (Invalid_argument "Lut_network.make: no outputs") (fun () ->
      ignore (Net.make ~num_inputs:2 ~luts:[] ~outputs:[]))

let test_of_chain_simulates () =
  let rng = Prng.create 11 in
  for _ = 1 to 200 do
    let n = 2 + Prng.int rng 3 in
    let k = 1 + Prng.int rng 4 in
    let steps =
      List.init k (fun i ->
          let hi = n + i in
          let f1 = Prng.int rng hi in
          let f2 = (f1 + 1 + Prng.int rng (hi - 1)) mod hi in
          { Chain.fanin1 = f1; fanin2 = f2; gate = Prng.int rng 16 })
    in
    let c =
      Chain.make ~n ~steps ~output:(n + k - 1) ~output_negated:(Prng.bool rng) ()
    in
    let net = Net.of_chain c in
    let sim = (Net.simulate net).(0) in
    Alcotest.(check bool) "network = chain" true
      (Tt.equal sim (Chain.simulate c))
  done

let test_of_chain_negated_input_output () =
  (* output pointing at a complemented primary input needs an inverter *)
  let c = Chain.make ~n:2 ~steps:[] ~output:1 ~output_negated:true () in
  let net = Net.of_chain c in
  Alcotest.(check bool) "inverter added" true (Net.size net = 1);
  Alcotest.(check bool) "simulates" true
    (Tt.equal (Net.simulate net).(0) (Tt.bnot (Tt.var 2 1)))

let test_cube_merge () =
  let a = { Solver.mask = 0b011; value = 0b001 } in
  let b = { Solver.mask = 0b110; value = 0b100 } in
  (match Solver.cube_merge a b with
   | Some c ->
     Alcotest.(check int) "mask" 0b111 c.Solver.mask;
     Alcotest.(check int) "value" 0b101 c.Solver.value
   | None -> Alcotest.fail "expected merge");
  let conflicting = { Solver.mask = 0b001; value = 0b000 } in
  Alcotest.(check bool) "conflict" false (Solver.cube_compatible a conflicting)

let test_duplicate_cubes_dedup () =
  (* Two identical LUTs as two outputs: the per-output cube sets are
     identical, so every pairwise merge re-derives the same cubes — the
     key-based dedup must collapse them to one copy each. *)
  let or2 = Tt.of_int 2 0b1110 in
  let net =
    Net.make ~num_inputs:2
      ~luts:
        [ { Net.tt = or2; fanins = [| 0; 1 |] };
          { Net.tt = or2; fanins = [| 0; 1 |] } ]
      ~outputs:[ 2; 3 ]
  in
  let cubes = Solver.solve net ~targets:[| true; true |] in
  let keys = List.map (fun c -> (c.Solver.mask, c.Solver.value)) cubes in
  Alcotest.(check bool) "no duplicate cubes" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  Alcotest.(check int) "or onset" 3
    (Solver.count_solutions net ~targets:[| true; true |]);
  Alcotest.(check bool) "onset = or" true
    (Tt.equal (Solver.onset net ~targets:[| true; true |]) or2);
  (* Subsumption: merging against {a=1} yields both the short cube
     {a=1} and the longer {a=1,b=1}; the latter is subsumed and must be
     dropped. (Network traversal alone cannot trigger this — every cube
     of a per-signal set fixes the signal's whole input cone, so those
     sets are mask-uniform — but MERGE is also used to combine arbitrary
     sets.) *)
  let a1 = { Solver.mask = 0b01; value = 0b01 } in
  let ab = { Solver.mask = 0b11; value = 0b11 } in
  let merged = Solver.merge_sets [ a1 ] [ a1; ab ] in
  Alcotest.(check int) "subsumed to a single cube" 1 (List.length merged);
  (match merged with
   | [ c ] ->
     Alcotest.(check int) "survivor mask" 0b01 c.Solver.mask;
     Alcotest.(check int) "survivor value" 0b01 c.Solver.value
   | _ -> ())

let test_example8 () =
  (* The paper finds ten satisfying assignments for the Example 7 chain. *)
  let net = Net.of_chain example7_chain in
  Alcotest.(check int) "ten solutions" 10
    (Solver.count_solutions net ~targets:[| true |]);
  let f = Tt.of_hex ~n:4 "8ff8" in
  Alcotest.(check bool) "onset = f" true
    (Tt.equal (Solver.onset net ~targets:[| true |]) f);
  Alcotest.(check bool) "verify" true (Solver.verify_chain example7_chain f)

let test_onset_equals_simulation () =
  (* onset via backward target propagation must equal forward simulation *)
  let rng = Prng.create 13 in
  for _ = 1 to 100 do
    let n = 2 + Prng.int rng 3 in
    let k = 1 + Prng.int rng 4 in
    let steps =
      List.init k (fun i ->
          let hi = n + i in
          let f1 = Prng.int rng hi in
          let f2 = (f1 + 1 + Prng.int rng (hi - 1)) mod hi in
          { Chain.fanin1 = f1; fanin2 = f2; gate = Prng.int rng 16 })
    in
    let c = Chain.make ~n ~steps ~output:(n + k - 1) () in
    let net = Net.of_chain c in
    let sim = Chain.simulate c in
    Alcotest.(check bool) "onset(1) = f" true
      (Tt.equal (Solver.onset net ~targets:[| true |]) sim);
    Alcotest.(check bool) "onset(0) = !f" true
      (Tt.equal (Solver.onset net ~targets:[| false |]) (Tt.bnot sim))
  done

let test_multi_output_merge () =
  (* two outputs: AND(a,b) and XOR(a,b); requiring (1,0) forces a=b=1...
     AND=1 needs a=1,b=1; XOR then is 0: consistent; count = 1 over 2 vars *)
  let net =
    Net.make ~num_inputs:2
      ~luts:
        [ { Net.tt = Tt.of_int 2 0b1000; fanins = [| 0; 1 |] };
          { Net.tt = Tt.of_int 2 0b0110; fanins = [| 0; 1 |] } ]
      ~outputs:[ 2; 3 ]
  in
  Alcotest.(check int) "and=1 xor=0" 1
    (Solver.count_solutions net ~targets:[| true; false |]);
  Alcotest.(check int) "and=1 xor=1" 0
    (Solver.count_solutions net ~targets:[| true; true |]);
  Alcotest.(check bool) "unsat detected" false
    (Solver.is_sat net ~targets:[| true; true |])

let test_three_input_luts () =
  (* a MAJ3 LUT network *)
  let maj = Tt.of_hex ~n:3 "e8" in
  let net =
    Net.make ~num_inputs:3
      ~luts:[ { Net.tt = maj; fanins = [| 0; 1; 2 |] } ]
      ~outputs:[ 3 ]
  in
  Alcotest.(check int) "maj onset" 4
    (Solver.count_solutions net ~targets:[| true |]);
  Alcotest.(check bool) "onset correct" true
    (Tt.equal (Solver.onset net ~targets:[| true |]) maj)

let test_all_minterms_sorted () =
  let net = Net.of_chain example7_chain in
  let ms = Solver.all_minterms net ~targets:[| true |] in
  Alcotest.(check int) "ten minterms" 10 (List.length ms);
  Alcotest.(check bool) "sorted" true (List.sort compare ms = ms)

let test_fanouts () =
  let net = Net.of_chain example7_chain in
  let fo = Net.fanouts net in
  (* every PI feeds exactly one LUT; x5 and x6 feed the OR *)
  List.iter (fun i -> Alcotest.(check int) "pi fanout" 1 fo.(i)) [ 0; 1; 2; 3 ];
  Alcotest.(check int) "x7 fanout" 0 fo.(6)

let test_verify_rejects_wrong () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  let wrong = Tt.bnot f in
  Alcotest.(check bool) "rejects" false (Solver.verify_chain example7_chain wrong)

let qcheck_count_equals_popcount =
  QCheck.Test.make ~name:"count_solutions = count_ones of simulation"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 2 in
      let k = 1 + Prng.int rng 3 in
      let steps =
        List.init k (fun i ->
            let hi = n + i in
            let f1 = Prng.int rng hi in
            let f2 = (f1 + 1 + Prng.int rng (hi - 1)) mod hi in
            { Chain.fanin1 = f1; fanin2 = f2; gate = Prng.int rng 16 })
      in
      let c = Chain.make ~n ~steps ~output:(n + k - 1) () in
      let net = Net.of_chain c in
      Solver.count_solutions net ~targets:[| true |]
      = Tt.count_ones (Chain.simulate c))

(* --- the packed solver against the list-based oracle --- *)

module Oracle = Circuit_solver_oracle

let cube_set cubes =
  List.sort compare (List.map (fun c -> (c.Solver.mask, c.Solver.value)) cubes)

(* A random network over [n] inputs: 1-3-input LUTs reading any earlier
   signals (so fanins are shared and paths reconverge), one to three
   outputs. *)
let random_network rng =
  let n = 1 + Prng.int rng 8 in
  let k = 1 + Prng.int rng 6 in
  let luts =
    List.init k (fun i ->
        let arity = 1 + Prng.int rng 3 in
        let fanins = Array.init arity (fun _ -> Prng.int rng (n + i)) in
        let tt = Tt.of_fun arity (fun _ -> Prng.bool rng) in
        { Net.tt; fanins })
  in
  let outputs =
    List.init (1 + Prng.int rng 3) (fun _ -> n + Prng.int rng k)
  in
  Net.make ~num_inputs:n ~luts ~outputs

let test_oracle_networks () =
  let rng = Prng.create 41 in
  for _ = 1 to 400 do
    let net = random_network rng in
    let targets = Array.map (fun _ -> Prng.bool rng) net.Net.outputs in
    let expected = Oracle.solve net ~targets in
    Alcotest.(check (list (pair int int)))
      "cube set" (cube_set expected)
      (cube_set (Solver.solve net ~targets));
    let oracle_onset = Oracle.onset net ~targets in
    Alcotest.(check bool) "onset" true
      (Tt.equal oracle_onset (Solver.onset net ~targets));
    Alcotest.(check int) "count_solutions" (Tt.count_ones oracle_onset)
      (Solver.count_solutions net ~targets);
    Alcotest.(check bool) "is_sat" (expected <> [])
      (Solver.is_sat net ~targets)
  done

let test_oracle_merge_sets () =
  (* Arbitrary sets, with duplicates and subsumed cubes on either side. *)
  let rng = Prng.create 43 in
  let random_set () =
    List.init (Prng.int rng 6) (fun _ ->
        let mask = Prng.bits rng 5 in
        { Solver.mask; value = Prng.bits rng 5 land mask })
  in
  for _ = 1 to 500 do
    let xs = random_set () and ys = random_set () in
    Alcotest.(check (list (pair int int)))
      "merge_sets" (cube_set (Oracle.merge_sets xs ys))
      (cube_set (Solver.merge_sets xs ys))
  done

let random_chain rng ~n ~k =
  let steps =
    List.init k (fun i ->
        let hi = n + i in
        let f1 = Prng.int rng hi in
        let f2 = (f1 + 1 + Prng.int rng (hi - 1)) mod hi in
        { Chain.fanin1 = f1; fanin2 = f2; gate = Prng.int rng 16 })
  in
  Chain.make ~n ~steps ~output:(Prng.int rng (n + k))
    ~output_negated:(Prng.bool rng) ()

(* [f] with one minterm flipped: a target every correct check rejects. *)
let flip_one rng f =
  let m = Prng.int rng (Tt.num_bits f) in
  Tt.set f m (not (Tt.get f m))

let test_oracle_verify_chain () =
  let rng = Prng.create 47 in
  for _ = 1 to 300 do
    let n = 2 + Prng.int rng 7 in
    let c = random_chain rng ~n ~k:(1 + Prng.int rng 8) in
    let f = Chain.simulate c in
    List.iter
      (fun target ->
        Alcotest.(check bool) "verify_chain = oracle"
          (Oracle.verify_chain c target)
          (Solver.verify_chain c target))
      [ f; flip_one rng f; Tt.bnot f ]
  done

(* DSD-composed chains: every chain of a pool over inputs 0-3 joined to
   every chain of a pool over inputs 4-7 by a top gate, all verified in
   one session, so later chains reuse the cones of earlier ones. *)
let test_oracle_dsd_session () =
  let rng = Prng.create 53 in
  let n = 8 in
  let pool ~shift =
    List.init 4 (fun _ ->
        let k = 1 + Prng.int rng 3 in
        let steps =
          List.init k (fun i ->
              let pick () =
                let j = Prng.int rng (4 + i) in
                if j < 4 then j + shift else n + j - 4
              in
              let f1 = pick () in
              let rec other () =
                let f2 = pick () in
                if f2 = f1 then other () else f2
              in
              { Chain.fanin1 = f1; fanin2 = other (); gate = Prng.int rng 16 })
        in
        (steps, k))
  in
  let join (gs, kg) (hs, kh) top =
    let move s = if s < n then s else s + kg in
    let hs =
      List.map
        (fun (st : Chain.step) ->
          { st with Chain.fanin1 = move st.fanin1; fanin2 = move st.fanin2 })
        hs
    in
    let steps =
      gs @ hs
      @ [ { Chain.fanin1 = n + kg - 1; fanin2 = n + kg + kh - 1; gate = top } ]
    in
    Chain.make ~n ~steps ~output:(n + kg + kh) ~output_negated:(Prng.bool rng) ()
  in
  let session = Solver.session ~n in
  List.iter
    (fun g ->
      List.iter
        (fun h ->
          let c = join g h (Prng.int rng 16) in
          let f = Chain.simulate c in
          List.iter
            (fun target ->
              Alcotest.(check bool) "session verify = oracle"
                (Oracle.verify_chain c target)
                (Solver.verify session c target))
            [ f; flip_one rng f ])
        (pool ~shift:4))
    (pool ~shift:0)

let test_session_soundness () =
  (* A copy of the Example 7 chain with the top gate flipped shares both
     sub-cones of the original; the memo they share must not let it
     pass, before or after the original is verified. *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let steps = Array.to_list example7_chain.Chain.steps in
  let flipped =
    Chain.make ~n:4
      ~steps:
        (List.mapi (fun i s -> if i = 2 then { s with Chain.gate = 8 } else s) steps)
      ~output:6 ()
  in
  let s = Solver.session ~n:4 in
  Alcotest.(check bool) "flipped rejected" false (Solver.verify s flipped f);
  Alcotest.(check bool) "original accepted" true (Solver.verify s example7_chain f);
  Alcotest.(check bool) "flipped still rejected" false (Solver.verify s flipped f);
  Alcotest.(check bool) "flipped matches its own function" true
    (Solver.verify s flipped (Chain.simulate flipped));
  Alcotest.check_raises "other arity"
    (Invalid_argument "Circuit_solver.verify: arity") (fun () ->
      ignore (Solver.verify s (Chain.make ~n:3 ~steps:[] ~output:0 ()) f))

let () =
  Alcotest.run "circuitsat"
    [ ( "network",
        [ Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "of_chain simulates" `Quick test_of_chain_simulates;
          Alcotest.test_case "negated trivial output" `Quick
            test_of_chain_negated_input_output;
          Alcotest.test_case "fanouts" `Quick test_fanouts ] );
      ( "solver",
        [ Alcotest.test_case "cube merge" `Quick test_cube_merge;
          Alcotest.test_case "duplicate cubes dedup" `Quick
            test_duplicate_cubes_dedup;
          Alcotest.test_case "example 8" `Quick test_example8;
          Alcotest.test_case "onset = simulation" `Quick
            test_onset_equals_simulation;
          Alcotest.test_case "multi-output merge" `Quick test_multi_output_merge;
          Alcotest.test_case "3-input LUTs" `Quick test_three_input_luts;
          Alcotest.test_case "minterms sorted" `Quick test_all_minterms_sorted;
          Alcotest.test_case "verify rejects wrong target" `Quick
            test_verify_rejects_wrong;
          QCheck_alcotest.to_alcotest qcheck_count_equals_popcount ] );
      ( "oracle",
        [ Alcotest.test_case "random LUT networks" `Quick test_oracle_networks;
          Alcotest.test_case "merge_sets" `Quick test_oracle_merge_sets;
          Alcotest.test_case "verify_chain on random chains" `Quick
            test_oracle_verify_chain;
          Alcotest.test_case "DSD-composed chains in one session" `Quick
            test_oracle_dsd_session;
          Alcotest.test_case "session soundness" `Quick test_session_soundness ] ) ]
