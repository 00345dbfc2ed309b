(* Tests for multi-output chains and multi-output synthesis. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Mchain = Stp_chain.Mchain
module Multi = Stp_synth.Multi
module Spec = Stp_synth.Spec
module Prng = Stp_util.Prng

let deadline () = Stp_util.Deadline.after 60.0

(* The multi-output chain of a [Solved] outcome; any other outcome fails
   the test. *)
let solved what = function
  | Spec.Solved mc -> mc
  | Spec.Timeout -> Alcotest.failf "%s timed out" what
  | Spec.Infeasible -> Alcotest.failf "%s reported infeasible" what

let exact fs = solved "exact" (Multi.exact ~deadline:(deadline ()) fs)

let single_gates f =
  match Stp_synth.Stp_exact.synthesize ~deadline:(deadline ()) f with
  | Spec.Solved (c :: _) -> Chain.size c
  | _ -> Alcotest.fail "single-output synthesis failed"

let full_adder = [| Tt.of_hex ~n:3 "96" (* sum *); Tt.of_hex ~n:3 "e8" (* carry *) |]

let test_mchain_basics () =
  let mc =
    Mchain.make ~n:2
      ~steps:
        [ { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
          { Chain.fanin1 = 0; fanin2 = 1; gate = 6 } ]
      ~outputs:[ (2, false); (3, true) ]
  in
  Alcotest.(check int) "size" 2 (Mchain.size mc);
  Alcotest.(check int) "outputs" 2 (Mchain.num_outputs mc);
  let sims = Mchain.simulate mc in
  Alcotest.(check bool) "out0 = and" true
    (Tt.equal sims.(0) (Tt.band (Tt.var 2 0) (Tt.var 2 1)));
  Alcotest.(check bool) "out1 = xnor" true
    (Tt.equal sims.(1) (Tt.bnot (Tt.bxor (Tt.var 2 0) (Tt.var 2 1))))

let test_mchain_validation () =
  Alcotest.check_raises "no outputs" (Invalid_argument "Mchain.make: no outputs")
    (fun () -> ignore (Mchain.make ~n:2 ~steps:[] ~outputs:[]));
  Alcotest.check_raises "bad output" (Invalid_argument "Mchain.make: output")
    (fun () -> ignore (Mchain.make ~n:2 ~steps:[] ~outputs:[ (5, false) ]))

let test_of_to_chain () =
  let c =
    Chain.make ~n:2 ~steps:[ { Chain.fanin1 = 0; fanin2 = 1; gate = 14 } ]
      ~output:2 ~output_negated:true ()
  in
  let mc = Mchain.of_chain c in
  Alcotest.(check bool) "roundtrip function" true
    (Tt.equal (Mchain.simulate mc).(0) (Chain.simulate c));
  let back = Mchain.to_chain mc ~output:0 in
  Alcotest.(check bool) "to_chain" true
    (Tt.equal (Chain.simulate back) (Chain.simulate c))

let test_full_adder_exact () =
  let mc = exact full_adder in
  Alcotest.(check int) "textbook optimum" 5 (Mchain.size mc);
  let sims = Mchain.simulate mc in
  Alcotest.(check bool) "sum" true (Tt.equal sims.(0) full_adder.(0));
  Alcotest.(check bool) "carry" true (Tt.equal sims.(1) full_adder.(1))

let test_exact_beats_separate () =
  (* separate optima: sum = 2 gates, carry = 4 gates -> 6 total; sharing
     brings the pair to 5 *)
  let separate = single_gates full_adder.(0) + single_gates full_adder.(1) in
  Alcotest.(check int) "separate total" 6 separate;
  Alcotest.(check bool) "joint smaller" true
    (Mchain.size (exact full_adder) < separate)

let test_stp_shared_valid_upper_bound () =
  let exact = exact full_adder in
  let shared =
    solved "stp_shared" (Multi.stp_shared ~deadline:(deadline ()) full_adder)
  in
  Alcotest.(check bool) "upper bound" true
    (Mchain.size shared >= Mchain.size exact);
  let sims = Mchain.simulate shared in
  Array.iteri
    (fun k f -> Alcotest.(check bool) "correct" true (Tt.equal sims.(k) f))
    full_adder

let test_shared_outputs_same_function () =
  (* two outputs, one the complement of the other: one gate suffices *)
  let f = Tt.band (Tt.var 2 0) (Tt.var 2 1) in
  Alcotest.(check int) "one gate" 1 (Mchain.size (exact [| f; Tt.bnot f |]))

let test_literal_output () =
  (* an output that is a plain projection selects an input signal *)
  let f = Tt.band (Tt.var 2 0) (Tt.var 2 1) in
  Alcotest.(check int) "one gate" 1 (Mchain.size (exact [| f; Tt.var 2 1 |]))

let test_random_pairs_agree () =
  (* Six random pairs from each of two seeds. The joint optimum must
     compute both outputs, need no fewer gates than [f] alone and no
     more than the greedy STP sharing, which is an upper bound. *)
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      for _ = 1 to 6 do
        let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
        let g = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
        if (not (Tt.is_const f)) && not (Tt.is_const g) then begin
          let joint = exact [| f; g |] in
          let sims = Mchain.simulate joint in
          Alcotest.(check bool) "f" true (Tt.equal sims.(0) f);
          Alcotest.(check bool) "g" true (Tt.equal sims.(1) g);
          (* joint never beats the best single output's optimum *)
          Alcotest.(check bool) "lower bounded" true
            (Mchain.size joint >= single_gates f);
          let shared =
            solved "stp_shared" (Multi.stp_shared ~deadline:(deadline ()) [| f; g |])
          in
          Alcotest.(check bool) "stp_shared upper bound" true
            (Mchain.size joint <= Mchain.size shared)
        end
      done)
    [ 23; 61 ]

let test_constant_rejected () =
  Alcotest.check_raises "constant"
    (Invalid_argument "Multi: constant outputs have no Boolean chain")
    (fun () -> ignore (Multi.exact ~deadline:(deadline ()) [| Tt.zero 2 |]))

let () =
  Alcotest.run "multi"
    [ ( "mchain",
        [ Alcotest.test_case "basics" `Quick test_mchain_basics;
          Alcotest.test_case "validation" `Quick test_mchain_validation;
          Alcotest.test_case "of/to chain" `Quick test_of_to_chain ] );
      ( "synthesis",
        [ Alcotest.test_case "full adder exact" `Quick test_full_adder_exact;
          Alcotest.test_case "sharing beats separate" `Quick
            test_exact_beats_separate;
          Alcotest.test_case "stp_shared upper bound" `Quick
            test_stp_shared_valid_upper_bound;
          Alcotest.test_case "complement outputs" `Quick
            test_shared_outputs_same_function;
          Alcotest.test_case "literal output" `Quick test_literal_output;
          Alcotest.test_case "random pairs" `Slow test_random_pairs_agree;
          Alcotest.test_case "constants rejected" `Quick test_constant_rejected ] ) ]
