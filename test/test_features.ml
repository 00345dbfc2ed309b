(* Tests for the extension features: restricted gate bases and
   depth-bounded synthesis. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Engine = Stp_synth.Engine
module Multi = Stp_synth.Multi
module Stp_exact = Stp_synth.Stp_exact
module Baselines = Stp_synth.Baselines
module Factor = Stp_synth.Factor
module Deadline = Stp_util.Deadline
module Prng = Stp_util.Prng

let and_class = [ 1; 2; 4; 7; 8; 11; 13; 14 ]

let options ?basis ?max_depth () =
  { Spec.default_options with Spec.basis; max_depth }

let deadline () = Deadline.after 30.0

let stp options f = Stp_exact.synthesize ~options ~deadline:(deadline ()) f

(* The chains of a [Solved] outcome; any other outcome fails the test. *)
let chains_of name = function
  | Spec.Solved chains -> chains
  | Spec.Timeout -> Alcotest.failf "%s timed out" name
  | Spec.Infeasible -> Alcotest.failf "%s reported infeasible" name

let gates_of chains = Chain.size (List.hd chains)

let chain_uses_only basis (c : Chain.t) =
  Array.for_all (fun (s : Chain.step) -> List.mem s.gate basis) c.Chain.steps

(* A refuted target must read [Infeasible], never [Timeout], from every
   single-output engine and from both multi-output engines. *)
let check_infeasible what options f =
  let expect engine r =
    Alcotest.(check string) (what ^ ": " ^ engine) "infeasible"
      (Engine.outcome_label r)
  in
  List.iter
    (fun (module E : Engine.S) ->
      expect E.name (E.synthesize (Engine.spec ~options f) ~deadline:(deadline ())))
    Engine.all;
  expect "Multi.stp_shared"
    (Multi.stp_shared ~options ~deadline:(deadline ()) [| f |]);
  match options.Spec.max_depth with
  | None -> expect "Multi.exact" (Multi.exact ~options ~deadline:(deadline ()) [| f |])
  | Some _ ->
    (* the multi-output encoding has no depth constraints *)
    Alcotest.check_raises (what ^ ": Multi.exact refuses depth bounds")
      (Invalid_argument "Multi.exact: depth bounds are not supported")
      (fun () -> ignore (Multi.exact ~options ~deadline:(deadline ()) [| f |]))

(* --- restricted bases --- *)

let test_aig_xor3 () =
  (* XOR needs 3 AND-class gates instead of 1 XOR gate; xor3 needs 2 XOR
     gates or 6 AND-class gates *)
  let xor2 = Tt.of_hex ~n:2 "6" in
  let chains = chains_of "xor2/aig" (stp (options ~basis:and_class ()) xor2) in
  Alcotest.(check int) "xor2 needs 3 ANDs" 3 (gates_of chains);
  List.iter
    (fun c ->
      Alcotest.(check bool) "only AND-class gates" true
        (chain_uses_only and_class c);
      Alcotest.(check bool) "simulates" true
        (Tt.equal (Chain.simulate c) xor2))
    chains

let test_aig_vs_unrestricted () =
  (* restricted optima are never smaller; hard XOR-like primes may
     exceed the budget under the AND class (documented weakness), so
     timeouts are skipped but most instances must solve *)
  let rng = Prng.create 17 in
  let solved = ref 0 and tried = ref 0 in
  for _ = 1 to 8 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      incr tried;
      let free = chains_of "free" (stp (options ()) f) in
      match stp (options ~basis:and_class ()) f with
      | Spec.Timeout -> ()
      | Spec.Infeasible -> Alcotest.fail "aig reported infeasible"
      | Spec.Solved aig ->
        incr solved;
        Alcotest.(check bool) "aig >= free" true (gates_of aig >= gates_of free);
        List.iter
          (fun c ->
            Alcotest.(check bool) "basis respected" true
              (chain_uses_only and_class c))
          aig
    end
  done;
  Alcotest.(check bool) "most solved" true (2 * !solved >= !tried)

let test_basis_agreement_with_bms () =
  let rng = Prng.create 19 in
  for _ = 1 to 6 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      let options = options ~basis:and_class () in
      let stp = chains_of "stp/aig" (stp options f) in
      let bms =
        chains_of "bms/aig" (Baselines.bms ~options ~deadline:(deadline ()) f)
      in
      Alcotest.(check int) "same aig optimum" (gates_of bms) (gates_of stp);
      List.iter
        (fun c ->
          Alcotest.(check bool) "bms basis" true
            (chain_uses_only [ 2; 4; 8; 14 ] c
             (* SSV decodes normal gates only: the normal AND-class *)))
        bms
    end
  done

let test_xor_basis () =
  (* parity functions in an {XOR,XNOR}-only basis *)
  let xor4 = Tt.of_hex ~n:4 "6996" in
  let chains = chains_of "xor4/xor-basis" (stp (options ~basis:[ 6; 9 ] ()) xor4) in
  Alcotest.(check int) "3 gates" 3 (gates_of chains);
  (* AND is impossible in the XOR basis: every engine must refute it *)
  check_infeasible "and2 unsynthesisable"
    { (options ~basis:[ 6; 9 ] ()) with Spec.max_gates = 5 }
    (Tt.of_hex ~n:2 "8")

let test_memo_basis_mismatch () =
  (* a memo carries its own basis: one built for another basis than
     [options.basis] must be rejected, not searched with *)
  let and2 = Tt.of_hex ~n:2 "8" in
  let options = { (options ~basis:[ 6; 9 ] ()) with Spec.max_gates = 5 } in
  let via_engine memo =
    let (module E : Engine.S) = Engine.stp in
    E.synthesize (Engine.spec ~options ~memo and2) ~deadline:(deadline ())
  in
  let mismatch =
    Invalid_argument
      "Stp_exact.synthesize: memo basis differs from options.basis"
  in
  Alcotest.check_raises "default memo, xor basis" mismatch (fun () ->
      ignore
        (Stp_exact.synthesize ~options ~memo:(Factor.create_memo ())
           ~deadline:(deadline ()) and2));
  Alcotest.check_raises "default memo through Engine.stp" mismatch (fun () ->
      ignore (via_engine (Factor.create_memo ())));
  Alcotest.(check string) "matching memo refutes AND2" "infeasible"
    (Engine.outcome_label (via_engine (Factor.create_memo ~basis:[ 6; 9 ] ())))

(* --- depth bounds --- *)

let test_depth_bound_xor3 () =
  (* xor3 as a 2-gate chain has depth 2; with max_depth 1 no 2-gate or
     any chain fits (a depth-1 chain is a single gate) *)
  let xor3 = Tt.of_hex ~n:3 "96" in
  let chains = chains_of "depth 2" (stp (options ~max_depth:2 ()) xor3) in
  Alcotest.(check int) "2 gates" 2 (gates_of chains);
  List.iter
    (fun c -> Alcotest.(check bool) "depth <= 2" true (Chain.depth c <= 2))
    chains;
  check_infeasible "depth 1 impossible"
    { (options ~max_depth:1 ()) with Spec.max_gates = 4 }
    xor3

let test_depth_forces_size () =
  (* AND8 = 7 gates; a balanced tree has depth 3, a chain depth 7. With
     max_depth 3 the optimum stays 7 but all solutions are balanced. *)
  let and4 = Tt.of_hex ~n:4 "8000" in
  let chains = chains_of "and4 depth 2" (stp (options ~max_depth:2 ()) and4) in
  Alcotest.(check int) "3 gates" 3 (gates_of chains);
  List.iter
    (fun c -> Alcotest.(check bool) "balanced" true (Chain.depth c = 2))
    chains

let test_depth_engines_agree () =
  let f = Tt.of_hex ~n:3 "e8" in
  let o = options ~max_depth:3 () in
  let stp = chains_of "stp" (stp o f) in
  let fen = chains_of "fen" (Baselines.fen ~options:o ~deadline:(deadline ()) f) in
  let bms =
    chains_of "bms(depth->fen)" (Baselines.bms ~options:o ~deadline:(deadline ()) f)
  in
  let abc =
    chains_of "abc(depth->fen)" (Baselines.abc ~options:o ~deadline:(deadline ()) f)
  in
  Alcotest.(check int) "stp=fen" (gates_of fen) (gates_of stp);
  Alcotest.(check int) "stp=bms" (gates_of bms) (gates_of stp);
  Alcotest.(check int) "stp=abc" (gates_of abc) (gates_of stp);
  List.iter
    (fun c ->
      Alcotest.(check bool) "depth bound" true (Chain.depth c <= 3);
      Alcotest.(check bool) "computes f" true (Tt.equal (Chain.simulate c) f))
    (stp @ fen @ bms @ abc)

(* --- DSD peeling ablation --- *)

let test_dsd_off_agrees () =
  (* the decomposition shortcut must not change optima *)
  let rng = Prng.create 29 in
  for _ = 1 to 6 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      let on = chains_of "dsd on" (stp (options ()) f) in
      let off =
        chains_of "dsd off" (stp { (options ()) with Spec.use_dsd = false } f)
      in
      Alcotest.(check int) "same optimum" (gates_of off) (gates_of on);
      List.iter
        (fun c ->
          Alcotest.(check bool) "off chains correct" true
            (Tt.equal (Chain.simulate c) f))
        off
    end
  done;
  (* the paper's example as a fixed case *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let off =
    chains_of "8ff8 no dsd" (stp { (options ()) with Spec.use_dsd = false } f)
  in
  Alcotest.(check int) "3 gates" 3 (gates_of off)

let () =
  Alcotest.run "features"
    [ ( "basis",
        [ Alcotest.test_case "aig xor2" `Quick test_aig_xor3;
          Alcotest.test_case "aig vs free" `Slow test_aig_vs_unrestricted;
          Alcotest.test_case "aig agreement with bms" `Slow
            test_basis_agreement_with_bms;
          Alcotest.test_case "xor basis" `Quick test_xor_basis;
          Alcotest.test_case "memo basis must match" `Quick
            test_memo_basis_mismatch ] );
      ( "dsd",
        [ Alcotest.test_case "peeling on/off agree" `Slow test_dsd_off_agrees ] );
      ( "depth",
        [ Alcotest.test_case "xor3 depth bound" `Quick test_depth_bound_xor3;
          Alcotest.test_case "and4 balanced" `Quick test_depth_forces_size;
          Alcotest.test_case "engines agree" `Quick test_depth_engines_agree ] ) ]
