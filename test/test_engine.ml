(* Tests for the unified Engine API: the four engines behind one
   signature must agree on optima, report the three-way outcome
   (Solved / Timeout / Infeasible) consistently, and the daemon's
   graceful-degradation upper bound must be a correct chain. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Engine = Stp_synth.Engine
module Baselines = Stp_synth.Baselines
module Deadline = Stp_util.Deadline
module Prng = Stp_util.Prng

let synth (module E : Engine.S) ?(options = Spec.default_options) f =
  E.synthesize (Engine.spec ~options f) ~deadline:(Deadline.after 60.0)

let test_engines_agree_on_optima () =
  let targets =
    [ Tt.of_hex ~n:3 "e8" (* maj3 *);
      Tt.of_hex ~n:3 "96" (* xor3 *);
      Tt.of_hex ~n:4 "8ff8" (* the paper's Example 7 *);
      Tt.of_hex ~n:4 "6996" (* xor4 *) ]
  in
  List.iter
    (fun f ->
      let optima =
        List.map
          (fun e ->
            let name = Engine.name e in
            match synth e f with
            | Engine.Solved chains ->
              Alcotest.(check bool)
                (name ^ " chains non-empty") true (chains <> []);
              List.iter
                (fun c ->
                  Alcotest.(check bool)
                    (name ^ " chain simulates to target") true
                    (Tt.equal (Chain.simulate c) f))
                chains;
              Chain.size (List.hd chains)
            | Engine.Timeout -> Alcotest.failf "%s timed out" name
            | Engine.Infeasible -> Alcotest.failf "%s infeasible" name)
          Engine.all
      in
      match optima with
      | g :: rest ->
        List.iter (Alcotest.(check int) "engines agree on optimum" g) rest
      | [] -> assert false)
    targets

let test_constants_are_infeasible () =
  List.iter
    (fun e ->
      let name = Engine.name e in
      List.iter
        (fun f ->
          match synth e f with
          | Engine.Infeasible -> ()
          | Engine.Solved _ | Engine.Timeout ->
            Alcotest.failf "%s should report a constant as Infeasible" name)
        [ Tt.zero 3; Tt.one 4 ])
    Engine.all

let test_expired_deadline_times_out () =
  (* [b4d2] needs real search; a deadline that expires on the first poll
     must surface as Timeout, not as a wrong answer. *)
  let f = Tt.of_hex ~n:4 "b4d2" in
  List.iter
    (fun (module E : Engine.S) ->
      match
        E.synthesize (Engine.spec f) ~deadline:(Deadline.after 0.0)
      with
      | Engine.Timeout -> ()
      | Engine.Solved _ -> Alcotest.failf "%s solved under a dead deadline" E.name
      | Engine.Infeasible -> Alcotest.failf "%s reported infeasible" E.name)
    Engine.all

let test_gate_budget_is_infeasible () =
  (* maj3 needs at least 3 gates (refutable instantly); a max_gates cap
     below that must report Infeasible, not Timeout. *)
  let f = Tt.of_hex ~n:3 "e8" in
  let options = { Spec.default_options with Spec.max_gates = 2 } in
  List.iter
    (fun e ->
      let name = Engine.name e in
      match synth e ~options f with
      | Engine.Infeasible -> ()
      | Engine.Solved _ -> Alcotest.failf "%s beat the known lower bound" name
      | Engine.Timeout -> Alcotest.failf "%s timed out instead" name)
    Engine.all

let test_find_and_gates () =
  Alcotest.(check bool) "find stp" true (Engine.find "stp" <> None);
  Alcotest.(check bool) "find ABC" true (Engine.find "ABC" <> None);
  Alcotest.(check bool) "find unknown" true (Engine.find "nope" = None);
  (match Engine.find "Fen" with
   | Some e -> Alcotest.(check string) "find is case-insensitive" "FEN" (Engine.name e)
   | None -> Alcotest.fail "find Fen");
  match synth Engine.stp (Tt.of_hex ~n:3 "96") with
  | Engine.Solved _ as r ->
    Alcotest.(check (option int)) "gates reads the chain size" (Some 2)
      (Engine.gates r)
  | _ -> Alcotest.fail "xor3 should solve"

let test_upper_bound_is_correct () =
  (* The Shannon-expansion fallback must return a verified chain for any
     non-constant function, including wide ones that exact search would
     never finish. *)
  let rng = Prng.create 99 in
  for n = 1 to 8 do
    for _ = 1 to 20 do
      let f = Tt.of_fun n (fun _ -> Prng.bool rng) in
      if not (Tt.is_const f) then begin
        let c = Baselines.upper_bound f in
        Alcotest.(check bool) "upper bound simulates to target" true
          (Tt.equal (Chain.simulate c) f);
        Alcotest.(check int) "over the full variable space" n c.Chain.n
      end
    done
  done;
  (* Degenerate and structured cases. *)
  List.iter
    (fun f ->
      let c = Baselines.upper_bound f in
      Alcotest.(check bool) "structured upper bound simulates" true
        (Tt.equal (Chain.simulate c) f))
    [ Tt.var 5 3;
      Tt.bnot (Tt.var 4 0);
      Tt.of_hex ~n:4 "6996";
      Tt.of_hex ~n:6 "fee8fee8e8e8e8e8" ];
  Alcotest.check_raises "constants have no chain"
    (Invalid_argument "synthesis: constant target has no Boolean chain")
    (fun () -> ignore (Baselines.upper_bound (Tt.zero 3)))

let test_upper_bound_not_absurd () =
  (* Not optimal, but sane: a 2-input function is a single gate. *)
  let c = Baselines.upper_bound (Tt.of_hex ~n:2 "8") in
  Alcotest.(check int) "and2 is one gate" 1 (Chain.size c)

let () =
  Alcotest.run "engine"
    [ ( "outcomes",
        [ Alcotest.test_case "engines agree on optima" `Quick
            test_engines_agree_on_optima;
          Alcotest.test_case "constants are infeasible" `Quick
            test_constants_are_infeasible;
          Alcotest.test_case "expired deadline times out" `Quick
            test_expired_deadline_times_out;
          Alcotest.test_case "gate budget is infeasible" `Quick
            test_gate_budget_is_infeasible;
          Alcotest.test_case "find and gates" `Quick test_find_and_gates ] );
      ( "upper-bound",
        [ Alcotest.test_case "upper bound is correct" `Quick
            test_upper_bound_is_correct;
          Alcotest.test_case "upper bound not absurd" `Quick
            test_upper_bound_not_absurd ] ) ]
