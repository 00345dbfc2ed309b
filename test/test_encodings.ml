(* Tests for the SSV CNF encoding: decoded chains must compute the
   target, UNSAT must mean no chain of that size, fence restriction and
   CEGAR refinement must behave. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Solver = Stp_sat.Solver
module Ssv = Stp_encodings.Ssv
module Prng = Stp_util.Prng

let solve_size f r =
  let solver = Solver.create () in
  match Ssv.build ~solver ~f ~r () with
  | None -> `Infeasible
  | Some enc -> (
    match Solver.solve solver with
    | Solver.Sat -> `Sat (Ssv.decode enc)
    | Solver.Unsat -> `Unsat
    | Solver.Unknown -> `Unknown)

let test_requires_normal () =
  Alcotest.check_raises "non-normal rejected"
    (Invalid_argument "Ssv.build: target must be normal") (fun () ->
      let solver = Solver.create () in
      ignore (Ssv.build ~solver ~f:(Tt.one 3) ~r:1 ()))

let test_xor3_sizes () =
  let xor3 = Tt.of_hex ~n:3 "96" in
  (match solve_size xor3 1 with
   | `Unsat -> ()
   | _ -> Alcotest.fail "xor3 must be unsat at 1 gate");
  match solve_size xor3 2 with
  | `Sat chain ->
    Alcotest.(check bool) "computes xor3" true
      (Tt.equal (Chain.simulate chain) xor3);
    Alcotest.(check int) "two gates" 2 (Chain.size chain)
  | _ -> Alcotest.fail "xor3 must be sat at 2 gates"

let test_decoded_chains_random () =
  let rng = Prng.create 31 in
  let solved = ref 0 in
  for _ = 1 to 15 do
    let n = 3 in
    let f = Tt.of_fun n (fun _ -> Prng.bool rng) in
    let f = if Tt.get f 0 then Tt.bnot f else f in
    if Tt.support_size f >= 2 then begin
      let rec try_r r =
        if r > 6 then ()
        else
          match solve_size f r with
          | `Sat chain ->
            incr solved;
            Alcotest.(check bool) "decoded computes f" true
              (Tt.equal (Chain.simulate chain) f)
          | `Unsat -> try_r (r + 1)
          | _ -> ()
      in
      try_r 1
    end
  done;
  Alcotest.(check bool) "solved most" true (!solved > 5)

(* [Ssv.Inc] over [f] with only [minterms] encoded, and the selector of
   budget [r]. *)
let inc_with_minterms ~solver ~f ~minterms ~r =
  let inc = Ssv.Inc.create ~solver ~f () in
  List.iter (Ssv.Inc.add_minterm inc) minterms;
  match Ssv.Inc.budget_selector inc r with
  | None -> Alcotest.fail "feasible"
  | Some sel -> (inc, sel)

let test_minterm_restriction () =
  (* with a single encoded minterm the problem is underconstrained: a
     chain is found but need not compute f everywhere *)
  let f = Tt.of_hex ~n:3 "96" in
  let solver = Solver.create () in
  let inc, sel = inc_with_minterms ~solver ~f ~minterms:[ 1 ] ~r:2 in
  Alcotest.(check (list int)) "one minterm" [ 1 ] (Ssv.Inc.encoded_minterms inc);
  match Solver.solve ~assumptions:[ sel ] solver with
  | Solver.Sat ->
    let chain = Ssv.Inc.decode inc ~r:2 in
    Alcotest.(check bool) "agrees on encoded minterm" true
      (Tt.get (Chain.simulate chain) 1 = Tt.get f 1)
  | _ -> Alcotest.fail "restricted encoding must be sat"

let test_cegar_refinement () =
  (* adding minterms one at a time must converge to a correct chain *)
  let f = Tt.of_hex ~n:3 "e8" in
  let solver = Solver.create () in
  let inc, sel = inc_with_minterms ~solver ~f ~minterms:[ 3 ] ~r:4 in
  let rec refine budget =
    if budget = 0 then Alcotest.fail "no convergence"
    else
      match Solver.solve ~assumptions:[ sel ] solver with
      | Solver.Sat ->
        let chain = Ssv.Inc.decode inc ~r:4 in
        let sim = Chain.simulate chain in
        if Tt.equal sim f then ()
        else begin
          let diff = Tt.bxor sim f in
          let rec first m = if Tt.get diff m then m else first (m + 1) in
          Ssv.Inc.add_minterm inc (first 0);
          refine (budget - 1)
        end
      | _ -> Alcotest.fail "must stay sat at 4 gates"
  in
  refine 16

let test_fence_levels_restrict () =
  let xor3 = Tt.of_hex ~n:3 "96" in
  (* a two-level fence <1,1> admits the xor chain *)
  let solver = Solver.create () in
  (match Ssv.build ~levels:[| 1; 2 |] ~solver ~f:xor3 ~r:2 () with
   | None -> Alcotest.fail "feasible fence"
   | Some enc -> (
     match Solver.solve solver with
     | Solver.Sat ->
       let chain = Ssv.decode enc in
       Alcotest.(check bool) "fence chain computes f" true
         (Tt.equal (Chain.simulate chain) xor3)
     | _ -> Alcotest.fail "must be sat"));
  (* a one-level fence with 2 gates cannot feed gate 2 from level 1 *)
  let solver2 = Solver.create () in
  match Ssv.build ~levels:[| 1; 1 |] ~solver:solver2 ~f:xor3 ~r:2 () with
  | None -> () (* gate 1 has no level-0... both at level 1: second gate may
                  only read PIs, and the encoding may be infeasible or unsat *)
  | Some _ -> (
    match Solver.solve solver2 with
    | Solver.Unsat -> ()
    | Solver.Sat -> Alcotest.fail "flat fence cannot realise xor3"
    | Solver.Unknown -> Alcotest.fail "unknown")

(* One Inc instance swept across budgets must find the same optimum as
   fresh per-budget encodings, its decoded chains must compute the
   target, and retired budgets must not disturb later ones. *)
let test_inc_matches_fresh () =
  let rng = Prng.create 4242 in
  let agreed = ref 0 in
  for _ = 1 to 15 do
    let n = 3 in
    let f = Tt.of_fun n (fun _ -> Prng.bool rng) in
    let f = if Tt.get f 0 then Tt.bnot f else f in
    if Tt.support_size f >= 2 then begin
      let fresh_optimum =
        let rec try_r r =
          if r > 6 then None
          else
            match solve_size f r with
            | `Sat _ -> Some r
            | `Unsat | `Infeasible -> try_r (r + 1)
            | `Unknown -> None
        in
        try_r 1
      in
      let solver = Solver.create () in
      let inc = Ssv.Inc.create ~solver ~f () in
      for m = 1 to (1 lsl n) - 1 do
        Ssv.Inc.add_minterm inc m
      done;
      let inc_optimum =
        let rec try_r r =
          if r > 6 then None
          else
            match Ssv.Inc.budget_selector inc r with
            | None -> try_r (r + 1)
            | Some sel -> (
              match Solver.solve ~assumptions:[ sel ] solver with
              | Solver.Sat ->
                let chain = Ssv.Inc.decode inc ~r in
                Alcotest.(check bool) "inc chain computes f" true
                  (Tt.equal (Chain.simulate chain) f);
                Some r
              | Solver.Unsat ->
                Ssv.Inc.retire inc r;
                try_r (r + 1)
              | Solver.Unknown -> None)
        in
        try_r 1
      in
      Alcotest.(check (option int)) "optimum agrees" fresh_optimum inc_optimum;
      if fresh_optimum = inc_optimum && fresh_optimum <> None then incr agreed
    end
  done;
  Alcotest.(check bool) "exercised" true (!agreed > 5)

let test_optimum_matches_paper_examples () =
  (* 0x8ff8 has a 3-gate optimum (Example 7) *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  (match solve_size f 2 with
   | `Unsat -> ()
   | _ -> Alcotest.fail "no 2-gate chain");
  match solve_size f 3 with
  | `Sat chain ->
    Alcotest.(check bool) "3-gate chain" true (Tt.equal (Chain.simulate chain) f)
  | _ -> Alcotest.fail "3 gates must suffice"

let () =
  Alcotest.run "encodings"
    [ ( "ssv",
        [ Alcotest.test_case "normal form required" `Quick test_requires_normal;
          Alcotest.test_case "xor3 sizes" `Quick test_xor3_sizes;
          Alcotest.test_case "random decoded chains" `Slow
            test_decoded_chains_random;
          Alcotest.test_case "minterm restriction" `Quick
            test_minterm_restriction;
          Alcotest.test_case "cegar refinement" `Quick test_cegar_refinement;
          Alcotest.test_case "fence levels" `Quick test_fence_levels_restrict;
          Alcotest.test_case "paper example optimum" `Quick
            test_optimum_matches_paper_examples ] );
      ( "ssv-inc",
        [ Alcotest.test_case "inc matches fresh" `Slow test_inc_matches_fresh ] ) ]
