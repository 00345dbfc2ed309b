(* Tests for the CDCL SAT solver: brute-force cross-checks on random
   instances, classic UNSAT families, assumptions, DIMACS parsing. *)

module Solver = Stp_sat.Solver
module Lit = Stp_sat.Lit
module Dimacs = Stp_sat.Dimacs
module Prng = Stp_util.Prng

let brute_force nv clauses =
  let rec check m =
    m < 1 lsl nv
    &&
    (List.for_all
       (fun c ->
         List.exists
           (fun l -> ((m lsr Lit.var l) land 1 = 1) = Lit.sign l)
           c)
       clauses
     || check (m + 1))
  in
  check 0

let random_instance rng ~max_vars ~clause_factor =
  let nv = 2 + Prng.int rng max_vars in
  let nc = 1 + Prng.int rng (clause_factor * nv) in
  let clauses =
    List.init nc (fun _ ->
        let len = 1 + Prng.int rng 3 in
        List.init len (fun _ -> Lit.make (Prng.int rng nv) (Prng.bool rng)))
  in
  (nv, clauses)

let fresh_solver nv clauses =
  let s = Solver.create () in
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  s

let model_satisfies s clauses =
  List.for_all
    (fun c -> List.exists (fun l -> Solver.value s (Lit.var l) = Lit.sign l) c)
    clauses

let test_fuzz_vs_brute_force () =
  let rng = Prng.create 2024 in
  for _ = 1 to 800 do
    let nv, clauses = random_instance rng ~max_vars:10 ~clause_factor:4 in
    let s = fresh_solver nv clauses in
    let expected = brute_force nv clauses in
    match Solver.solve s with
    | Solver.Sat ->
      Alcotest.(check bool) "sat expected" true expected;
      Alcotest.(check bool) "model valid" true (model_satisfies s clauses)
    | Solver.Unsat -> Alcotest.(check bool) "unsat expected" false expected
    | Solver.Unknown -> Alcotest.fail "unexpected unknown"
  done

let test_lit_encoding () =
  Alcotest.(check int) "var" 3 (Lit.var (Lit.pos 3));
  Alcotest.(check bool) "pos sign" true (Lit.sign (Lit.pos 3));
  Alcotest.(check bool) "neg sign" false (Lit.sign (Lit.neg 3));
  Alcotest.(check int) "negate" (Lit.neg 3) (Lit.negate (Lit.pos 3));
  Alcotest.(check int) "dimacs" 4 (Lit.to_int (Lit.pos 3));
  Alcotest.(check int) "dimacs neg" (-4) (Lit.to_int (Lit.neg 3));
  Alcotest.(check int) "of_int" (Lit.neg 3) (Lit.of_int (-4))

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "not okay" false (Solver.okay s);
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_unit_propagation () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a true" true (Solver.value s a);
  Alcotest.(check bool) "b true" true (Solver.value s b)

let test_pigeonhole_unsat () =
  (* PHP(4,3): 4 pigeons, 3 holes — classic small UNSAT instance. *)
  let pigeons = 4 and holes = 3 in
  let s = Solver.create () in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg v.(p1).(h); Lit.neg v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php unsat" true (Solver.solve s = Solver.Unsat)

let test_xor_chain_sat () =
  (* parity constraints as CNF: x1 xor x2 xor ... = 1 is satisfiable *)
  let n = 6 in
  let s = Solver.create () in
  let xs = Array.init n (fun _ -> Solver.new_var s) in
  (* y_i = x_1 xor ... xor x_i via Tseitin-style chaining *)
  let ys = Array.init n (fun _ -> Solver.new_var s) in
  let add_xor out a b =
    (* out = a xor b *)
    Solver.add_clause s [ Lit.neg out; Lit.pos a; Lit.pos b ];
    Solver.add_clause s [ Lit.neg out; Lit.neg a; Lit.neg b ];
    Solver.add_clause s [ Lit.pos out; Lit.pos a; Lit.neg b ];
    Solver.add_clause s [ Lit.pos out; Lit.neg a; Lit.pos b ]
  in
  (* y0 = x0 *)
  Solver.add_clause s [ Lit.neg ys.(0); Lit.pos xs.(0) ];
  Solver.add_clause s [ Lit.pos ys.(0); Lit.neg xs.(0) ];
  for i = 1 to n - 1 do
    add_xor ys.(i) ys.(i - 1) xs.(i)
  done;
  Solver.add_clause s [ Lit.pos ys.(n - 1) ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let parity =
    Array.fold_left (fun acc x -> acc <> Solver.value s x) false xs
  in
  Alcotest.(check bool) "parity holds" true parity

let test_assumptions () =
  let rng = Prng.create 77 in
  for _ = 1 to 300 do
    let nv, clauses = random_instance rng ~max_vars:8 ~clause_factor:3 in
    let assumptions =
      List.init (Prng.int rng 3) (fun _ ->
          Lit.make (Prng.int rng nv) (Prng.bool rng))
    in
    let s = fresh_solver nv clauses in
    let expected =
      brute_force nv (List.map (fun a -> [ a ]) assumptions @ clauses)
    in
    (match Solver.solve ~assumptions s with
     | Solver.Sat -> Alcotest.(check bool) "assum sat" true expected
     | Solver.Unsat -> Alcotest.(check bool) "assum unsat" false expected
     | Solver.Unknown -> Alcotest.fail "unknown");
    (* solving again without assumptions must match the plain instance *)
    let expected_plain = brute_force nv clauses in
    (match Solver.solve s with
     | Solver.Sat -> Alcotest.(check bool) "reuse sat" true expected_plain
     | Solver.Unsat -> Alcotest.(check bool) "reuse unsat" false expected_plain
     | Solver.Unknown -> Alcotest.fail "unknown")
  done

let test_incremental_clauses () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ Lit.neg a ];
  Alcotest.(check bool) "sat 2" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.value s b);
  Solver.add_clause s [ Lit.neg b ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_conflict_budget () =
  (* PHP(7,6) is hard enough that a 1-conflict budget gives Unknown. *)
  let pigeons = 7 and holes = 6 in
  let s = Solver.create () in
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg v.(p1).(h); Lit.neg v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unknown on tiny budget" true
    (Solver.solve ~conflict_budget:1 s = Solver.Unknown)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Dimacs.parse text in
  Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses);
  let printed = Format.asprintf "%a" Dimacs.print cnf in
  let cnf2 = Dimacs.parse printed in
  Alcotest.(check bool) "roundtrip" true (cnf = cnf2);
  let s = Solver.create () in
  Dimacs.load s cnf;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_dimacs_invalid () =
  let raises name msg text =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Dimacs.parse text))
  in
  raises "clause before header"
    "Dimacs.parse: line 1: clause before the 'p cnf' header" "1 2 0\n";
  raises "missing header" "Dimacs.parse: missing header" "c nothing here\n";
  raises "variable beyond header"
    "Dimacs.parse: line 4: variable 4 exceeds the declared 3"
    "p cnf 3 2\n1 -2 0\nc x\n2 -4 0\n";
  raises "bad token" "Dimacs.parse: line 2: bad token \"two\""
    "p cnf 3 1\n1 two 0\n";
  raises "duplicate header" "Dimacs.parse: line 2: duplicate header"
    "p cnf 3 1\np cnf 3 1\n1 0\n";
  raises "unterminated clause" "Dimacs.parse: line 2: unterminated clause"
    "p cnf 3 1\n1 -2\n"

(* The incremental contract, fuzzed: one long-lived solver receiving
   interleaved clause batches and assumption solves must agree with
   brute force at every step, its Sat models must satisfy clauses and
   assumptions, its unsat cores must be subsets of the assumptions that
   are themselves refuted, and every Unsat answer's cumulative DRAT
   stream must check against the clauses added so far. *)
let test_fuzz_incremental_vs_fresh () =
  let rng = Prng.create 31337 in
  let unsats = ref 0 and sats = ref 0 and checked_proofs = ref 0 in
  let instances = 1000 in
  for _ = 1 to instances do
    let nv = 3 + Prng.int rng 8 in
    let s = Solver.create () in
    Solver.set_proof s true;
    for _ = 1 to nv do
      ignore (Solver.new_var s)
    done;
    let clauses = ref [] in
    let rounds = 1 + Prng.int rng 3 in
    for _ = 1 to rounds do
      let nc = 1 + Prng.int rng (2 * nv) in
      for _ = 1 to nc do
        let len = 1 + Prng.int rng 3 in
        let c =
          List.init len (fun _ -> Lit.make (Prng.int rng nv) (Prng.bool rng))
        in
        Solver.add_clause s c;
        clauses := c :: !clauses
      done;
      let assumptions =
        List.init (Prng.int rng 3) (fun _ ->
            Lit.make (Prng.int rng nv) (Prng.bool rng))
      in
      let expected =
        brute_force nv (List.map (fun a -> [ a ]) assumptions @ !clauses)
      in
      match Solver.solve ~assumptions s with
      | Solver.Sat ->
        incr sats;
        if not expected then Alcotest.fail "incremental Sat, brute-force unsat";
        Alcotest.(check bool) "model valid" true (model_satisfies s !clauses);
        List.iter
          (fun a ->
            Alcotest.(check bool) "assumption honoured" true
              (Solver.value s (Lit.var a) = Lit.sign a))
          assumptions
      | Solver.Unsat ->
        incr unsats;
        if expected then Alcotest.fail "incremental Unsat, brute-force sat";
        let core = Solver.unsat_core s in
        List.iter
          (fun l ->
            Alcotest.(check bool) "core within assumptions" true
              (List.mem l assumptions))
          core;
        Alcotest.(check bool) "core itself refuted" false
          (brute_force nv (List.map (fun a -> [ a ]) core @ !clauses));
        (match
           Stp_sat.Drat.check ~num_vars:nv ~clauses:!clauses
             ~assumptions:core (Solver.proof s)
         with
         | Ok () -> incr checked_proofs
         | Error e -> Alcotest.fail ("drat check failed: " ^ e))
      | Solver.Unknown -> Alcotest.fail "unexpected unknown"
    done
  done;
  (* the fuzz must actually exercise both answers and the proof path *)
  Alcotest.(check bool) "saw sats" true (!sats > 100);
  Alcotest.(check bool) "saw unsats" true (!unsats > 100);
  Alcotest.(check int) "every unsat proof checked" !unsats !checked_proofs

let test_unsat_core () =
  (* A chain that dooms exactly one assumption: b -> d -> e and
     b -> ~e. Assuming [a; b; c] must yield a core containing b and
     neither a nor c (they are free variables). *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  let c = Solver.new_var s and d = Solver.new_var s in
  let e = Solver.new_var s in
  Solver.add_clause s [ Lit.neg b; Lit.pos d ];
  Solver.add_clause s [ Lit.neg d; Lit.pos e ];
  Solver.add_clause s [ Lit.neg b; Lit.neg e ];
  let assumptions = [ Lit.pos a; Lit.pos b; Lit.pos c ] in
  Alcotest.(check bool) "unsat under b" true
    (Solver.solve ~assumptions s = Solver.Unsat);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "b in core" true (List.mem (Lit.pos b) core);
  Alcotest.(check bool) "a not in core" false (List.mem (Lit.pos a) core);
  Alcotest.(check bool) "c not in core" false (List.mem (Lit.pos c) core);
  (* the core alone is refuted; supersets need no new solve to know *)
  Alcotest.(check bool) "core alone unsat" true
    (Solver.solve ~assumptions:core s = Solver.Unsat);
  (* without b everything is satisfiable, and the solver is reusable *)
  Alcotest.(check bool) "sat without b" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.pos c ] s = Solver.Sat);
  (* outright-unsat databases report an empty core *)
  Solver.add_clause s [ Lit.pos b ];
  Alcotest.(check bool) "outright unsat" true
    (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Unsat);
  Alcotest.(check (list int)) "empty core" [] (Solver.unsat_core s)

let test_selector_retirement () =
  (* Budget-style use: a selector guards a clause group that
     contradicts the base formula; retiring it recovers Sat. *)
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s in
  Solver.add_clause s [ Lit.pos x; Lit.pos y ];
  let sel = Solver.new_selector s in
  Solver.add_clause s [ Lit.negate sel; Lit.neg x ];
  Solver.add_clause s [ Lit.negate sel; Lit.neg y ];
  Alcotest.(check bool) "unsat under selector" true
    (Solver.solve ~assumptions:[ sel ] s = Solver.Unsat);
  Solver.retire s sel;
  Alcotest.(check bool) "sat after retirement" true
    (Solver.solve s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check int) "retirement counted" 1 st.Solver.retired;
  (* a second group on a fresh selector is independent of the first *)
  let sel2 = Solver.new_selector s in
  Solver.add_clause s [ Lit.negate sel2; Lit.neg x ];
  Solver.add_clause s [ Lit.negate sel2; Lit.neg y ];
  Alcotest.(check bool) "second group unsat" true
    (Solver.solve ~assumptions:[ sel2 ] s = Solver.Unsat);
  Alcotest.(check bool) "still sat without it" true
    (Solver.solve s = Solver.Sat)

let test_lbd_tiers () =
  (* PHP(8,7) generates thousands of conflicts: the learnt DB must
     fill, reduce, and keep its tier accounting consistent. *)
  let pigeons = 8 and holes = 7 in
  let s = Solver.create () in
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg v.(p1).(h); Lit.neg v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(8,7) unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts seen" true (st.Solver.conflicts > 1000);
  Alcotest.(check bool) "learnts recorded" true (st.Solver.learned > 1000);
  Alcotest.(check bool) "reductions ran" true (st.Solver.reductions >= 1);
  Alcotest.(check bool) "local tier was pruned" true (st.Solver.deleted > 0);
  Alcotest.(check bool) "live tiers within recorded" true
    (st.Solver.learned_core + st.Solver.learned_local <= st.Solver.learned);
  Alcotest.(check bool) "tier counts non-negative" true
    (st.Solver.learned_core >= 0 && st.Solver.learned_local >= 0)

let test_stats_populated () =
  let rng = Prng.create 123 in
  let nv, clauses = random_instance rng ~max_vars:10 ~clause_factor:4 in
  let s = fresh_solver nv clauses in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "propagations counted" true (st.Solver.propagations >= 0)

let () =
  Alcotest.run "sat"
    [ ( "solver",
        [ Alcotest.test_case "lit encoding" `Quick test_lit_encoding;
          Alcotest.test_case "fuzz vs brute force" `Slow test_fuzz_vs_brute_force;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "xor chain" `Quick test_xor_chain_sat;
          Alcotest.test_case "assumptions" `Slow test_assumptions;
          Alcotest.test_case "incremental clauses" `Quick
            test_incremental_clauses;
          Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
          Alcotest.test_case "stats" `Quick test_stats_populated ] );
      ( "incremental",
        [ Alcotest.test_case "fuzz incremental vs fresh" `Slow
            test_fuzz_incremental_vs_fresh;
          Alcotest.test_case "unsat core" `Quick test_unsat_core;
          Alcotest.test_case "selector retirement" `Quick
            test_selector_retirement;
          Alcotest.test_case "lbd tiers" `Quick test_lbd_tiers ] );
      ( "dimacs",
        [ Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "invalid" `Quick test_dimacs_invalid ] ) ]
