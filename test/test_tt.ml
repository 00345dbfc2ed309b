(* Tests for truth tables, NPN classification and DSD analysis. *)

module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Dsd = Stp_tt.Dsd
module Prng = Stp_util.Prng

let tt_testable n =
  Alcotest.testable (fun fmt t -> Tt.pp fmt t) Tt.equal
  |> fun t -> ignore n; t

(* A deterministic random table. *)
let random_tt rng n = Tt.of_fun n (fun _ -> Prng.bool rng)

let test_const_var () =
  Alcotest.(check int) "zero count" 0 (Tt.count_ones (Tt.zero 4));
  Alcotest.(check int) "one count" 16 (Tt.count_ones (Tt.one 4));
  for i = 0 to 3 do
    Alcotest.(check int) "var balanced" 8 (Tt.count_ones (Tt.var 4 i))
  done;
  (* var i is true exactly when bit i of the minterm is set *)
  let v2 = Tt.var 4 2 in
  for m = 0 to 15 do
    Alcotest.(check bool) "var bit" ((m lsr 2) land 1 = 1) (Tt.get v2 m)
  done

let test_var_wide () =
  (* variables above index 6 span whole words *)
  let v7 = Tt.var 8 7 in
  Alcotest.(check int) "wide var balanced" 128 (Tt.count_ones v7);
  Alcotest.(check bool) "m=128" true (Tt.get v7 128);
  Alcotest.(check bool) "m=127" false (Tt.get v7 127)

let test_hex_roundtrip () =
  let cases = [ (4, "8ff8"); (4, "0000"); (4, "ffff"); (3, "e8"); (2, "6") ] in
  List.iter
    (fun (n, h) ->
      Alcotest.(check string) ("roundtrip " ^ h) h (Tt.to_hex (Tt.of_hex ~n h)))
    cases;
  Alcotest.(check string) "0x prefix accepted" "8ff8"
    (Tt.to_hex (Tt.of_hex ~n:4 "0x8ff8"))

let test_hex_invalid () =
  Alcotest.check_raises "too short"
    (Invalid_argument "Tt.of_hex: 4 variables take 4 hex digits, got 3")
    (fun () -> ignore (Tt.of_hex ~n:4 "8ff"));
  Alcotest.check_raises "too long"
    (Invalid_argument "Tt.of_hex: 3 variables take 2 hex digits, got 4")
    (fun () -> ignore (Tt.of_hex ~n:3 "8ff8"));
  Alcotest.check_raises "singular"
    (Invalid_argument "Tt.of_hex: 1 variable takes 1 hex digit, got 2")
    (fun () -> ignore (Tt.of_hex ~n:1 "00"));
  Alcotest.check_raises "bad digit"
    (Invalid_argument "Tt.of_hex: 'z' is not a hexadecimal digit") (fun () ->
      ignore (Tt.of_hex ~n:4 "8fzf"));
  Alcotest.check_raises "digit out of range"
    (Invalid_argument "Tt.of_hex: digit '4' exceeds the 2-bit table of 1 variable")
    (fun () -> ignore (Tt.of_hex ~n:1 "4"));
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Tt.of_hex: arity -1 is outside 0 .. 20") (fun () ->
      ignore (Tt.of_hex ~n:(-1) "0"))

let test_hex_case_insensitive () =
  Alcotest.(check bool) "uppercase" true
    (Tt.equal (Tt.of_hex ~n:4 "8FF8") (Tt.of_hex ~n:4 "8ff8"));
  Alcotest.(check bool) "mixed with prefix" true
    (Tt.equal (Tt.of_hex ~n:4 "0X8Ff8") (Tt.of_hex ~n:4 "8ff8"));
  Alcotest.(check string) "to_hex is lowercase" "8ff8"
    (Tt.to_hex (Tt.of_hex ~n:4 "8FF8"))

let test_get_set () =
  let t = Tt.zero 5 in
  let t = Tt.set t 17 true in
  Alcotest.(check bool) "set" true (Tt.get t 17);
  Alcotest.(check int) "only one" 1 (Tt.count_ones t);
  let t = Tt.set t 17 false in
  Alcotest.(check int) "cleared" 0 (Tt.count_ones t)

let test_boolean_algebra () =
  let rng = Prng.create 1 in
  for n = 1 to 8 do
    let a = random_tt rng n and b = random_tt rng n in
    Alcotest.(check bool) "de morgan" true
      (Tt.equal (Tt.bnot (Tt.band a b)) (Tt.bor (Tt.bnot a) (Tt.bnot b)));
    Alcotest.(check bool) "xor def" true
      (Tt.equal (Tt.bxor a b)
         (Tt.bor (Tt.band a (Tt.bnot b)) (Tt.band (Tt.bnot a) b)));
    Alcotest.(check bool) "double negation" true (Tt.equal a (Tt.bnot (Tt.bnot a)))
  done

let test_apply2_gates () =
  let a = Tt.var 3 0 and b = Tt.var 3 1 in
  Alcotest.(check bool) "and" true (Tt.equal (Tt.apply2 8 a b) (Tt.band a b));
  Alcotest.(check bool) "or" true (Tt.equal (Tt.apply2 14 a b) (Tt.bor a b));
  Alcotest.(check bool) "xor" true (Tt.equal (Tt.apply2 6 a b) (Tt.bxor a b));
  Alcotest.(check bool) "nand" true
    (Tt.equal (Tt.apply2 7 a b) (Tt.bnot (Tt.band a b)));
  Alcotest.(check bool) "const0" true (Tt.equal (Tt.apply2 0 a b) (Tt.zero 3));
  Alcotest.(check bool) "proj a" true (Tt.equal (Tt.apply2 12 a b) a);
  Alcotest.(check bool) "proj b" true (Tt.equal (Tt.apply2 10 a b) b)

let test_apply2_bitwise () =
  (* Every code on random tables of 1-8 variables, against the gate's
     definition minterm by minterm: bit [2 * va + vb] of the code. *)
  let rng = Prng.create 29 in
  for n = 1 to 8 do
    let a = random_tt rng n and b = random_tt rng n in
    for code = 0 to 15 do
      let expected =
        Tt.of_fun n (fun m ->
            let va = Bool.to_int (Tt.get a m) and vb = Bool.to_int (Tt.get b m) in
            (code lsr ((2 * va) + vb)) land 1 = 1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "code %d, %d vars" code n)
        true
        (Tt.equal (Tt.apply2 code a b) expected)
    done
  done

let test_cofactor () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  for i = 0 to 3 do
    let c0 = Tt.cofactor f i false and c1 = Tt.cofactor f i true in
    Alcotest.(check bool) "cofactor fixes var" true
      ((not (Tt.depends_on c0 i)) && not (Tt.depends_on c1 i));
    (* Shannon expansion *)
    let v = Tt.var 4 i in
    let recombined = Tt.bor (Tt.band v c1) (Tt.band (Tt.bnot v) c0) in
    Alcotest.(check bool) "shannon" true (Tt.equal f recombined)
  done

let test_support () =
  let f = Tt.band (Tt.var 5 1) (Tt.var 5 3) in
  Alcotest.(check (list int)) "support" [ 1; 3 ] (Tt.support f);
  Alcotest.(check int) "mask" 0b01010 (Tt.support_mask f);
  Alcotest.(check int) "size" 2 (Tt.support_size f)

let test_permute_negate () =
  let rng = Prng.create 2 in
  let f = random_tt rng 4 in
  (* permuting twice with inverse permutations restores *)
  let perm = [| 2; 0; 3; 1 |] in
  let inv = Array.make 4 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  Alcotest.(check bool) "permute inverse" true
    (Tt.equal f (Tt.permute (Tt.permute f perm) inv));
  (* negate twice restores *)
  Alcotest.(check bool) "negate_var involution" true
    (Tt.equal f (Tt.negate_var (Tt.negate_var f 2) 2));
  (* swap is permute special case *)
  Alcotest.(check bool) "swap twice" true
    (Tt.equal f (Tt.swap_vars (Tt.swap_vars f 1 3) 1 3))

let test_compose () =
  let xor2 = Tt.of_int 2 0b0110 in
  let a = Tt.var 3 0 and b = Tt.var 3 1 and c = Tt.var 3 2 in
  let x = Tt.compose xor2 [| Tt.compose xor2 [| a; b |]; c |] in
  let expected = Tt.bxor (Tt.bxor a b) c in
  Alcotest.(check bool) "xor3 composed" true (Tt.equal x expected)

let test_shrink_expand () =
  let f = Tt.band (Tt.var 6 2) (Tt.bxor (Tt.var 6 4) (Tt.var 6 5)) in
  let shrunk, support = Tt.shrink_to_support f in
  Alcotest.(check (list int)) "support kept" [ 2; 4; 5 ] support;
  Alcotest.(check int) "arity" 3 (Tt.num_vars shrunk);
  let back = Tt.expand shrunk 6 (Array.of_list support) in
  Alcotest.(check bool) "expand inverse" true (Tt.equal back f)

let test_npn_classes_counts () =
  Alcotest.(check int) "n=0" 1 (List.length (Npn.classes 0));
  Alcotest.(check int) "n=1" 2 (List.length (Npn.classes 1));
  Alcotest.(check int) "n=2" 4 (List.length (Npn.classes 2));
  Alcotest.(check int) "n=3" 14 (List.length (Npn.classes 3));
  Alcotest.(check int) "n=4" 222 (List.length (Npn.classes 4))

let test_npn_canonical_invariance () =
  let rng = Prng.create 3 in
  for _ = 1 to 30 do
    let f = random_tt rng 4 in
    let canon, _ = Npn.canonical f in
    (* applying a random transform first must not change the canon *)
    let perm = Array.init 4 (fun i -> i) in
    Prng.shuffle rng perm;
    let tr =
      { Npn.perm; input_neg = Prng.int rng 16; output_neg = Prng.bool rng }
    in
    let canon2, _ = Npn.canonical (Npn.apply f tr) in
    Alcotest.(check bool) "class invariant" true (Tt.equal canon canon2)
  done

let test_npn_inverse_roundtrip () =
  let rng = Prng.create 4 in
  for _ = 1 to 50 do
    let n = 2 + Prng.int rng 3 in
    let f = random_tt rng n in
    let perm = Array.init n (fun i -> i) in
    Prng.shuffle rng perm;
    let tr =
      { Npn.perm; input_neg = Prng.int rng (1 lsl n); output_neg = Prng.bool rng }
    in
    Alcotest.(check bool) "roundtrip" true
      (Tt.equal f (Npn.apply (Npn.apply f tr) (Npn.inverse tr)))
  done

let test_npn_canon4_table () =
  for v = 0 to (1 lsl 16) - 1 do
    let rep, _ = Npn.canonical (Tt.of_int 4 v) in
    if Npn.canon4 v <> Tt.to_int rep then
      Alcotest.failf "canon4 %04x = %04x, canonical gives %04x" v (Npn.canon4 v)
        (Tt.to_int rep)
  done

(* Reference for [Npn.canonical]: apply every transform, in
   [Npn.permutations] x output flag x input mask order, with [Npn.apply]
   and keep the first strict minimum. The word-level implementation
   must return the same representative and transform. *)
module Oracle = struct
  let all_transforms n =
    List.concat_map
      (fun perm ->
        List.concat_map
          (fun output_neg ->
            List.init (1 lsl n) (fun input_neg -> { Npn.perm; input_neg; output_neg }))
          [ false; true ])
      (Npn.permutations n)

  let canonical t =
    let n = Tt.num_vars t in
    let best = ref t and best_tr = ref (Npn.identity n) in
    List.iter
      (fun tr ->
        let cand = Npn.apply t tr in
        if Tt.compare cand !best < 0 then begin
          best := cand;
          best_tr := tr
        end)
      (all_transforms n);
    (!best, !best_tr)
end

let check_against_oracle f =
  let rep, tr = Npn.canonical f in
  let rep', tr' = Oracle.canonical f in
  let name = Tt.to_hex f in
  Alcotest.(check (tt_testable 0)) ("rep " ^ name) rep' rep;
  Alcotest.(check (array int)) ("perm " ^ name) tr'.Npn.perm tr.Npn.perm;
  Alcotest.(check int) ("input_neg " ^ name) tr'.input_neg tr.input_neg;
  Alcotest.(check bool) ("output_neg " ^ name) tr'.output_neg tr.output_neg

let test_npn_oracle_small () =
  for n = 0 to 3 do
    for v = 0 to (1 lsl (1 lsl n)) - 1 do
      check_against_oracle (Tt.of_int n v)
    done
  done

let random_transform rng n =
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  { Npn.perm; input_neg = Prng.int rng (1 lsl n); output_neg = Prng.bool rng }

let test_npn_oracle_4 () =
  let rng = Prng.create 12 in
  for _ = 1 to 2000 do
    check_against_oracle (Tt.of_int 4 (Prng.int rng (1 lsl 16)))
  done;
  (* a random member of every class, so each class's tie-breaking runs *)
  List.iter
    (fun rep -> check_against_oracle (Npn.apply rep (random_transform rng 4)))
    (Npn.classes 4)

let test_npn_oracle_wide () =
  let rng = Prng.create 13 in
  for _ = 1 to 8 do
    check_against_oracle (random_tt rng 5)
  done;
  (* structured members too: ties between transforms are common when a
     function has symmetries *)
  check_against_oracle (Tt.band (Tt.var 5 0) (Tt.bxor (Tt.var 5 3) (Tt.var 5 4)));
  for _ = 1 to 2 do
    check_against_oracle (random_tt rng 6)
  done;
  check_against_oracle (Tt.bor (Tt.var 6 5) (Tt.band (Tt.var 6 1) (Tt.var 6 2)));
  (* the top bit set: one-word tables compare as signed 64-bit words *)
  check_against_oracle (Tt.set (Tt.zero 6) 63 true)

let test_npn_apply_reaches_rep () =
  let rng = Prng.create 14 in
  for n = 0 to 6 do
    for _ = 1 to (if n = 6 then 3 else 40) do
      let f = random_tt rng n in
      let rep, tr = Npn.canonical f in
      Alcotest.(check (tt_testable n)) "apply f tr = rep" rep (Npn.apply f tr)
    done
  done

let test_npn_arity_bound () =
  Alcotest.check_raises "7 variables"
    (Invalid_argument "Npn.canonical: 7 variables, at most 6 supported")
    (fun () -> ignore (Npn.canonical (Tt.var 7 0)))

let test_dsd_kinds () =
  let maj = Tt.of_hex ~n:3 "e8" in
  Alcotest.(check bool) "maj prime" true (Dsd.is_prime maj);
  let xor3 = Tt.of_hex ~n:3 "96" in
  Alcotest.(check bool) "xor3 full" true (Dsd.is_fully_dsd xor3);
  let f = Tt.of_hex ~n:4 "8ff8" in
  Alcotest.(check bool) "ab+c^d full" true (Dsd.is_fully_dsd f);
  Alcotest.(check bool) "const" true (Dsd.kind (Tt.zero 3) = Dsd.Constant);
  Alcotest.(check bool) "literal" true (Dsd.kind (Tt.var 3 1) = Dsd.Literal)

let test_dsd_partial () =
  (* maj(a,b,c) AND d: decomposable at the top but not fully *)
  let maj = Tt.expand (Tt.of_hex ~n:3 "e8") 4 [| 0; 1; 2 |] in
  let f = Tt.band maj (Tt.var 4 3) in
  Alcotest.(check bool) "partial" true (Dsd.kind f = Dsd.Partial)

let test_dsd_split () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  (* split along {a,b} vs {c,d} *)
  match Dsd.split f 0b0011 with
  | None -> Alcotest.fail "expected a split"
  | Some (g, h) ->
    Alcotest.(check bool) "g side" true (Tt.support_mask g land 0b1100 = 0);
    Alcotest.(check bool) "h side" true (Tt.support_mask h land 0b0011 = 0)

let test_dsd_top_splits () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  let splits = Dsd.top_splits f in
  Alcotest.(check bool) "has ab|cd split" true
    (List.exists (fun (a, b) -> a = 0b0011 && b = 0b1100) splits)

let qcheck_permute_preserves_count =
  QCheck.Test.make ~name:"permute preserves count_ones" ~count:100
    QCheck.(pair (int_bound 0xffff) (int_bound 1000))
    (fun (v, seed) ->
      let f = Tt.of_int 4 v in
      let rng = Prng.create seed in
      let perm = Array.init 4 (fun i -> i) in
      Prng.shuffle rng perm;
      Tt.count_ones f = Tt.count_ones (Tt.permute f perm))

let qcheck_npn_apply_preserves_class_size =
  QCheck.Test.make ~name:"canonical is idempotent" ~count:50
    QCheck.(int_bound 0xffff)
    (fun v ->
      let f = Tt.of_int 4 v in
      let c, _ = Npn.canonical f in
      let c2, _ = Npn.canonical c in
      Tt.equal c c2)

let qcheck_cofactor_count =
  QCheck.Test.make ~name:"cofactor counts sum" ~count:100
    QCheck.(pair (int_bound 0xffff) (int_bound 3))
    (fun (v, i) ->
      let f = Tt.of_int 4 v in
      let c0 = Tt.cofactor f i false and c1 = Tt.cofactor f i true in
      Tt.count_ones c0 + Tt.count_ones c1 = 2 * Tt.count_ones f)

let test_pla_parse_basic () =
  let text = ".i 2\n.o 1\n# and gate\n11 1\n.e\n" in
  match Stp_tt.Pla.parse text with
  | [| t |] ->
    Alcotest.(check string) "and" "8" (Tt.to_hex t)
  | _ -> Alcotest.fail "one output expected"

let test_pla_dashes () =
  (* "1- 1" covers minterms where the FIRST (most significant) input is
     1: variable 1 in our numbering *)
  let text = ".i 2\n.o 1\n1- 1\n" in
  match Stp_tt.Pla.parse text with
  | [| t |] ->
    Alcotest.(check bool) "projection of msb var" true
      (Tt.equal t (Tt.var 2 1))
  | _ -> Alcotest.fail "one output"

let test_pla_multi_output () =
  let text = ".i 3\n.o 2\n111 11\n-11 10\n" in
  match Stp_tt.Pla.parse text with
  | [| a; b |] ->
    (* output 1: minterms with x1=x2=1 (low bits), any x3 -> 011 and 111 *)
    Alcotest.(check int) "first output ones" 2 (Tt.count_ones a);
    Alcotest.(check int) "second output ones" 1 (Tt.count_ones b)
  | _ -> Alcotest.fail "two outputs"

let test_pla_roundtrip () =
  let rng = Prng.create 71 in
  for _ = 1 to 20 do
    let n = 1 + Prng.int rng 4 in
    let tables =
      Array.init (1 + Prng.int rng 3) (fun _ -> random_tt rng n)
    in
    let text = Format.asprintf "%a" Stp_tt.Pla.print tables in
    let back = Stp_tt.Pla.parse text in
    Alcotest.(check int) "arity kept" (Array.length tables) (Array.length back);
    Array.iteri
      (fun k t ->
        Alcotest.(check bool) "table kept" true (Tt.equal t back.(k)))
      tables
  done

let test_pla_errors () =
  List.iter
    (fun bad ->
      match Stp_tt.Pla.parse bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected failure for %S" bad)
    [ ""; ".o 1\n11 1\n"; ".i 2\n11 1\n"; ".i 2\n.o 1\n1 1\n";
      ".i 2\n.o 1\n1x 1\n"; ".i 2\n.o 1\n11 2\n" ]

let () =
  ignore (tt_testable 4);
  Alcotest.run "truthtable"
    [ ( "tt",
        [ Alcotest.test_case "const/var" `Quick test_const_var;
          Alcotest.test_case "wide vars" `Quick test_var_wide;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex invalid" `Quick test_hex_invalid;
          Alcotest.test_case "hex case insensitive" `Quick
            test_hex_case_insensitive;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "boolean algebra" `Quick test_boolean_algebra;
          Alcotest.test_case "apply2 gates" `Quick test_apply2_gates;
          Alcotest.test_case "cofactor/shannon" `Quick test_cofactor;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "permute/negate" `Quick test_permute_negate;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "shrink/expand" `Quick test_shrink_expand;
          QCheck_alcotest.to_alcotest qcheck_permute_preserves_count;
          QCheck_alcotest.to_alcotest qcheck_cofactor_count;
          Alcotest.test_case "apply2 bitwise" `Quick test_apply2_bitwise ] );
      ( "npn",
        [ Alcotest.test_case "class counts" `Quick test_npn_classes_counts;
          Alcotest.test_case "canonical invariance" `Quick
            test_npn_canonical_invariance;
          Alcotest.test_case "inverse roundtrip" `Quick test_npn_inverse_roundtrip;
          Alcotest.test_case "canon4 table" `Slow test_npn_canon4_table;
          Alcotest.test_case "oracle n<=3" `Quick test_npn_oracle_small;
          Alcotest.test_case "oracle n=4" `Quick test_npn_oracle_4;
          Alcotest.test_case "oracle n=5,6" `Slow test_npn_oracle_wide;
          Alcotest.test_case "apply reaches rep" `Quick test_npn_apply_reaches_rep;
          Alcotest.test_case "arity bound" `Quick test_npn_arity_bound;
          QCheck_alcotest.to_alcotest qcheck_npn_apply_preserves_class_size ] );
      ( "pla",
        [ Alcotest.test_case "basic" `Quick test_pla_parse_basic;
          Alcotest.test_case "dashes" `Quick test_pla_dashes;
          Alcotest.test_case "multi-output" `Quick test_pla_multi_output;
          Alcotest.test_case "roundtrip" `Quick test_pla_roundtrip;
          Alcotest.test_case "errors" `Quick test_pla_errors ] );
      ( "dsd",
        [ Alcotest.test_case "kinds" `Quick test_dsd_kinds;
          Alcotest.test_case "partial" `Quick test_dsd_partial;
          Alcotest.test_case "split" `Quick test_dsd_split;
          Alcotest.test_case "top splits" `Quick test_dsd_top_splits ] ) ]
