(* Differential tests for the multi-word kernels: the C stubs the solver
   runs and the pure-OCaml reference implement one contract and must
   agree bit-for-bit on every input, including the degenerate corners
   (saturated and constant rows, partial trailing words). *)

module Kern = Stp_matrix.Kern
module C = Kern.C_ops
module O = Kern.Ocaml_ops

let st = Random.State.make [| 0x5eed; 713 |]

let rand_bytes words =
  let b = Bytes.create (words * 8) in
  for k = 0 to words - 1 do
    Bytes.set_int64_ne b (k * 8)
      (Random.State.int64 st Int64.max_int)
  done;
  b

let fill_const b words v =
  for k = 0 to words - 1 do
    Bytes.set_int64_ne b (k * 8) v
  done

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_first_unset_const () =
  for _ = 1 to 300 do
    let w = 1 + Random.State.int st 3 in
    let b = rand_bytes w in
    let nbits = 1 + Random.State.int st (w * 64) in
    checki "first_unset" (O.first_unset b 0 nbits) (C.first_unset b 0 nbits);
    check "is_const" (O.is_const_row b 0 nbits) (C.is_const_row b 0 nbits)
  done;
  let b = Bytes.create 16 in
  fill_const b 2 (-1L);
  checki "saturated (c)" (-1) (C.first_unset b 0 128);
  checki "saturated (ml)" (-1) (O.first_unset b 0 128);
  check "const ones (c)" true (C.is_const_row b 0 77);
  fill_const b 2 0L;
  check "const zeros (ml)" true (O.is_const_row b 0 77);
  (* first clear bit beyond nbits reports -1 *)
  fill_const b 2 (-1L);
  Bytes.set_int64_ne b 8 0x7FFFFFFFFFFFFFFFL;
  checki "clear past nbits" (-1) (C.first_unset b 0 100);
  checki "clear past nbits (ml)" (-1) (O.first_unset b 0 100)

(* One random propagation step, run on two copies of the same state by
   the two implementations: return codes, newly-forced masks and state
   planes must all match; on conflict both must leave state untouched. *)
let test_force_undo () =
  for _ = 1 to 500 do
    let w = 1 + Random.State.int st 2 in
    let rows = rand_bytes (2 * w) in
    let st_c = rand_bytes (2 * w) in
    (* keep val inside care to form a sane partial assignment *)
    for k = 0 to w - 1 do
      let care = Bytes.get_int64_ne st_c ((w + k) * 8) in
      Bytes.set_int64_ne st_c (k * 8)
        (Int64.logand (Bytes.get_int64_ne st_c (k * 8)) care)
    done;
    let st_o = Bytes.copy st_c in
    let n_c = Bytes.create (w * 8) and n_o = Bytes.create (w * 8) in
    let ok0 = Random.State.int st 2 and ok1 = Random.State.int st 2 in
    let rc = C.force rows 0 st_c 0 w n_c 0 w ok0 ok1 in
    let ro = O.force rows 0 st_o 0 w n_o 0 w ok0 ok1 in
    checki "force rc" ro rc;
    check "force state" true (Bytes.equal st_c st_o);
    if rc >= 0 then check "force newly" true (Bytes.equal n_c n_o);
    if rc > 0 then begin
      (* undo must restore the pre-force state on both *)
      let before = Bytes.copy st_o in
      O.undo before 0 w n_o 0 w;
      C.undo st_c 0 w n_c 0 w;
      O.undo st_o 0 w n_o 0 w;
      check "undo agree" true (Bytes.equal st_c st_o)
    end
  done

let test_assemble () =
  for _ = 1 to 200 do
    let tw = 1 + Random.State.int st 3 in
    let count = 1 + Random.State.int st 64 in
    let inds = rand_bytes (count * tw) in
    let sel = rand_bytes ((count + 63) / 64) in
    let out_c = Bytes.create (tw * 8) and out_o = Bytes.create (tw * 8) in
    C.assemble inds 0 sel 0 count tw out_c 0;
    O.assemble inds 0 sel 0 count tw out_o 0;
    check "assemble agree" true (Bytes.equal out_c out_o)
  done

let test_word_of_var () =
  (* word_of_var must reproduce the truth-table variable projections. *)
  let module Tt = Stp_tt.Tt in
  for n = 1 to 8 do
    for v = 0 to n - 1 do
      let words = Tt.to_words (Tt.var n v) in
      Array.iteri
        (fun k w ->
          Alcotest.(check int64)
            (Printf.sprintf "var n=%d v=%d k=%d" n v k)
            w
            (Kern.word_of_var ~n ~v ~k))
        words
    done
  done

let () =
  Alcotest.run "kern"
    [ ( "differential",
        [ Alcotest.test_case "first_unset + is_const_row" `Quick
            test_first_unset_const;
          Alcotest.test_case "force + undo" `Quick test_force_undo;
          Alcotest.test_case "assemble" `Quick test_assemble ] );
      ( "tables",
        [ Alcotest.test_case "word_of_var matches Tt.var" `Quick
            test_word_of_var ] ) ]
