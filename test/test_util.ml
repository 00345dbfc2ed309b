(* Tests for the utility substrate: PRNG determinism and distribution
   sanity, Vec semantics, deadline behaviour. *)

module Prng = Stp_util.Prng
module Vec = Stp_util.Vec
module Deadline = Stp_util.Deadline

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copies aligned" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_int_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_covers () =
  let g = Prng.create 11 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int g 4) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_permutes () =
  let g = Prng.create 9 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 (fun i -> i)) sorted

let test_prng_split_diverges () =
  let g = Prng.create 13 in
  let child = Prng.split g in
  Alcotest.(check bool) "diverges" false
    (Int64.equal (Prng.next_int64 g) (Prng.next_int64 child))

let test_vec_push_pop () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "top" 100 (Vec.top v);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_get_set () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Vec.set v 1 42;
  Alcotest.(check int) "set/get" 42 (Vec.get v 1);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v 3))

let test_vec_shrink_clear () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Vec.shrink v 2;
  Alcotest.(check (list int)) "shrunk" [ 1; 2 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_vec_iter_fold () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  let sum = Vec.fold_left ( + ) 0 v in
  Alcotest.(check int) "fold" 6 sum;
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 3; 2; 1 ] !acc

let test_vec_exists () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_deadline_never () =
  Alcotest.(check bool) "never expires" false (Deadline.expired Deadline.never)

let test_deadline_expires () =
  let d = Deadline.after 0.0 in
  (* Expiry is strict (now > limit): poll until the clock moves on. *)
  let expired = ref false in
  for _ = 1 to 1000 do
    if Deadline.expired d then expired := true
  done;
  Alcotest.(check bool) "expired" true !expired

let test_deadline_check_raises () =
  let d = Deadline.after (-1.0) in
  Alcotest.check_raises "raises" Deadline.Timeout (fun () ->
      for _ = 1 to 1000 do
        Deadline.check d
      done)

let test_deadline_poll_interval () =
  (* Every poll reads the clock, so expiry is seen on the very first
     poll, without sleeping or spinning. *)
  let d = Deadline.after (-1.0) in
  Alcotest.(check bool) "expired on first poll" true (Deadline.expired d);
  Alcotest.(check bool) "stays expired" true (Deadline.expired d);
  let live = Deadline.after 1000.0 in
  Alcotest.(check bool) "not expired" false (Deadline.expired live)

let test_deadline_remaining () =
  let d = Deadline.after 1000.0 in
  Alcotest.(check bool) "remaining positive" true (Deadline.remaining d > 0.0);
  Alcotest.(check bool) "never infinite" true
    (Deadline.remaining Deadline.never = infinity)

let qcheck_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list ~dummy:0 l) = l)

let qcheck_prng_bits =
  QCheck.Test.make ~name:"prng bits within width" ~count:200
    QCheck.(pair small_nat (int_bound 62))
    (fun (seed, k) ->
      let g = Prng.create seed in
      let v = Prng.bits g k in
      v >= 0 && (k = 62 || v < 1 lsl k))

let () =
  Alcotest.run "util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int covers residues" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
          QCheck_alcotest.to_alcotest qcheck_prng_bits ] );
      ( "vec",
        [ Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "get/set" `Quick test_vec_get_set;
          Alcotest.test_case "shrink/clear" `Quick test_vec_shrink_clear;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          Alcotest.test_case "exists" `Quick test_vec_exists;
          QCheck_alcotest.to_alcotest qcheck_vec_roundtrip ] );
      ( "deadline",
        [ Alcotest.test_case "never" `Quick test_deadline_never;
          Alcotest.test_case "expires" `Quick test_deadline_expires;
          Alcotest.test_case "check raises" `Quick test_deadline_check_raises;
          Alcotest.test_case "poll interval" `Quick test_deadline_poll_interval;
          Alcotest.test_case "remaining" `Quick test_deadline_remaining ] ) ]
