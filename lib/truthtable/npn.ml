type transform = {
  perm : int array;
  input_neg : int;
  output_neg : bool;
}

let identity n = { perm = Array.init n (fun i -> i); input_neg = 0; output_neg = false }

let apply t tr =
  let n = Tt.num_vars t in
  if Array.length tr.perm <> n then invalid_arg "Npn.apply";
  let t = ref t in
  for i = 0 to n - 1 do
    if (tr.input_neg lsr i) land 1 = 1 then t := Tt.negate_var !t i
  done;
  let t = Tt.permute !t tr.perm in
  if tr.output_neg then Tt.bnot t else t

let inverse tr =
  let n = Array.length tr.perm in
  (* With sigma the minterm map of perm (bit i of m lands at position
     perm(i)) and nu the negation mask, [apply t tr] computes
     m -> t(sigma(m) xor nu) xor o.  Since sigma is coordinate-linear,
     the inverse is perm' = perm⁻¹ and nu' = sigma⁻¹(nu), same output
     flag: bit j of nu lands at position perm⁻¹(j) of nu'. *)
  let perm' = Array.make n 0 in
  Array.iteri (fun i p -> perm'.(p) <- i) tr.perm;
  let neg' = ref 0 in
  for j = 0 to n - 1 do
    if (tr.input_neg lsr j) land 1 = 1 then neg' := !neg' lor (1 lsl perm'.(j))
  done;
  { perm = perm'; input_neg = !neg'; output_neg = tr.output_neg }

let permutations n =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: ys as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert_everywhere x) (perms xs)
  in
  perms (List.init n (fun i -> i)) |> List.map Array.of_list

let all_transforms n =
  let perms = permutations n in
  List.concat_map
    (fun perm ->
      List.concat_map
        (fun output_neg ->
          List.init (1 lsl n) (fun input_neg -> { perm; input_neg; output_neg }))
        [ false; true ])
    perms

let max_arity = 6

(* Everything [canonical] needs for one arity, built once per arity on
   first use: the transforms in [all_transforms] order, so that index
   [((2 * p + o) lsl n) + nu] is permutation [p], output flag [o] and
   input mask [nu]; and per permutation the minterm map [sigma] (bit [i]
   of [m] moves to position [perm.(i)]) and its inverse. *)
type arity_tables = {
  transforms : transform array;
  sigma : int array array;
  sigma_inv : int array array;
}

let minterm_map n perm =
  Array.init (1 lsl n) (fun m ->
      let r = ref 0 in
      for i = 0 to n - 1 do
        if (m lsr i) land 1 = 1 then r := !r lor (1 lsl perm.(i))
      done;
      !r)

let build_tables n =
  let perms = Array.of_list (permutations n) in
  let invert perm =
    let inv = Array.make n 0 in
    Array.iteri (fun i p -> inv.(p) <- i) perm;
    inv
  in
  { transforms = Array.of_list (all_transforms n);
    sigma = Array.map (minterm_map n) perms;
    sigma_inv = Array.map (fun perm -> minterm_map n (invert perm)) perms }

(* Atomic rather than [Lazy]: forcing a lazy value from two domains at
   once raises, and [canonical] runs inside pool workers. Racing
   builders compute the same tables; one of them is kept. *)
let tables_cache = Array.init (max_arity + 1) (fun _ -> Atomic.make None)

let tables n =
  let cell = tables_cache.(n) in
  match Atomic.get cell with
  | Some t -> t
  | None ->
    ignore (Atomic.compare_and_set cell None (Some (build_tables n)));
    Option.get (Atomic.get cell)

(* Where variable [i] is 1 inside one 64-bit word. *)
let var_patterns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

(* The same patterns cut to 32 bits, for tables held in a native int. *)
let small_patterns =
  Array.map (fun p -> Int64.to_int (Int64.logand p 0xFFFFFFFFL)) var_patterns

(* On the word path a transform's image is
   [m -> t(sigma(m) xor nu) xor o]. Writing [q(m) = t(sigma(m))],
   that is [q(m xor sigma_inv(nu)) xor o]: per permutation, tabulate
   [q] once, derive its [2^n] input-flipped variants by one variable
   swap each, and read every image off that array. *)

(* [iter_small n w f] calls [f k image] for each transform index [k] in
   order, on a table of [n <= 5] variables held in the native int [w]. *)
let iter_small n w f =
  let tb = tables n in
  let size = 1 lsl n in
  let full = (1 lsl size) - 1 in
  let flips = Array.make size 0 in
  Array.iteri
    (fun p sigma ->
      let q = ref 0 in
      for m = 0 to size - 1 do
        q := !q lor (((w lsr sigma.(m)) land 1) lsl m)
      done;
      flips.(0) <- !q;
      for i = 0 to n - 1 do
        let s = 1 lsl i and pat = small_patterns.(i) in
        for j = 0 to s - 1 do
          let x = flips.(j) in
          flips.(s + j) <- ((x land pat) lsr s) lor ((x lsl s) land pat)
        done
      done;
      let sigma_inv = tb.sigma_inv.(p) in
      for o = 0 to 1 do
        let base = ((2 * p) + o) lsl n and x = if o = 1 then full else 0 in
        for nu = 0 to size - 1 do
          f (base + nu) (flips.(sigma_inv.(nu)) lxor x)
        done
      done)
    tb.sigma

(* [canonical] at [n = 6]: the same scan on [Int64] words, ordered as
   {!Tt.compare} orders one-word tables (signed). *)
let canonical6 w =
  let tb = tables 6 in
  let flips = Bigarray.(Array1.create int64 c_layout 64) in
  let best = ref w and best_k = ref 0 in
  (* A [for] loop, not [Array.iteri]: refs a closure captures stay boxed. *)
  for p = 0 to Array.length tb.sigma - 1 do
    let sigma = tb.sigma.(p) and sigma_inv = tb.sigma_inv.(p) in
    let q = ref 0L in
    for m = 0 to 63 do
      let bit = Int64.(logand (shift_right_logical w sigma.(m)) 1L) in
      q := Int64.(logor !q (shift_left bit m))
    done;
    flips.{0} <- !q;
    for i = 0 to 5 do
      let s = 1 lsl i and pat = var_patterns.(i) in
      for j = 0 to s - 1 do
        let x = flips.{j} in
        flips.{s + j} <-
          Int64.(logor (shift_right_logical (logand x pat) s)
                   (logand (shift_left x s) pat))
      done
    done;
    for o = 0 to 1 do
      let base = ((2 * p) + o) lsl 6 in
      for nu = 0 to 63 do
        let c = flips.{sigma_inv.(nu)} in
        let c = if o = 1 then Int64.lognot c else c in
        if c < !best then begin
          best := c;
          best_k := base + nu
        end
      done
    done
  done;
  (Tt.of_words 6 [| !best |], tb.transforms.(!best_k))

(* The first transform in [all_transforms] order whose image is the
   strict minimum; index 0 is the identity, so it wins ties with [t]. *)
let canonical t =
  let n = Tt.num_vars t in
  if n > max_arity then
    invalid_arg
      (Printf.sprintf "Npn.canonical: %d variables, at most %d supported" n
         max_arity);
  if n = max_arity then canonical6 (Tt.to_words t).(0)
  else begin
    let best = ref (Tt.to_int t) and best_k = ref 0 in
    iter_small n !best (fun k c ->
        if c < !best then begin
          best := c;
          best_k := k
        end);
    (Tt.of_int n !best, (tables n).transforms.(!best_k))
  end

let is_canonical t = Tt.equal t (fst (canonical t))

(* Scanning upwards, the first function of each class reached is its
   minimum; it labels its whole orbit. *)
let canon4_table =
  lazy
    (let table = Array.make (1 lsl 16) (-1) in
     for v = 0 to (1 lsl 16) - 1 do
       if table.(v) < 0 then iter_small 4 v (fun _ image -> table.(image) <- v)
     done;
     table)

let canon4 v =
  if v < 0 || v >= 1 lsl 16 then invalid_arg "Npn.canon4";
  (Lazy.force canon4_table).(v)

let classes n =
  if n > 4 then invalid_arg "Npn.classes: n too large for exhaustive sweep";
  let total = 1 lsl (1 lsl n) in
  let visited = Bytes.make total '\000' in
  let reps = ref [] in
  for v = 0 to total - 1 do
    if Bytes.get visited v = '\000' then begin
      reps := Tt.of_int n v :: !reps;
      iter_small n v (fun _ image -> Bytes.set visited image '\001')
    end
  done;
  List.rev !reps
