type t = {
  n : int;
  words : int64 array; (* ceil(2^n / 64) words; unused high bits are 0 *)
}

let max_vars = 20

let num_vars t = t.n

let num_bits t = 1 lsl t.n

let num_words n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Mask of significant bits in the (single) word of a small table. *)
let small_mask n =
  if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let check_arity a b = if a.n <> b.n then invalid_arg "Tt: arity mismatch"

let const n b =
  if n < 0 || n > max_vars then invalid_arg "Tt.const";
  let w = if b then small_mask n else 0L in
  { n; words = Array.make (num_words n) w }

let zero n = const n false

let one n = const n true

(* Pattern of variable [i] inside one 64-bit word, for i < 6. *)
let var_patterns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let var n i =
  if i < 0 || i >= n then invalid_arg "Tt.var";
  let words = Array.make (num_words n) 0L in
  if i < 6 then begin
    let p = Int64.logand var_patterns.(i) (small_mask n) in
    Array.iteri (fun k _ -> words.(k) <- p) words
  end
  else begin
    (* Word k holds minterms [64k, 64k+64); variable i is bit (i-6) of k. *)
    let bit = i - 6 in
    Array.iteri
      (fun k _ -> if (k lsr bit) land 1 = 1 then words.(k) <- -1L)
      words
  end;
  { n; words }

let get t m =
  if m < 0 || m >= num_bits t then invalid_arg "Tt.get";
  let w = t.words.(m lsr 6) in
  Int64.(logand (shift_right_logical w (m land 63)) 1L) = 1L

let set t m b =
  if m < 0 || m >= num_bits t then invalid_arg "Tt.set";
  let words = Array.copy t.words in
  let k = m lsr 6 and o = m land 63 in
  let bit = Int64.shift_left 1L o in
  words.(k) <-
    (if b then Int64.logor words.(k) bit
     else Int64.logand words.(k) (Int64.lognot bit));
  { n = t.n; words }

let of_fun n f =
  if n < 0 || n > max_vars then invalid_arg "Tt.of_fun";
  let words = Array.make (num_words n) 0L in
  for m = 0 to (1 lsl n) - 1 do
    if f m then begin
      let k = m lsr 6 and o = m land 63 in
      words.(k) <- Int64.logor words.(k) (Int64.shift_left 1L o)
    end
  done;
  { n; words }

let of_int n v =
  if n < 0 || n > 6 then invalid_arg "Tt.of_int";
  { n; words = [| Int64.logand (Int64.of_int v) (small_mask n) |] }

let to_int t =
  if num_bits t > 62 then invalid_arg "Tt.to_int";
  Int64.to_int t.words.(0)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ ->
    invalid_arg
      (Printf.sprintf "Tt.of_hex: %C is not a hexadecimal digit" c)

let of_hex ~n s =
  if n < 0 || n > max_vars then
    invalid_arg
      (Printf.sprintf "Tt.of_hex: arity %d is outside 0 .. %d" n max_vars);
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2)
    else s
  in
  let digits = if n < 2 then 1 else 1 lsl (n - 2) in
  if String.length s <> digits then
    invalid_arg
      (Printf.sprintf "Tt.of_hex: %d variable%s %s %d hex digit%s, got %d" n
         (if n = 1 then "" else "s")
         (if n = 1 then "takes" else "take")
         digits
         (if digits = 1 then "" else "s")
         (String.length s));
  let bits_per_digit = if n >= 2 then 4 else 1 lsl n in
  let words = Array.make (num_words n) 0L in
  String.iteri
    (fun idx c ->
      let d = hex_digit c in
      if n < 2 && d lsr bits_per_digit <> 0 then
        invalid_arg
          (Printf.sprintf
             "Tt.of_hex: digit %C exceeds the %d-bit table of %d variable%s"
             c bits_per_digit n
             (if n = 1 then "" else "s"));
      (* Digit idx (from the left) covers the highest remaining bits. *)
      let lo = (digits - 1 - idx) * bits_per_digit in
      for b = 0 to bits_per_digit - 1 do
        if (d lsr b) land 1 = 1 then begin
          let m = lo + b in
          let k = m lsr 6 and o = m land 63 in
          words.(k) <- Int64.logor words.(k) (Int64.shift_left 1L o)
        end
      done)
    s;
  { n; words }

let to_hex t =
  let n = t.n in
  let digits = if n < 2 then 1 else 1 lsl (n - 2) in
  let bits_per_digit = if n >= 2 then 4 else 1 lsl n in
  let buf = Buffer.create digits in
  for idx = 0 to digits - 1 do
    let lo = (digits - 1 - idx) * bits_per_digit in
    let d = ref 0 in
    for b = bits_per_digit - 1 downto 0 do
      let m = lo + b in
      let w = t.words.(m lsr 6) in
      let bit = Int64.(to_int (logand (shift_right_logical w (m land 63)) 1L)) in
      d := (!d lsl 1) lor bit
    done;
    Buffer.add_char buf "0123456789abcdef".[!d]
  done;
  Buffer.contents buf

let to_bin t =
  let bits = num_bits t in
  String.init bits (fun i -> if get t (bits - 1 - i) then '1' else '0')

let count_ones t =
  let count64 x =
    let rec loop x acc =
      if Int64.equal x 0L then acc
      else loop Int64.(logand x (sub x 1L)) (acc + 1)
    in
    loop x 0
  in
  Array.fold_left (fun acc w -> acc + count64 w) 0 t.words

let map1 f t = { n = t.n; words = Array.map f t.words }

let map2 f a b =
  check_arity a b;
  { n = a.n; words = Array.map2 f a.words b.words }

let bnot t =
  let m = small_mask t.n in
  map1 (fun w -> Int64.logand (Int64.lognot w) m) t

let band = map2 Int64.logand

let bor = map2 Int64.logor

let bxor = map2 Int64.logxor

let equal a b = a.n = b.n && Array.for_all2 Int64.equal a.words b.words

(* [equal a (bnot b)] without materialising the complement. *)
let equal_bnot a b =
  a.n = b.n
  &&
  let m = small_mask a.n in
  let rec loop i =
    i < 0
    || (Int64.equal a.words.(i) (Int64.logand (Int64.lognot b.words.(i)) m)
       && loop (i - 1))
  in
  loop (Array.length a.words - 1)

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c
  else
    let rec loop i =
      if i < 0 then 0
      else
        let c = Int64.compare a.words.(i) b.words.(i) in
        if c <> 0 then c else loop (i - 1)
    in
    loop (Array.length a.words - 1)

(* Mixing in the native int domain: [Int64.mul] would box its result
   on every word of every lookup of the synthesis memo tables. *)
let hash t =
  let acc = ref (t.n + 1) in
  for k = 0 to Array.length t.words - 1 do
    let h = Int64.to_int (Array.unsafe_get t.words k) * 0x9E3779B97F4A7C1 in
    acc := (!acc * 31) + (h land max_int)
  done;
  !acc

let apply2 code a b =
  check_arity a b;
  if code < 0 || code > 15 then invalid_arg "Tt.apply2";
  (* out = OR over the minterms (va, vb) of [code] of (a-literal AND
     b-literal), one word at a time; [sel i] is all ones when bit [i]
     of [code] is set. *)
  let sel i = Int64.neg (Int64.of_int ((code lsr i) land 1)) in
  let s00 = sel 0 and s01 = sel 1 and s10 = sel 2 and s11 = sel 3 in
  let m = small_mask a.n in
  map2
    (fun x y ->
      let nx = Int64.lognot x and ny = Int64.lognot y in
      Int64.logand m
        (Int64.logor
           (Int64.logor
              (Int64.logand s00 (Int64.logand nx ny))
              (Int64.logand s01 (Int64.logand nx y)))
           (Int64.logor
              (Int64.logand s10 (Int64.logand x ny))
              (Int64.logand s11 (Int64.logand x y)))))
    a b

let cofactor t i b =
  if i < 0 || i >= t.n then invalid_arg "Tt.cofactor";
  if i < 6 then begin
    let shift = 1 lsl i in
    let p = var_patterns.(i) in
    let words =
      Array.map
        (fun w ->
          if b then
            let hi = Int64.logand w p in
            Int64.logor hi (Int64.shift_right_logical hi shift)
          else
            let lo = Int64.logand w (Int64.lognot p) in
            Int64.logor lo (Int64.shift_left lo shift)
          )
        t.words
    in
    let m = small_mask t.n in
    { n = t.n; words = Array.map (fun w -> Int64.logand w m) words }
  end
  else begin
    let bit = i - 6 in
    let words =
      Array.mapi
        (fun k _ ->
          let src = if b then k lor (1 lsl bit) else k land lnot (1 lsl bit) in
          t.words.(src))
        t.words
    in
    { n = t.n; words }
  end

(* Word-parallel dependence test, no intermediate cofactor tables:
   [support_size] runs per candidate factor in the synthesis inner
   loop, so it must not allocate. *)
let depends_on t i =
  if i < 0 || i >= t.n then invalid_arg "Tt.depends_on";
  let words = t.words in
  if i < 6 then begin
    (* Positions pair up in-word: the function depends on [i] iff some
       pair's low and high halves differ. Unused high bits are 0 on
       both sides of the shift, so no end masking is needed. *)
    let shift = 1 lsl i in
    let np = Int64.lognot var_patterns.(i) in
    let rec loop k =
      k >= 0
      &&
      let w = Array.unsafe_get words k in
      (not
         (Int64.equal
            (Int64.logand (Int64.logxor w (Int64.shift_right_logical w shift))
               np)
            0L))
      || loop (k - 1)
    in
    loop (Array.length words - 1)
  end
  else begin
    let bit = 1 lsl (i - 6) in
    let rec loop k =
      k >= 0
      && ((k land bit = 0
          && not
               (Int64.equal (Array.unsafe_get words k)
                  (Array.unsafe_get words (k lor bit))))
         || loop (k - 1))
    in
    loop (Array.length words - 1)
  end

let support_mask t =
  let m = ref 0 in
  for i = 0 to t.n - 1 do
    if depends_on t i then m := !m lor (1 lsl i)
  done;
  !m

let support_size t =
  let rec pc x acc = if x = 0 then acc else pc (x land (x - 1)) (acc + 1) in
  pc (support_mask t) 0

let support t =
  let m = support_mask t in
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if (m lsr i) land 1 = 1 then i :: acc else acc)
  in
  loop (t.n - 1) []

let permute t perm =
  if Array.length perm <> t.n then invalid_arg "Tt.permute";
  let n = t.n in
  of_fun n (fun m ->
      (* Result minterm m: variable perm.(i) of t sees bit i of m. *)
      let src = ref 0 in
      for i = 0 to n - 1 do
        if (m lsr i) land 1 = 1 then src := !src lor (1 lsl perm.(i))
      done;
      get t !src)

let negate_var t i =
  if i < 0 || i >= t.n then invalid_arg "Tt.negate_var";
  if i < 6 then begin
    let shift = 1 lsl i in
    let p = var_patterns.(i) in
    let np = Int64.lognot p in
    let words =
      Array.map
        (fun w ->
          Int64.logor
            (Int64.shift_right_logical (Int64.logand w p) shift)
            (Int64.shift_left (Int64.logand w np) shift))
        t.words
    in
    let m = small_mask t.n in
    { n = t.n; words = Array.map (fun w -> Int64.logand w m) words }
  end
  else begin
    let bit = i - 6 in
    let words = Array.mapi (fun k _ -> t.words.(k lxor (1 lsl bit))) t.words in
    { n = t.n; words }
  end

let swap_vars t i j =
  if i = j then t
  else begin
    let n = t.n in
    let perm = Array.init n (fun k -> if k = i then j else if k = j then i else k) in
    permute t perm
  end

let compose f gs =
  if Array.length gs <> f.n then invalid_arg "Tt.compose";
  if Array.length gs = 0 then invalid_arg "Tt.compose: zero arity";
  let n = gs.(0).n in
  Array.iter (fun g -> if g.n <> n then invalid_arg "Tt.compose") gs;
  (* Shannon expansion of f over the composed arguments, bit-parallel. *)
  let rec eval f i =
    (* f restricted over variables >= i already fixed; recurse on var i. *)
    if i = f.n then if get f 0 then one n else zero n
    else
      match is_const_aux f with
      | Some true -> one n
      | Some false -> zero n
      | None ->
        let f0 = cofactor f i false and f1 = cofactor f i true in
        if equal f0 f1 then eval f0 (i + 1)
        else
          let r0 = eval f0 (i + 1) and r1 = eval f1 (i + 1) in
          bor (band gs.(i) r1) (band (bnot gs.(i)) r0)
  and is_const_aux f =
    let m = small_mask f.n in
    if Array.for_all (fun w -> Int64.equal w 0L) f.words then Some false
    else if Array.for_all (fun w -> Int64.equal w m) f.words then Some true
    else None
  in
  eval f 0

let is_const t =
  let m = small_mask t.n in
  Array.for_all (fun w -> Int64.equal w 0L) t.words
  || Array.for_all (fun w -> Int64.equal w m) t.words

let is_const_of t =
  let m = small_mask t.n in
  if Array.for_all (fun w -> Int64.equal w 0L) t.words then Some false
  else if Array.for_all (fun w -> Int64.equal w m) t.words then Some true
  else None

let shrink_to_support t =
  let sup = support t in
  let k = List.length sup in
  let sup_arr = Array.of_list sup in
  let shrunk =
    of_fun k (fun m ->
        (* Place bit i of m at variable sup_arr.(i); others at 0. *)
        let src = ref 0 in
        Array.iteri
          (fun i v -> if (m lsr i) land 1 = 1 then src := !src lor (1 lsl v))
          sup_arr;
        get t !src)
  in
  (shrunk, sup)

let expand t n placement =
  if Array.length placement <> t.n then invalid_arg "Tt.expand";
  Array.iter
    (fun p -> if p < 0 || p >= n then invalid_arg "Tt.expand")
    placement;
  of_fun n (fun m ->
      let src = ref 0 in
      Array.iteri
        (fun i p -> if (m lsr p) land 1 = 1 then src := !src lor (1 lsl i))
        placement;
      get t !src)

let to_words t = Array.copy t.words

let of_words n words =
  if n < 0 || n > max_vars then invalid_arg "Tt.of_words";
  if Array.length words <> num_words n then
    invalid_arg "Tt.of_words: wrong word count";
  let m = small_mask n in
  { n; words = Array.map (fun w -> Int64.logand w m) words }

let pp fmt t = Format.fprintf fmt "%d'h%s" t.n (to_hex t)
