module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Profile = Stp_util.Profile

type cube = { mask : int; value : int }

let cube_compatible a b = (a.value lxor b.value) land (a.mask land b.mask) = 0

let cube_merge a b =
  if cube_compatible a b then
    Some { mask = a.mask lor b.mask; value = a.value lor b.value }
  else None

(* Inside the solver a cube is one int: the mask in bits 31..60, the
   value in bits 0..30. Two compatible cubes merge by [lor], a set's
   support is the [lor] of its cubes shifted down, and two packed cubes
   are equal iff their ints are. *)
let max_inputs = 30
let value_bits = 31
let value_mask = (1 lsl value_bits) - 1

let pack c = (c.mask lsl value_bits) lor c.value
let unpack p = { mask = p lsr value_bits; value = p land value_mask }

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let support xs = Array.fold_left ( lor ) 0 xs lsr value_bits

(* A set is {e reduced} when it holds no duplicate and no cube subsumed
   by another — [d] subsumes [c] when [d] assigns a subset of [c]'s
   positions with the same values. [reduce] sorts, drops adjacent
   duplicates, and then drops subsumed cubes. After dedup a subsuming
   cube distinct from [c] fixes strictly fewer positions (equal
   popcount + subset forces equal masks, hence equal ints), so the pass
   is skipped when every cube fixes as many positions, and otherwise each
   cube scans only the strictly shorter ones. Subsumption is transitive,
   so testing against dropped subsumers too is sound. *)
let reduce a =
  Array.sort (fun (x : int) y -> compare x y) a;
  let len = ref 0 in
  Array.iter
    (fun c ->
      if !len = 0 || a.(!len - 1) <> c then begin
        a.(!len) <- c;
        incr len
      end)
    a;
  let a = Array.sub a 0 !len in
  let pops = Array.map (fun c -> popcount (c lsr value_bits)) a in
  let lo = Array.fold_left min max_int pops
  and hi = Array.fold_left max 0 pops in
  if lo >= hi then a
  else begin
    let shorter = Array.make (hi + 1) [] in
    Array.iteri (fun i c -> shorter.(pops.(i)) <- c :: shorter.(pops.(i))) a;
    let checks = ref 0 in
    let subsumed i c =
      let mc = c lsr value_bits in
      let rec scan p =
        p < pops.(i)
        && (List.exists
              (fun d ->
                incr checks;
                let md = d lsr value_bits in
                md land mc = md && (d lxor c) land md = 0)
              shorter.(p)
            || scan (p + 1))
      in
      scan lo
    in
    let kept = List.filteri (fun i c -> not (subsumed i c)) (Array.to_list a) in
    Profile.add Profile.Cube_subsumption_checks !checks;
    Array.of_list kept
  end

(* The MERGE of Algorithm 1 on two reduced sets; the result is reduced.
   With disjoint supports every pair merges, and the result needs no
   reduce pass: [x lor y] restricted to either support gives back [x]
   and [y], so two equal products come from equal pairs, and a product
   subsuming another forces each factor to subsume the matching factor,
   which reduced inputs rule out unless both are equal. *)
let merge xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 || ny = 0 then [||]
  else if support xs land support ys = 0 then begin
    Profile.add Profile.Cube_merges (nx * ny);
    let out = Array.make (nx * ny) 0 in
    for i = 0 to nx - 1 do
      let x = xs.(i) in
      for j = 0 to ny - 1 do
        out.((i * ny) + j) <- x lor ys.(j)
      done
    done;
    out
  end
  else begin
    let out = Array.make (nx * ny) 0 in
    let k = ref 0 in
    for i = 0 to nx - 1 do
      let x = xs.(i) in
      let mx = x lsr value_bits in
      for j = 0 to ny - 1 do
        let y = ys.(j) in
        if (x lxor y) land mx land (y lsr value_bits) = 0 then begin
          out.(!k) <- x lor y;
          incr k
        end
      done
    done;
    Profile.add Profile.Cube_merges !k;
    reduce (Array.sub out 0 !k)
  end

let merge_sets xs ys =
  let packed l = reduce (Array.of_list (List.map pack l)) in
  Array.to_list (Array.map unpack (merge (packed xs) (packed ys)))

let leaf i v = pack { mask = 1 lsl i; value = (if v then 1 lsl i else 0) }

(* Algorithm 2 at one LUT: every row [m] whose output is [v] contributes
   the merge of its fanin requirements, fanin [j] taking bit [j] of [m].

   The rows are concatenated without a further dedup or subsumption pass,
   and the result is still reduced. Every cube of [fanin j b] makes fanin
   [j] evaluate to [b], so every cube of row [m] forces each fanin to its
   value in [m]. Two distinct rows differ in some fanin's value, so no
   minterm lies in a cube of each: cubes of different rows are disjoint,
   non-empty minterm sets, and one can be neither equal to nor subsumed
   by the other. Within a row, [merge] keeps the set reduced. *)
let lut_solutions ~arity ~row_value ~fanin v =
  let rows = ref [] in
  for m = (1 lsl arity) - 1 downto 0 do
    if row_value m = v then begin
      let acc = ref (fanin 0 (m land 1 = 1)) in
      for j = 1 to arity - 1 do
        if Array.length !acc > 0 then
          acc := merge !acc (fanin j ((m lsr j) land 1 = 1))
      done;
      rows := !acc :: !rows
    end
  done;
  Array.concat !rows

let solve_packed (net : Lut_network.t) ~targets =
  if Array.length targets <> Array.length net.outputs then
    invalid_arg "Circuit_solver.solve: targets arity";
  if net.num_inputs > max_inputs then
    invalid_arg "Circuit_solver.solve: too many inputs for cube masks";
  let memo : (int, int array) Hashtbl.t = Hashtbl.create 97 in
  let rec traverse s v =
    let key = (2 * s) + Bool.to_int v in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        if s < net.num_inputs then [| leaf s v |]
        else
          let l = net.luts.(s - net.num_inputs) in
          lut_solutions ~arity:(Array.length l.fanins) ~row_value:(Tt.get l.tt)
            ~fanin:(fun j b -> traverse l.fanins.(j) b)
            v
      in
      Hashtbl.replace memo key r;
      r
  in
  (* Algorithm 1: per-output solution sets, merged left to right. *)
  let per_output = Array.mapi (fun i o -> traverse o targets.(i)) net.outputs in
  Array.fold_left merge per_output.(0)
    (Array.sub per_output 1 (Array.length per_output - 1))

let solve net ~targets =
  Array.to_list (Array.map unpack (solve_packed net ~targets))

(* At byte offset [8 * ((mask lsl 6) lor value)], for a 6-bit [mask]
   and [value], the word of minterms 0-63 that agree with [value] on the
   variables of [mask]. *)
let low_patterns =
  let vars = Array.init 6 (fun i -> (Tt.to_words (Tt.var 6 i)).(0)) in
  let table = Bytes.create (8 * 64 * 64) in
  for mask = 0 to 63 do
    for value = 0 to 63 do
      let w = ref (-1L) in
      for i = 0 to 5 do
        if (mask lsr i) land 1 = 1 then
          w :=
            Int64.logand !w
              (if (value lsr i) land 1 = 1 then vars.(i)
               else Int64.lognot vars.(i))
      done;
      Bytes.set_int64_ne table (8 * ((mask lsl 6) lor value)) !w
    done
  done;
  table

(* The union of the cubes, word-parallel: a cube's assignments to
   variables 0-5 select a pattern inside a word, its assignments to
   variables 6 and up select which words the pattern lands in.
   [Tt.of_words] clears the bits past [2^n] of a table under 6
   variables. *)
let onset_of_cubes n cubes =
  let n = max n 1 in
  let num_words = if n <= 6 then 1 else 1 lsl (n - 6) in
  let words = Bytes.make (8 * num_words) '\000' in
  let high = num_words - 1 in
  for c = 0 to Array.length cubes - 1 do
    let p = cubes.(c) in
    let mask = p lsr value_bits and value = p land value_mask in
    let pattern =
      Bytes.get_int64_ne low_patterns
        (8 * (((mask land 63) lsl 6) lor (value land 63)))
    in
    (* Every word index that agrees with [fixed] outside [free]. *)
    let free = high land lnot (mask lsr 6) and fixed = value lsr 6 in
    let sub = ref free and more = ref true in
    while !more do
      let k = 8 * (fixed lor !sub) in
      Bytes.set_int64_ne words k (Int64.logor (Bytes.get_int64_ne words k) pattern);
      if !sub = 0 then more := false else sub := (!sub - 1) land free
    done
  done;
  Tt.of_words n (Array.init num_words (fun k -> Bytes.get_int64_ne words (8 * k)))

let onset net ~targets =
  onset_of_cubes net.Lut_network.num_inputs (solve_packed net ~targets)

let count_solutions net ~targets = Tt.count_ones (onset net ~targets)

let is_sat net ~targets = Array.length (solve_packed net ~targets) > 0

let all_minterms net ~targets =
  let t = onset net ~targets in
  let rec loop m acc =
    if m < 0 then acc else loop (m - 1) (if Tt.get t m then m :: acc else acc)
  in
  loop (Tt.num_bits t - 1) []

(* Cones are hash-consed: primary input [i] is cone [i], and a gate
   [(code, a, b)] over cones [a <= b] gets the next id the first time it
   is seen. Algorithm 2's memo is keyed by [2 * cone + value], so every
   chain of the session that contains a cone reuses its solution sets. *)
type session = {
  n : int;
  cones : (int, int) Hashtbl.t;
  gates : (int, int * int * int) Hashtbl.t;
  memo : (int, int array) Hashtbl.t;
}

let session ~n =
  if n < 0 || n > max_inputs then
    invalid_arg "Circuit_solver.session: too many inputs for cube masks";
  { n; cones = Hashtbl.create 97; gates = Hashtbl.create 97;
    memo = Hashtbl.create 97 }

let cone s code a b =
  let code, a, b =
    if a <= b then (code, a, b) else (Stp_chain.Gate.swap_operands code, b, a)
  in
  (* [code] in bits 0-3, [a] in bits 4-32, [b] from bit 33 up. *)
  if b >= 1 lsl 29 then invalid_arg "Circuit_solver.verify: too many cones";
  let key = code lor (a lsl 4) lor (b lsl 33) in
  match Hashtbl.find_opt s.cones key with
  | Some id -> id
  | None ->
    let id = s.n + Hashtbl.length s.cones in
    Hashtbl.replace s.cones key id;
    Hashtbl.replace s.gates id (code, a, b);
    id

let rec traverse s id v =
  let key = (2 * id) + Bool.to_int v in
  match Hashtbl.find_opt s.memo key with
  | Some r -> r
  | None ->
    let r = solutions s id v in
    Hashtbl.replace s.memo key r;
    r

and solutions s id v =
  if id < s.n then [| leaf id v |]
  else
    let code, a, b = Hashtbl.find s.gates id in
    (* Row [m] reads [a] at bit 0 and [b] at bit 1; the gate's output on
       operands (va, vb) is bit [2 * va + vb] of [code]. *)
    lut_solutions ~arity:2
      ~row_value:(fun m -> (code lsr ((2 * (m land 1)) + (m lsr 1))) land 1 = 1)
      ~fanin:(fun j b' -> traverse s (if j = 0 then a else b) b')
      v

(* A complemented output is solved for target [false]: the same rows as
   the complemented output LUT that [Lut_network.of_chain] builds. The
   output cone's own set is not memoised: only a chain equal to this one
   up to dead steps would read it again. *)
let verify s (c : Chain.t) f =
  if c.Chain.n <> s.n then invalid_arg "Circuit_solver.verify: arity";
  let ids = Array.init (c.Chain.n + Chain.size c) Fun.id in
  Array.iteri
    (fun i (st : Chain.step) ->
      ids.(c.Chain.n + i) <- cone s st.gate ids.(st.fanin1) ids.(st.fanin2))
    c.Chain.steps;
  let cubes = solutions s ids.(c.Chain.output) (not c.Chain.output_negated) in
  Tt.equal (onset_of_cubes s.n cubes) f

let verify_chain (c : Chain.t) f = verify (session ~n:c.Chain.n) c f

let pp_cube ~n fmt c =
  Format.fprintf fmt "(";
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf fmt ",";
    if (c.mask lsr i) land 1 = 0 then Format.fprintf fmt "-"
    else Format.fprintf fmt "%d" ((c.value lsr i) land 1)
  done;
  Format.fprintf fmt ")"
