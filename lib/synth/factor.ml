module Tt = Stp_tt.Tt
module Tmat = Stp_matrix.Tmat
module Kern = Stp_matrix.Kern
module K = Stp_matrix.Kern.Ops
module Gate = Stp_chain.Gate
module Chain = Stp_chain.Chain
module Dag = Stp_topology.Dag
module Profile = Stp_util.Profile

type triple = { phi : Gate.code; g : Tt.t; h : Tt.t }

(* A realisation of a target inside an independent (tree) subtree: gate
   codes and leaf variables listed in the subtree's pre-order. *)
type fragment = { frag_gates : int array; frag_leaves : int array }

(* Feasibility keys: the NPN-canonical representative for small supports
   (an int from the canon4 table), the compacted table otherwise. *)
type feas_key = K4 of int | Kraw of Tt.t

(* Memo tables are keyed through explicit structural equality and the
   truth tables' own 64-bit mixing hashes — the generic polymorphic
   hash walked every boxed int64 of every Tt.t on each of the millions
   of lookups a collection run performs. *)

let mix_int acc h = (((acc lsl 5) + acc) lxor h) land max_int

module FactKey = struct
  type t = Tt.t * Tt.t option * Tt.t option * int * int

  let equal (t1, g1, h1, a1, b1) (t2, g2, h2, a2, b2) =
    a1 = a2 && b1 = b2 && Tt.equal t1 t2
    && Option.equal Tt.equal g1 g2
    && Option.equal Tt.equal h1 h2

  let hash (t, g, h, a, b) =
    let opt = function None -> 0x9e3779b9 | Some x -> Tt.hash x in
    mix_int (mix_int (mix_int (mix_int (Tt.hash t) (opt g)) (opt h)) a) b
end

module FactTbl = Hashtbl.Make (FactKey)

module FeasKey = struct
  type t = feas_key * int

  let equal (k1, b1) (k2, b2) =
    b1 = b2
    && (match (k1, k2) with
       | K4 c1, K4 c2 -> c1 = c2
       | Kraw t1, Kraw t2 -> Tt.equal t1 t2
       | (K4 _ | Kraw _), _ -> false)

  let hash (k, b) =
    mix_int (match k with K4 c -> (c lsl 1) lor 1 | Kraw t -> Tt.hash t lsl 1) b
end

module FeasTbl = Hashtbl.Make (FeasKey)

module RealKey = struct
  type t = string * Tt.t

  let equal (s1, t1) (s2, t2) = String.equal s1 s2 && Tt.equal t1 t2

  let hash (s, t) = mix_int (Hashtbl.hash s) (Tt.hash t)
end

module RealTbl = Hashtbl.Make (RealKey)

module TtTbl = Hashtbl.Make (struct
  type t = Tt.t

  let equal = Tt.equal
  let hash = Tt.hash
end)

module KeyTbl = Hashtbl.Make (struct
  type t = feas_key

  let equal k1 k2 =
    match (k1, k2) with
    | K4 c1, K4 c2 -> c1 = c2
    | Kraw t1, Kraw t2 -> Tt.equal t1 t2
    | (K4 _ | Kraw _), _ -> false

  let hash = function
    | K4 c -> ((c lsl 1) lor 1) land max_int
    | Kraw t -> (Tt.hash t lsl 1) land max_int
end)

module QuadTbl = Hashtbl.Make (struct
  type t = int * int * int * int

  let equal (a1, b1, c1, d1) (a2, b2, c2, d2) =
    a1 = a2 && b1 = b2 && c1 = c2 && d1 = d2

  let hash (a, b, c, d) = mix_int (mix_int (mix_int a b) c) d
end)

(* Learned cover knowledge: which factorisation triples of a cover
   survive the solver's bind filters, given the capability signatures of
   the two child slots. The bind outcome of an unconstrained slot is a
   pure function of (subfunction, slot capability), so survivors learned
   at one DAG node prune the same cover at every sibling topology whose
   slots have the same capabilities. *)
module LearnKey = struct
  type t = Tt.t * int * int * int * int

  let equal (t1, a1, b1, ca1, cb1) (t2, a2, b2, ca2, cb2) =
    a1 = a2 && b1 = b2 && ca1 = ca2 && cb1 = cb2 && Tt.equal t1 t2

  let hash (t, a, b, ca, cb) =
    mix_int (mix_int (mix_int (mix_int (Tt.hash t) a) b) ca) cb
end

module LearnTbl = Hashtbl.Make (LearnKey)

module QKey = struct
  type t = Tt.t * int

  let equal (t1, g1) (t2, g2) = g1 = g2 && Tt.equal t1 t2
  let hash (t, g) = mix_int (Tt.hash t) g
end

module QTbl = Hashtbl.Make (QKey)

(* Resolved knowledge about the minimal tree-leaf count of a function
   class: either the exact minimum, or a bound below which every budget
   has been refuted. [tree_ok] is monotone in the budget, so both facts
   transfer to any later query. *)
type leaves_bound = Exact of int | Refuted_to of int

type memo = {
  factorisations : triple list FactTbl.t;
  feasibility : bool FeasTbl.t;
      (* (target, leaf budget) -> some tree within budget realises it *)
  min_leaves : leaves_bound KeyTbl.t;
  realisations : fragment list RealTbl.t;
  key_cache : feas_key TtTbl.t;
  covers_cache : (int * int) list QuadTbl.t;
  learned : int array LearnTbl.t;
      (* (target, amask, bmask, child capabilities) -> sorted indices of
         the factorisation triples surviving the bind filters; [||] is a
         learned refutation of the whole cover *)
  quarters : int QTbl.t;
      (* (target, group mask) -> capped distinct-block count *)
  basis : int; (* bitmask over the 16 gate codes the engine may use *)
}

let full_basis =
  List.fold_left (fun m g -> m lor (1 lsl g)) 0 Gate.nontrivial

let basis_mask ~what = function
  | None -> full_basis
  | Some gates ->
    let m =
      List.fold_left
        (fun m g ->
          if g < 0 || g > 15 then invalid_arg (what ^ ": basis");
          m lor (1 lsl g))
        0 gates
    in
    (* degenerate codes never appear in optimal chains; mask them out *)
    m land full_basis

let create_memo ?basis () : memo =
  let basis = basis_mask ~what:"Factor.create_memo" basis in
  if basis = 0 then invalid_arg "Factor.create_memo: empty basis";
  { factorisations = FactTbl.create 997;
    feasibility = FeasTbl.create 997;
    min_leaves = KeyTbl.create 997;
    realisations = RealTbl.create 997;
    key_cache = TtTbl.create 997;
    covers_cache = QuadTbl.create 997;
    learned = LearnTbl.create 997;
    quarters = QTbl.create 997;
    basis }

let memo_has_basis memo basis =
  memo.basis = basis_mask ~what:"Factor.memo_has_basis" basis

type stats = {
  mutable decompose_calls : int;
  mutable shapes_tried : int;
  mutable candidates_emitted : int;
  mutable feasibility_checks : int;
  mutable truncated : bool;
}

let fresh_stats () =
  { decompose_calls = 0; shapes_tried = 0; candidates_emitted = 0;
    feasibility_checks = 0; truncated = false }

(* Hard cap on the factorisations enumerated per (target, A, B): fully
   entangled DAG shapes otherwise admit astronomically many block-value
   completions. Hitting the cap is recorded in [stats.truncated]; it
   marks the rare runs whose all-solutions set (not correctness) may be
   incomplete. *)
let decompose_cap = 4096

let vars_of_mask mask n =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if (mask lsr i) land 1 = 1 then i :: acc else acc)
  in
  loop (n - 1) []

let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* Index of the lowest set bit of [x], for 0 < x < 2^32: isolate the
   bit and look its De Bruijn product up in constant time. *)
let lowest_bit_index x =
  Array.unsafe_get debruijn32
    ((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Reusable per-domain scratch arena for the decompose search: per-class
   constraint rows, indicator rows, state planes and the undo trail.
   Backtracking touches only these buffers, so the enumeration itself
   performs no allocation and no reallocation on undo. An arena is sized
   by the class counts of both sides ([ca], [cb]) and the table width in
   words ([tw]); a call that needs more replaces it, once, with one
   covering both its own and the old sizes. *)
type scratch = {
  ca : int;
  cb : int;
  tw : int;
  rows_a : Bytes.t; (* per A class: [valid | target-value], wB words each *)
  rows_b : Bytes.t;
  mind_a : Bytes.t; (* per-class indicator rows, tw words each *)
  mind_b : Bytes.t;
  mst : Bytes.t; (* value/assignedness planes for both sides *)
  mout : Bytes.t;
  mtrail : Bytes.t; (* assigned-class masks, one wmax-word entry per step *)
  tside : int array;
}

let words_of_bits bits = (bits + 63) lsr 6

(* Every trail entry assigns at least one class, so the trail holds at
   most [ca + cb] entries, plus the slot a propagation step writes its
   (possibly empty) result into. *)
let alloc_scratch ~ca ~cb ~tw =
  let wa = words_of_bits ca and wb = words_of_bits cb in
  let wmax = max wa wb and slots = ca + cb + 1 in
  let buf words = Bytes.make (words * 8) '\000' in
  { ca; cb; tw;
    rows_a = buf (ca * 2 * wb);
    rows_b = buf (cb * 2 * wa);
    mind_a = buf (ca * tw);
    mind_b = buf (cb * tw);
    mst = buf (2 * (wa + wb));
    mout = buf tw;
    mtrail = buf (slots * wmax);
    tside = Array.make slots 0 }

let scratch_key : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The first arena covers 7-variable sides and 12-variable targets, which
   is every cover the Table I collections produce. *)
let get_scratch ~ca ~cb ~tw =
  let slot = Domain.DLS.get scratch_key in
  match !slot with
  | Some s when ca <= s.ca && cb <= s.cb && tw <= s.tw ->
    Profile.incr Profile.Arena_reuses;
    s
  | old ->
    let ca0, cb0, tw0 =
      match old with Some s -> (s.ca, s.cb, s.tw) | None -> (128, 128, 64)
    in
    let s = alloc_scratch ~ca:(max ca ca0) ~cb:(max cb cb0) ~tw:(max tw tw0) in
    slot := Some s;
    s

exception Fail

(* All factorisations target = phi(g over A, h over B).  The unknowns are
   the block values g(alpha), h(beta); every joint assignment of the
   A-union-B variables contributes the constraint
   phi(g(alpha), h(beta)) = target(assignment).  Unconstrained block
   values are the paper's don't-care entries 'x' (Property 3): the
   enumeration branches on them, yielding distinct solutions. *)
let decompose_uncached ?memo ?g_fixed ?h_fixed ~allowed ~cap ~target ~amask
    ~bmask () =
  let n = Tt.num_vars target in
  let smask = Tt.support_mask target in
  if smask land lnot (amask lor bmask) <> 0 then []
  else begin
    let avars = Array.of_list (vars_of_mask amask n) in
    let bvars = Array.of_list (vars_of_mask bmask n) in
    let uvars = Array.of_list (vars_of_mask (amask lor bmask) n) in
    let na = Array.length avars
    and nb = Array.length bvars
    and nu = Array.length uvars in
    if na = 0 || nb = 0 then []
    else begin
      (* Position of each A/B variable within the U index. *)
      let upos = Array.make n (-1) in
      Array.iteri (fun j v -> upos.(v) <- j) uvars;
      let asel = Array.map (fun v -> upos.(v)) avars in
      let bsel = Array.map (fun v -> upos.(v)) bvars in
      let gather sel ui =
        let x = ref 0 in
        Array.iteri (fun j p -> if (ui lsr p) land 1 = 1 then x := !x lor (1 lsl j)) sel;
        !x
      in
      (* Disjoint covers admit the paper's quartering test: grouping the
         minterms by either side's assignment must leave exactly two
         distinct blocks. Exactly two is necessary on BOTH sides: the
         engine only emits non-degenerate gates over non-constant
         factors, so every solution's blocks take precisely two values
         over the A classes and two over the B classes. *)
      let distinct2 group =
        (* The capped distinct-block count recurs across the B masks and
           fixed-side variants of the same (target, group) pair; memo
           runs answer it from the quarter cache. *)
        match memo with
        | None -> Tmat.distinct_blocks (Tmat.of_tt target) ~group
        | Some m -> (
          match QTbl.find m.quarters (target, group) with
          | c ->
            Profile.incr Profile.Quarter_cache_hits;
            c
          | exception Not_found ->
            let c = Tmat.distinct_blocks (Tmat.of_tt target) ~group in
            QTbl.replace m.quarters (target, group) c;
            c)
      in
      let quick_reject =
        amask land bmask = 0
        && (Profile.incr Profile.Quarter_tests;
            true)
        && (distinct2 amask <> 2 || distinct2 bmask <> 2)
      in
      if quick_reject then begin
        Profile.incr Profile.Quarter_rejects;
        []
      end
      else begin
        (* The search runs on the {!Stp_matrix.Kern} kernels. Each side's
           block values and assignedness live in flat word planes; one
           kernel call per propagation step computes the whole mask of
           newly forced partner classes, trail entries are word masks
           undone by the undo kernel, and factors are assembled by OR-ing
           per-class multi-word indicator rows. Branching takes the
           lowest unassigned A class first (then B), value 0 before 1, so
           the enumeration order — and with it every capped prefix and
           memo entry — is fixed. *)
        Profile.incr Profile.Multiword_decomposes;
        let kc = ref 0 in
        let wa = 1 lsl na and wb = 1 lsl nb in
        let wA = words_of_bits wa and wB = words_of_bits wb in
        let wmax = if wA > wB then wA else wB in
        let tw = if n <= 6 then 1 else 1 lsl (n - 6) in
        let s = get_scratch ~ca:wa ~cb:wb ~tw in
        let set_bit b woff bit =
          let k = (woff + (bit lsr 6)) lsl 3 in
          Bytes.set_int64_ne b k
            (Int64.logor (Bytes.get_int64_ne b k)
               (Int64.shift_left 1L (bit land 63)))
        in
        let get_bit b woff bit =
          Int64.to_int
            (Int64.shift_right_logical
               (Bytes.get_int64_ne b ((woff + (bit lsr 6)) lsl 3))
               (bit land 63))
          land 1
        in
        Bytes.fill s.rows_a 0 (wa * 2 * wB * 8) '\000';
        Bytes.fill s.rows_b 0 (wb * 2 * wA * 8) '\000';
        for ui = 0 to (1 lsl nu) - 1 do
          let m = ref 0 in
          Array.iteri
            (fun j v -> if (ui lsr j) land 1 = 1 then m := !m lor (1 lsl v))
            uvars;
          let alpha = gather asel ui and beta = gather bsel ui in
          set_bit s.rows_a (alpha * 2 * wB) beta;
          set_bit s.rows_b (beta * 2 * wA) alpha;
          if Tt.get target !m then begin
            set_bit s.rows_a ((alpha * 2 * wB) + wB) beta;
            set_bit s.rows_b ((beta * 2 * wA) + wA) alpha
          end
        done;
        (* Indicator rows of "the side's variables spell class [code]". *)
        let word_mask =
          if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L
        in
        let fill_ind ind vars w =
          for code = 0 to w - 1 do
            for k = 0 to tw - 1 do
              let acc = ref word_mask in
              Array.iteri
                (fun j v ->
                  let p = Kern.word_of_var ~n ~v ~k in
                  acc :=
                    Int64.logand !acc
                      (if (code lsr j) land 1 = 1 then p else Int64.lognot p))
                vars;
              Bytes.set_int64_ne ind (((code * tw) + k) lsl 3) !acc
            done
          done
        in
        fill_ind s.mind_a avars wa;
        fill_ind s.mind_b bvars wb;
        (* State plane layout in [s.mst], in words: [0,wA) g values,
           [wA,2wA) g assignedness, then the same two planes for h. *)
        let aval = 0 and acare = wA in
        let bval = 2 * wA and bcare = (2 * wA) + wB in
        let out_arr = Array.make tw 0L in
        let results = ref [] in
        let count = ref 0 in
        (* The undo trail doubles as the propagation queue: entry [e]
           (words [e * wmax, e * wmax + w) of [s.mtrail], side
           [s.tside.(e)]) is the mask of classes one step assigned, and
           every class it holds still has to force its partners while
           [e >= !qhead]. *)
        let tlen = ref 0 and qhead = ref 0 in
        let push_entry to_a =
          s.tside.(!tlen) <- (if to_a then 1 else 0);
          incr tlen
        in
        let solve_phi phi =
          let bit a b = (phi lsr ((2 * a) + b)) land 1 in
          Bytes.fill s.mst 0 (2 * (wA + wB) * 8) '\000';
          tlen := 0;
          qhead := 0;
          (* Pre-assigned sides (shared DAG children whose function is
             already bound) seed the block values before the search. *)
          let seed vars w voff coff to_a fixed =
            match fixed with
            | None -> ()
            | Some f ->
              let base = !tlen * wmax in
              Bytes.fill s.mtrail (base lsl 3) (words_of_bits w lsl 3) '\000';
              for code = 0 to w - 1 do
                let m = ref 0 in
                Array.iteri
                  (fun j v ->
                    if (code lsr j) land 1 = 1 then m := !m lor (1 lsl v))
                  vars;
                set_bit s.mst coff code;
                if Tt.get f !m then set_bit s.mst voff code;
                set_bit s.mtrail base code
              done;
              push_entry to_a
          in
          seed avars wa aval acare true g_fixed;
          seed bvars wb bval bcare false h_fixed;
          (* Consequences of a class being assigned: the kernel writes
             the mask of newly forced partner classes straight into the
             next trail slot. *)
          let force_from_a idx =
            let v = get_bit s.mst aval idx in
            incr kc;
            let r =
              K.force s.rows_a (idx * 2 * wB) s.mst bval bcare s.mtrail
                (!tlen * wmax) wB (bit v 0) (bit v 1)
            in
            if r < 0 then raise Fail;
            if r > 0 then push_entry false
          in
          let force_from_b idx =
            let v = get_bit s.mst bval idx in
            incr kc;
            let r =
              K.force s.rows_b (idx * 2 * wA) s.mst aval acare s.mtrail
                (!tlen * wmax) wA (bit 0 v) (bit 1 v)
            in
            if r < 0 then raise Fail;
            if r > 0 then push_entry true
          in
          (* Entries are drained in trail order: unit propagation is
             confluent, so the closure — and with it every branch
             decision — does not depend on the processing order. *)
          let rec scan force bit0 v =
            if v <> 0 then begin
              force (bit0 + lowest_bit_index v);
              scan force bit0 (v land (v - 1))
            end
          in
          let rec drain () =
            if !qhead < !tlen then begin
              let e = !qhead in
              incr qhead;
              let to_a = s.tside.(e) = 1 in
              let force = if to_a then force_from_a else force_from_b in
              for k = 0 to (if to_a then wA else wB) - 1 do
                let x = Bytes.get_int64_ne s.mtrail (((e * wmax) + k) lsl 3) in
                scan force (k * 64) (Int64.to_int (Int64.logand x 0xFFFFFFFFL));
                scan force ((k * 64) + 32)
                  (Int64.to_int (Int64.shift_right_logical x 32))
              done;
              drain ()
            end
          in
          let set is_a idx v =
            let base = !tlen * wmax in
            for k = 0 to wmax - 1 do
              Bytes.set_int64_ne s.mtrail ((base + k) lsl 3) 0L
            done;
            set_bit s.mtrail base idx;
            push_entry is_a;
            if is_a then begin
              set_bit s.mst acare idx;
              if v = 1 then set_bit s.mst aval idx
            end
            else begin
              set_bit s.mst bcare idx;
              if v = 1 then set_bit s.mst bval idx
            end;
            drain ()
          in
          let rollback mark =
            while !tlen > mark do
              decr tlen;
              incr kc;
              let base = !tlen * wmax in
              if s.tside.(!tlen) = 1 then
                K.undo s.mst aval acare s.mtrail base wA
              else K.undo s.mst bval bcare s.mtrail base wB
            done;
            qhead := mark
          in
          let emit () =
            (* Reject constant factors. *)
            kc := !kc + 2;
            if
              not
                (K.is_const_row s.mst aval wa || K.is_const_row s.mst bval wb)
            then begin
              kc := !kc + 2;
              K.assemble s.mind_a 0 s.mst aval wa tw s.mout 0;
              for k = 0 to tw - 1 do
                out_arr.(k) <- Bytes.get_int64_ne s.mout (k lsl 3)
              done;
              let g = Tt.of_words n out_arr in
              K.assemble s.mind_b 0 s.mst bval wb tw s.mout 0;
              for k = 0 to tw - 1 do
                out_arr.(k) <- Bytes.get_int64_ne s.mout (k lsl 3)
              done;
              let h = Tt.of_words n out_arr in
              results := { phi; g; h } :: !results;
              incr count
            end
          in
          let rec search () =
            if !count < cap then begin
              incr kc;
              let ia = K.first_unset s.mst acare wa in
              let is_a = ia >= 0 in
              let idx =
                if is_a then ia
                else begin
                  incr kc;
                  K.first_unset s.mst bcare wb
                end
              in
              if idx < 0 then emit ()
              else begin
                let mark = !tlen in
                (try
                   set is_a idx 0;
                   search ()
                 with Fail -> ());
                rollback mark;
                if !count < cap then begin
                  try
                    set is_a idx 1;
                    search ()
                  with Fail -> ()
                end;
                rollback mark
              end
            end
          in
          match drain () with () -> search () | exception Fail -> ()
        in
        List.iter
          (fun phi ->
            if (allowed lsr phi) land 1 = 1 && !count < cap then solve_phi phi)
          Gate.nontrivial;
        Profile.add Profile.Multiword_kernel_calls !kc;
        List.rev !results
      end
    end
  end

(* [take cap] of a list emitted in deterministic order equals running
   the capped enumeration directly: the search explores a fixed order
   and the cap only stops it early. *)
let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let decompose ?memo ?g_fixed ?h_fixed ~cap ~target ~amask ~bmask () =
  match memo with
  | None ->
    Profile.incr Profile.Decompose_calls;
    Profile.time Profile.Decompose (fun () ->
        decompose_uncached ?g_fixed ?h_fixed ~allowed:full_basis ~cap ~target
          ~amask ~bmask ())
  | Some memo ->
    (* The cached value is always the full (decompose_cap-bounded)
       enumeration, truncated per call: this keeps the cache contents —
       and therefore every caller's view — independent of which call
       site happened to populate the entry first, which is what lets a
       memo be reused across the instances of a collection run. *)
    let key = (target, g_fixed, h_fixed, amask, bmask) in
    let full =
      match FactTbl.find memo.factorisations key with
      | r ->
        Profile.incr Profile.Decompose_cache_hits;
        r
      | exception Not_found ->
        Profile.incr Profile.Decompose_calls;
        let r =
          Profile.time Profile.Decompose (fun () ->
              decompose_uncached ~memo ?g_fixed ?h_fixed ~allowed:memo.basis
                ~cap:(max cap decompose_cap) ~target ~amask ~bmask ())
        in
        FactTbl.replace memo.factorisations key r;
        r
    in
    if List.compare_length_with full cap <= 0 then full else take cap full

(* Enumerate covers (amask, bmask) of the support of [t]: every support
   variable goes to the A side, the B side, or both; side sizes respect
   the slot capacities; the number of shared variables cannot exceed the
   slack between slots and support size. *)
let covers ?max_shared ~support ~slots_a ~slots_b () =
  let vars = Array.of_list support in
  let k = Array.length vars in
  let slack =
    let s = (slots_a + slots_b) - k in
    match max_shared with None -> s | Some m -> min m s
  in
  let out = ref [] in
  let rec go i amask bmask ca cb shared =
    if ca > slots_a || cb > slots_b || shared > slack then ()
    else if i = k then begin
      if ca >= 1 && cb >= 1 then out := (amask, bmask) :: !out
    end
    else begin
      let bit = 1 lsl vars.(i) in
      go (i + 1) (amask lor bit) bmask (ca + 1) cb shared;
      go (i + 1) amask (bmask lor bit) ca (cb + 1) shared;
      go (i + 1) (amask lor bit) (bmask lor bit) (ca + 1) (cb + 1) (shared + 1)
    end
  in
  go 0 0 0 0 0 0;
  !out

let popcount_mask x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let decompose_tracked ?g_fixed ?h_fixed ~memo ~stats ~target ~amask ~bmask () =
  let triples =
    decompose ~memo ?g_fixed ?h_fixed ~cap:decompose_cap ~target ~amask ~bmask ()
  in
  if List.compare_length_with triples decompose_cap >= 0 then
    stats.truncated <- true;
  triples

(* Disjoint covers first: they are the cheap, common case, and the
   entangled ones only matter when no disjoint split exists. Cover lists
   depend only on (support set, slot counts), so they are cached. *)
let covers_ordered ?(max_shared = max_int) ~memo ~support ~slots_a ~slots_b () =
  let smask = List.fold_left (fun m v -> m lor (1 lsl v)) 0 support in
  let key = (smask, slots_a, slots_b, max_shared) in
  match QuadTbl.find memo.covers_cache key with
  | cs -> cs
  | exception Not_found ->
    let cs = covers ~max_shared ~support ~slots_a ~slots_b () in
    let overlap (a, b) = popcount_mask (a land b) in
    let cs =
      List.stable_sort (fun c1 c2 -> Stdlib.compare (overlap c1) (overlap c2)) cs
    in
    QuadTbl.replace memo.covers_cache key cs;
    cs

let proj_var_of tt =
  (* If tt is exactly the projection of one variable, return it. *)
  match Tt.support tt with
  | [ v ] when Tt.equal tt (Tt.var (Tt.num_vars tt) v) -> Some v
  | _ -> None

(* Per-node structural data used for pruning: the number of distinct
   internal nodes of the sub-DAG, the number of reachable leaf slots, and
   a tree-expansion signature under which subtree feasibility results are
   shared across shapes. *)
(* Tree feasibility is invariant under NPN transforms of the target:
   negations fold into gate codes, permutations relabel leaves. Keying
   the memo on a canonical representative collapses the search space by
   orders of magnitude; functions of up to four support variables use
   the precomputed table, larger supports fall back to the raw
   support-compacted table. *)
let feasibility_key memo t =
  match TtTbl.find memo.key_cache t with
  | k -> k
  | exception Not_found ->
    let shrunk, _ = Tt.shrink_to_support t in
    let k = Tt.num_vars shrunk in
    let key =
      (* NPN-canonical keys are only sound when the basis is closed
         under input/output complementation and operand swap; the
         built-in full basis is. Restricted bases use raw keys. *)
      if k <= 4 && memo.basis = full_basis then
        let embedded =
          if k = 4 then shrunk
          else Tt.expand shrunk 4 (Array.init k (fun i -> i))
        in
        K4 (Stp_tt.Npn.canon4 (Tt.to_int embedded))
      else Kraw shrunk
    in
    TtTbl.replace memo.key_cache t key;
    key

(* Bounded tree feasibility: can ANY tree chain with at most [budget]
   leaves (possibly repeating variables) realise [t]?  A sound necessary
   condition for realisability inside any sub-DAG whose tree expansion
   has [budget] leaves, memoised globally on (function, budget) — the
   budget strictly decreases through the recursion, so the test
   terminates even though overlapping splits do not shrink supports. *)
let rec tree_ok ~memo ~stats ~deadline t budget =
  let k = Tt.support_size t in
  if k = 0 then false
  else if k = 1 then proj_var_of t <> None
  else if budget < k then false
  else if k = 2 && single_gate_realises memo t then true
  else if k = 2 && budget = 2 then false
  else if memo.basis = full_basis && k = 2 then true
  else if memo.basis = full_basis && budget >= 3 * k then true
    (* ample room: do not spend time *)
  else begin
    let key = (feasibility_key memo t, budget) in
    match FeasTbl.find memo.feasibility key with
    | r ->
      Profile.incr Profile.Feasibility_cache_hits;
      r
    | exception Not_found ->
      Stp_util.Deadline.check deadline;
      stats.feasibility_checks <- stats.feasibility_checks + 1;
      Profile.incr Profile.Feasibility_checks;
      let support = Tt.support t in
      let result =
        Profile.time Profile.Feasibility (fun () ->
            List.exists
              (fun (amask, bmask) ->
                List.exists
                  (fun { phi = _; g; h } ->
                    match
                      min_tree_leaves ~memo ~stats ~deadline g (budget - 1)
                    with
                    | None -> false
                    | Some la -> tree_ok ~memo ~stats ~deadline h (budget - la))
                  (decompose ~memo ~cap:decompose_cap ~target:t ~amask ~bmask ()))
              (covers_ordered ~max_shared:(budget - k) ~memo ~support
                 ~slots_a:(budget - 1) ~slots_b:(budget - 1) ()))
      in
      FeasTbl.replace memo.feasibility key result;
      result
  end

(* Is [t] (a function of exactly two variables) one allowed gate applied
   to the two support variables? *)
and single_gate_realises memo t =
  match Tt.support t with
  | [ z1; z2 ] ->
    let phi = ref 0 in
    for a = 0 to 1 do
      for b = 0 to 1 do
        let m = (a lsl z1) lor (b lsl z2) in
        if Tt.get t m then phi := !phi lor (1 lsl ((2 * a) + b))
      done
    done;
    (memo.basis lsr !phi) land 1 = 1
  | _ -> false

(* Smallest leaf budget at most [upper] under which [t] is
   tree-realisable.  The answer is a function of the NPN feasibility key
   alone ([tree_ok] is monotone in the budget), so the scan's outcome is
   cached per key: an [Exact] minimum answers every later query with one
   lookup, and a [Refuted_to] bound lets a later scan with a larger
   budget resume where the previous one stopped instead of re-probing
   the per-(key, budget) feasibility memo for every budget. *)
and min_tree_leaves ~memo ~stats ~deadline t upper =
  let k = Tt.support_size t in
  let start = max k 1 in
  if upper < start then None
  else begin
    let key = feasibility_key memo t in
    let scan_from refuted =
      if refuted >= upper then None
      else begin
        let rec scan l =
          if l > upper then begin
            KeyTbl.replace memo.min_leaves key (Refuted_to upper);
            None
          end
          else if tree_ok ~memo ~stats ~deadline t l then begin
            KeyTbl.replace memo.min_leaves key (Exact l);
            Some l
          end
          else scan (l + 1)
        in
        scan (max start (refuted + 1))
      end
    in
    match KeyTbl.find memo.min_leaves key with
    | Exact m -> if m <= upper then Some m else None
    | Refuted_to r -> scan_from r
    | exception Not_found -> scan_from (start - 1)
  end

(* Per-node structural data used for pruning and memoisation: distinct
   and tree-expansion gate/leaf counts, plus two signatures of the
   sub-DAG's tree expansion — a sorted one for feasibility results and an
   order-preserving one for realisation fragments (whose node/leaf
   traversal order matters). *)
type node_info = {
  sig_sorted : string;
  sig_ordered : string;
  gates_below : int;  (* distinct internal nodes, including the node *)
  leaves_below : int; (* distinct reachable leaf slots *)
  tree_gates : int;   (* nodes of the tree expansion (shared = copies) *)
  tree_leaves : int;  (* leaves of the tree expansion *)
  independent : bool; (* true tree: no node below (or here) has fanout > 1 *)
}

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let node_infos shape =
  let num = Dag.num_nodes shape in
  let node_reach = Array.make num 0 in
  let fanout = Array.make num 0 in
  Array.iter
    (fun (a, b) ->
      (match a with Dag.N j -> fanout.(j) <- fanout.(j) + 1 | Dag.L _ -> ());
      match b with Dag.N j -> fanout.(j) <- fanout.(j) + 1 | Dag.L _ -> ())
    shape.Dag.fanins;
  let dummy =
    { sig_sorted = ""; sig_ordered = ""; gates_below = 0; leaves_below = 0;
      tree_gates = 0; tree_leaves = 0; independent = false }
  in
  let infos = Array.make num dummy in
  for i = 0 to num - 1 do
    let fa, fb = shape.Dag.fanins.(i) in
    let reach_of = function
      | Dag.N j -> node_reach.(j) lor (1 lsl j)
      | Dag.L _ -> 0
    in
    node_reach.(i) <- reach_of fa lor reach_of fb;
    let ssig = function Dag.N j -> infos.(j).sig_sorted | Dag.L _ -> "L" in
    let osig = function Dag.N j -> infos.(j).sig_ordered | Dag.L _ -> "L" in
    let tg = function Dag.N j -> infos.(j).tree_gates | Dag.L _ -> 0 in
    let tl = function Dag.N j -> infos.(j).tree_leaves | Dag.L _ -> 1 in
    let indep = function Dag.N j -> infos.(j).independent | Dag.L _ -> true in
    let sa = ssig fa and sb = ssig fb in
    let lo, hi = if sa <= sb then (sa, sb) else (sb, sa) in
    let children_independent =
      indep fa && indep fb
      && (match fa with Dag.N j -> fanout.(j) = 1 | Dag.L _ -> true)
      && (match fb with Dag.N j -> fanout.(j) = 1 | Dag.L _ -> true)
    in
    infos.(i) <-
      { sig_sorted = "(" ^ lo ^ hi ^ ")";
        sig_ordered = "(" ^ osig fa ^ osig fb ^ ")";
        gates_below = 1 + popcount node_reach.(i);
        leaves_below = popcount shape.Dag.reach.(i);
        tree_gates = 1 + tg fa + tg fb;
        tree_leaves = tl fa + tl fb;
        independent = children_independent }
  done;
  (infos, node_reach)

let solve_shape ?(deadline = Stp_util.Deadline.never) ?memo ?stats ~cap ~shape
    ~target () =
  let n = Tt.num_vars target in
  let memo = match memo with Some m -> m | None -> create_memo () in
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  stats.shapes_tried <- stats.shapes_tried + 1;
  let num = Dag.num_nodes shape in
  let infos, node_reach = node_infos shape in
  let targets = Array.make num None in
  let gates = Array.make num 0 in
  let handled = Array.make num false in
  let leaf_var = Array.make (max shape.Dag.num_leaves 1) (-1) in
  let chains = ref [] in
  let count = ref 0 in
  targets.(num - 1) <- Some target;
  let slot_cap = function
    | Dag.N j -> infos.(j).leaves_below
    | Dag.L _ -> 1
  in
  (* Feasibility of realising [t] in the sub-DAG of a fanin.  Two sound
     tests combine: (a) the bounded-tree test on the sub-DAG's tree
     expansion over-approximates realisability (shared nodes become
     independent copies); (b) because smaller gate counts were exhausted
     before this round, no sub-DAG may hold a function that a strictly
     smaller tree realises — otherwise the whole chain would compress
     below the current round, contradicting its minimality. *)
  let feasible side t =
    match side with
    | Dag.L _ -> proj_var_of t <> None
    | Dag.N j ->
      let k = Tt.support_size t in
      k >= 2
      && infos.(j).tree_leaves >= k
      && infos.(j).tree_gates >= k - 1
      && (match
            min_tree_leaves ~memo ~stats ~deadline t infos.(j).tree_leaves
          with
         | None -> false
         | Some mtl ->
           (* Minimality prune: a sub-DAG may not hold a function a
              strictly smaller tree realises. Only sound when the tree
              bound is exact: full basis, and below the ample-room
              shortcut region of [tree_ok]. *)
           memo.basis <> full_basis
           || mtl >= 3 * k
           || mtl - 1 >= infos.(j).gates_below)
  in
  (* Pre-order traversals of an independent subtree, for mapping memoised
     fragments onto this shape's node and leaf identifiers. *)
  let subtree_order j =
    let nodes = ref [] and leaves = ref [] in
    let rec walk = function
      | Dag.L s -> leaves := s :: !leaves
      | Dag.N i ->
        nodes := i :: !nodes;
        let fa, fb = shape.Dag.fanins.(i) in
        walk fa;
        walk fb
    in
    walk (Dag.N j);
    (Array.of_list (List.rev !nodes), Array.of_list (List.rev !leaves))
  in
  (* All realisations of [t] at an independent subtree, memoised by the
     ordered tree signature. A fragment stores gate codes and leaf
     variables in pre-order. *)
  let rec realize j t : fragment list =
    Stp_util.Deadline.check deadline;
    let support = Tt.support t in
    let k = List.length support in
    if k < 2 || infos.(j).tree_leaves < k || infos.(j).tree_gates < k - 1 then []
    else begin
      let key = (infos.(j).sig_ordered, t) in
      match RealTbl.find memo.realisations key with
      | r ->
        Profile.incr Profile.Realisation_cache_hits;
        r
      | exception Not_found ->
        Profile.incr Profile.Realisation_cache_misses;
        let fa, fb = shape.Dag.fanins.(j) in
        let result =
          Profile.time Profile.Realise @@ fun () ->
          match (fa, fb) with
          | Dag.L _, Dag.L _ ->
            if k = 2 then begin
              let z1, z2 =
                match support with [ a; b ] -> (a, b) | _ -> assert false
              in
              let phi = ref 0 in
              for a = 0 to 1 do
                for b = 0 to 1 do
                  let m = (a lsl z1) lor (b lsl z2) in
                  if Tt.get t m then phi := !phi lor (1 lsl ((2 * a) + b))
                done
              done;
              if (memo.basis lsr !phi) land 1 = 1 then
                [ { frag_gates = [| !phi |]; frag_leaves = [| z1; z2 |] } ]
              else []
            end
            else []
          | _ ->
            let acc = ref [] in
            let realise_side side f =
              match side with
              | Dag.L _ -> (
                match proj_var_of f with
                | Some z ->
                  [ { frag_gates = [||]; frag_leaves = [| z |] } ]
                | None -> [])
              | Dag.N c ->
                (* Minimality: within an independent subtree of tl leaves,
                   the function must not fit a smaller tree — only sound
                   for the exact (full-basis, non-shortcut) tree bound. *)
                let tl = infos.(c).tree_leaves in
                let kf = Tt.support_size f in
                if
                  tree_ok ~memo ~stats ~deadline f tl
                  && not
                       (memo.basis = full_basis && tl > 2
                       && tl - 1 < 3 * kf
                       && tree_ok ~memo ~stats ~deadline f (tl - 1))
                then realize c f
                else []
            in
            List.iter
              (fun (amask, bmask) ->
                stats.decompose_calls <- stats.decompose_calls + 1;
                List.iter
                  (fun { phi; g; h } ->
                    if List.length !acc < cap then begin
                      let frags_a = realise_side fa g in
                      if frags_a <> [] then begin
                        let frags_b = realise_side fb h in
                        List.iter
                          (fun fra ->
                            List.iter
                              (fun frb ->
                                if List.length !acc < cap then
                                  acc :=
                                    { frag_gates =
                                        Array.concat
                                          [ [| phi |]; fra.frag_gates;
                                            frb.frag_gates ];
                                      frag_leaves =
                                        Array.append fra.frag_leaves
                                          frb.frag_leaves }
                                    :: !acc)
                              frags_b)
                          frags_a
                      end
                    end)
                  (decompose_tracked ~memo ~stats ~target:t ~amask ~bmask ()))
              (covers_ordered ~memo ~support ~slots_a:(slot_cap fa)
               ~slots_b:(slot_cap fb) ());
            if List.length !acc >= cap then stats.truncated <- true;
            List.rev !acc
        in
        RealTbl.replace memo.realisations key result;
        result
    end
  in
  let emit () =
    let steps =
      Array.to_list
        (Array.mapi
           (fun i (fa, fb) ->
             let signal = function
               | Dag.N j -> n + j
               | Dag.L s -> leaf_var.(s)
             in
             { Chain.fanin1 = signal fa; fanin2 = signal fb; gate = gates.(i) })
           shape.Dag.fanins)
    in
    let chain = Chain.make ~n ~steps ~output:(n + num - 1) () in
    chains := chain :: !chains;
    incr count;
    stats.candidates_emitted <- stats.candidates_emitted + 1;
    Profile.incr Profile.Chains_emitted
  in
  let fixed_target = function
    | Dag.N j -> targets.(j)
    | Dag.L _ -> None
  in
  (* Capability signature of a child slot: everything [bind] consults
     about the slot besides the bound function itself, packed into one
     int ([-1] marks a leaf slot). Two slots with equal signatures
     accept exactly the same subfunctions, which is what makes learned
     survivor sets transfer across sibling topologies. *)
  let cap_of = function
    | Dag.L _ -> -1
    | Dag.N j ->
      let inf = infos.(j) in
      inf.leaves_below
      lor (inf.gates_below lsl 8)
      lor (inf.tree_leaves lsl 16)
      lor (inf.tree_gates lsl 32)
  in
  (* Bind a side to a subfunction; returns an undo closure, or None if the
     binding is inconsistent or provably unrealisable. *)
  let bind side f =
    match side with
    | Dag.N j -> (
      match targets.(j) with
      | None ->
        let k = Tt.support_size f in
        if
          k <= infos.(j).leaves_below
          && k - 1 <= infos.(j).gates_below
          && feasible side f
        then begin
          targets.(j) <- Some f;
          Some (fun () -> targets.(j) <- None)
        end
        else None
      | Some f0 -> if Tt.equal f f0 then Some (fun () -> ()) else None)
    | Dag.L s -> (
      match proj_var_of f with
      | Some z ->
        leaf_var.(s) <- z;
        Some (fun () -> leaf_var.(s) <- -1)
      | None -> None)
  in
  let rec assign node =
    Stp_util.Deadline.check deadline;
    if !count >= cap then stats.truncated <- true
    else if node < 0 then emit ()
    else if handled.(node) then assign (node - 1)
    else begin
      let t = match targets.(node) with Some t -> t | None -> assert false in
      let support = Tt.support t in
      let k = List.length support in
      let fa, fb = shape.Dag.fanins.(node) in
      if k < 2 then () (* a 2-input step realising t would be degenerate *)
      else if infos.(node).independent then begin
        (* Whole independent subtree at once, from the memoised
           realisations. *)
        let node_order, leaf_order = subtree_order node in
        let inner = node_reach.(node) in
        List.iter
          (fun frag ->
            if !count < cap then begin
              Array.iteri (fun p i -> gates.(i) <- frag.frag_gates.(p)) node_order;
              Array.iteri
                (fun p s -> leaf_var.(s) <- frag.frag_leaves.(p))
                leaf_order;
              for i = 0 to num - 1 do
                if (inner lsr i) land 1 = 1 then handled.(i) <- true
              done;
              assign (node - 1);
              for i = 0 to num - 1 do
                if (inner lsr i) land 1 = 1 then handled.(i) <- false
              done;
              Array.iter (fun s -> leaf_var.(s) <- -1) leaf_order
            end)
          (realize node t)
      end
      else begin
        (* Returns true iff the triple passed every bind filter (the
           recursion below it runs regardless); recorded as a learned
           survivor when the slots are unconstrained. *)
        let try_triple { phi; g; h } =
          if !count >= cap then false
          else begin
            (* Internal/internal pairs computing complementary or equal
               functions cannot occur in a size-optimal chain. *)
            let both_internal =
              match (fa, fb) with Dag.N _, Dag.N _ -> true | _ -> false
            in
            if both_internal && (Tt.equal g h || Tt.equal_bnot g h) then false
            else
              match bind fa g with
              | None -> false
              | Some undo_a -> (
                match bind fb h with
                | None ->
                  undo_a ();
                  false
                | Some undo_b ->
                  gates.(node) <- phi;
                  assign (node - 1);
                  undo_b ();
                  undo_a ();
                  true)
          end
        in
        let slots_a = slot_cap fa and slots_b = slot_cap fb in
        if slots_a + slots_b >= k then begin
          let cover_list = covers_ordered ~memo ~support ~slots_a ~slots_b () in
          let no_fixed side =
            match fixed_target side with None -> true | Some _ -> false
          in
          (* Learning is sound only for unconstrained slots: a pre-bound
             child folds its fixed function into the bind outcome, which
             the learned key does not capture. *)
          let learnable = no_fixed fa && no_fixed fb in
          let capa = cap_of fa and capb = cap_of fb in
          List.iter
            (fun (amask, bmask) ->
              if !count < cap then begin
                if learnable then begin
                  let lkey = (t, amask, bmask, capa, capb) in
                  match LearnTbl.find memo.learned lkey with
                  | [||] ->
                    (* Learned refutation: no triple of this cover can
                       bind into slots of these capabilities. *)
                    Profile.incr Profile.Learned_prunes
                  | surv ->
                    Profile.incr Profile.Learned_replays;
                    stats.decompose_calls <- stats.decompose_calls + 1;
                    let triples =
                      decompose_tracked ~memo ~stats ~target:t ~amask ~bmask ()
                    in
                    let si = ref 0 in
                    let ns = Array.length surv in
                    List.iteri
                      (fun i tr ->
                        if !si < ns && surv.(!si) = i then begin
                          incr si;
                          ignore (try_triple tr)
                        end)
                      triples
                  | exception Not_found ->
                    stats.decompose_calls <- stats.decompose_calls + 1;
                    let triples =
                      decompose_tracked ~memo ~stats ~target:t ~amask ~bmask ()
                    in
                    let buf = Array.make (List.length triples + 1) 0 in
                    let ns = ref 0 in
                    List.iteri
                      (fun i tr ->
                        if try_triple tr then begin
                          buf.(!ns) <- i;
                          incr ns
                        end)
                      triples;
                    (* Record only complete passes: once the chain cap
                       trips, try_triple stops binding and the survivor
                       set would be truncated. *)
                    if !count < cap then
                      LearnTbl.replace memo.learned lkey
                        (Array.sub buf 0 !ns)
                end
                else begin
                  (* Pre-filter covers against already-fixed child
                     targets. *)
                  let ok_fixed side mask =
                    match fixed_target side with
                    | None -> true
                    | Some f0 -> Tt.support_mask f0 land lnot mask = 0
                  in
                  if ok_fixed fa amask && ok_fixed fb bmask then begin
                    stats.decompose_calls <- stats.decompose_calls + 1;
                    let triples =
                      decompose_tracked ~memo ~stats ~target:t ~amask ~bmask ()
                    in
                    List.iter (fun tr -> ignore (try_triple tr)) triples
                  end
                end
              end)
            cover_list
        end
      end
    end
  in
  if
    Tt.support_size target >= 2
    && shape.Dag.num_leaves >= Tt.support_size target
    && feasible (Dag.N (num - 1)) target
  then assign (num - 1);
  if !count >= cap then stats.truncated <- true;
  !chains
