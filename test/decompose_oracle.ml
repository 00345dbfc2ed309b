(* The list-based factorisation engine, kept as the reference that
   [Factor.decompose] is compared against. Block values live in plain
   int arrays (-1 = unassigned), constraints in per-class lists and the
   undo trail in a vector; it has no width limit and no scratch arena.
   It branches in the same order as [Factor.decompose] (lowest
   unassigned A class first, then B, value 0 before 1), so both emit
   the same triples in the same order.

   Unlike [Factor.decompose] it runs no quartering reject on disjoint
   covers: its answer on a rejected cover must come out empty, so the
   comparison also checks that the reject is sound. *)

module Tt = Stp_tt.Tt
module Gate = Stp_chain.Gate

type triple = { phi : Gate.code; g : Tt.t; h : Tt.t }

exception Fail

let vars_of_mask mask n =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if (mask lsr i) land 1 = 1 then i :: acc else acc)
  in
  loop (n - 1) []

let full_basis = List.fold_left (fun m g -> m lor (1 lsl g)) 0 Gate.nontrivial

(* [basis] is a gate-code list as for [Factor.create_memo]. *)
let decompose ?basis ?g_fixed ?h_fixed ~cap ~target ~amask ~bmask () =
  let allowed =
    match basis with
    | None -> full_basis
    | Some gates -> List.fold_left (fun m g -> m lor (1 lsl g)) 0 gates
  in
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
      let upos = Array.make n (-1) in
      Array.iteri (fun j v -> upos.(v) <- j) uvars;
      let asel = Array.map (fun v -> upos.(v)) avars in
      let bsel = Array.map (fun v -> upos.(v)) bvars in
      let gather sel ui =
        let x = ref 0 in
        Array.iteri (fun j p -> if (ui lsr p) land 1 = 1 then x := !x lor (1 lsl j)) sel;
        !x
      in
      (* Constraints: per (alpha, beta) the required target value. *)
      let a_cons = Array.make (1 lsl na) [] in
      let b_cons = Array.make (1 lsl nb) [] in
      for ui = 0 to (1 lsl nu) - 1 do
        let m = ref 0 in
        Array.iteri
          (fun j v -> if (ui lsr j) land 1 = 1 then m := !m lor (1 lsl v))
          uvars;
        let v = Tt.get target !m in
        let alpha = gather asel ui and beta = gather bsel ui in
        a_cons.(alpha) <- (beta, v) :: a_cons.(alpha);
        b_cons.(beta) <- (alpha, v) :: b_cons.(beta)
      done;
      let results = ref [] in
      let count = ref 0 in
      let solve_phi phi =
        let bit a b = (phi lsr ((2 * a) + b)) land 1 in
        let ga = Array.make (1 lsl na) (-1) in
        let hb = Array.make (1 lsl nb) (-1) in
        let trail = Stp_util.Vec.create ~dummy:(true, 0) () in
        (* Pre-assigned sides (shared DAG children whose function is
           already bound) seed the block values before the search. *)
        let seed arr sel fixed =
          match fixed with
          | None -> ()
          | Some f ->
            Array.iteri
              (fun idx _ ->
                (* idx enumerates the side's classes; rebuild the minterm *)
                ignore idx)
              arr;
            for ci = 0 to Array.length arr - 1 do
              let m = ref 0 in
              Array.iteri
                (fun j p ->
                  ignore p;
                  if (ci lsr j) land 1 = 1 then
                    m := !m lor (1 lsl (if sel == asel then avars.(j) else bvars.(j))))
                sel;
              arr.(ci) <- (if Tt.get f !m then 1 else 0)
            done
        in
        seed ga asel g_fixed;
        seed hb bsel h_fixed;
        let rec set_a alpha v =
          if ga.(alpha) = -1 then begin
            ga.(alpha) <- v;
            Stp_util.Vec.push trail (true, alpha);
            List.iter
              (fun (beta, tv) ->
                (* allowed b values under phi(v, b) = tv *)
                let b0 = bit v 0 = Bool.to_int tv and b1 = bit v 1 = Bool.to_int tv in
                match (b0, b1) with
                | true, true -> ()
                | true, false -> set_b beta 0
                | false, true -> set_b beta 1
                | false, false -> raise Fail)
              a_cons.(alpha)
          end
          else if ga.(alpha) <> v then raise Fail
        and set_b beta v =
          if hb.(beta) = -1 then begin
            hb.(beta) <- v;
            Stp_util.Vec.push trail (false, beta);
            List.iter
              (fun (alpha, tv) ->
                let a0 = bit 0 v = Bool.to_int tv and a1 = bit 1 v = Bool.to_int tv in
                match (a0, a1) with
                | true, true -> ()
                | true, false -> set_a alpha 0
                | false, true -> set_a alpha 1
                | false, false -> raise Fail)
              b_cons.(beta)
          end
          else if hb.(beta) <> v then raise Fail
        in
        let rollback mark =
          while Stp_util.Vec.length trail > mark do
            let is_a, idx = Stp_util.Vec.pop trail in
            if is_a then ga.(idx) <- -1 else hb.(idx) <- -1
          done
        in
        let gather_minterm m =
          (* Repack a full minterm into the U index. *)
          let x = ref 0 in
          Array.iteri
            (fun j v -> if (m lsr v) land 1 = 1 then x := !x lor (1 lsl j))
            uvars;
          !x
        in
        let emit () =
          (* Reject constant factors. *)
          let const arr =
            let v0 = arr.(0) in
            Array.for_all (fun v -> v = v0) arr
          in
          if not (const ga || const hb) then begin
            let g =
              Tt.of_fun n (fun m -> ga.(gather asel (gather_minterm m)) = 1)
            and h =
              Tt.of_fun n (fun m -> hb.(gather bsel (gather_minterm m)) = 1)
            in
            results := { phi; g; h } :: !results;
            incr count
          end
        in
        let seeded_consistent () =
          (* Every constrained pair with both sides seeded must satisfy
             phi; pairs with one seeded side propagate through the
             regular search. *)
          try
            Array.iteri
              (fun alpha cons ->
                if ga.(alpha) >= 0 then
                  List.iter
                    (fun (beta, tv) ->
                      if hb.(beta) >= 0 then begin
                        if (bit ga.(alpha) hb.(beta) = 1) <> tv then raise Fail
                      end
                      else begin
                        let v = ga.(alpha) in
                        let b0 = bit v 0 = Bool.to_int tv
                        and b1 = bit v 1 = Bool.to_int tv in
                        match (b0, b1) with
                        | true, true -> ()
                        | true, false -> set_b beta 0
                        | false, true -> set_b beta 1
                        | false, false -> raise Fail
                      end)
                    cons)
              a_cons;
            Array.iteri
              (fun beta cons ->
                if hb.(beta) >= 0 then
                  List.iter
                    (fun (alpha, tv) ->
                      if ga.(alpha) < 0 then begin
                        let v = hb.(beta) in
                        let a0 = bit 0 v = Bool.to_int tv
                        and a1 = bit 1 v = Bool.to_int tv in
                        match (a0, a1) with
                        | true, true -> ()
                        | true, false -> set_a alpha 0
                        | false, true -> set_a alpha 1
                        | false, false -> raise Fail
                      end)
                    cons)
              b_cons;
            true
          with Fail -> false
        in
        let rec search () =
          if !count >= cap then ()
          else begin
            (* Next unassigned block value. *)
            let rec find_a i =
              if i = Array.length ga then None
              else if ga.(i) = -1 then Some (true, i)
              else find_a (i + 1)
            and find_b i =
              if i = Array.length hb then None
              else if hb.(i) = -1 then Some (false, i)
              else find_b (i + 1)
            in
            match (match find_a 0 with None -> find_b 0 | s -> s) with
            | None -> emit ()
            | Some (is_a, idx) ->
              let mark = Stp_util.Vec.length trail in
              (try
                 if is_a then set_a idx 0 else set_b idx 0;
                 search ()
               with Fail -> ());
              rollback mark;
              if !count < cap then begin
                try
                  if is_a then set_a idx 1 else set_b idx 1;
                  search ()
                with Fail -> ()
              end;
              rollback mark
          end
        in
        if seeded_consistent () then search ()
      in
      List.iter
        (fun phi ->
          if (allowed lsr phi) land 1 = 1 && !count < cap then solve_phi phi)
        Gate.nontrivial;
      List.rev !results
    end
  end
