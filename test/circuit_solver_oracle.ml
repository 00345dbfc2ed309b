(* The list-based circuit AllSAT solver (Algorithms 1-2) that
   [Stp_circuitsat.Circuit_solver] replaced, kept verbatim in its
   algorithm as a test oracle: cubes are records in lists, MERGE dedups
   through a hash table on the (mask, value) pair, every LUT's rows are
   merged again against the empty cube, and [onset] tabulates each cube
   over all 2^n minterms. Slow, but independent of the packed solver's
   encoding, its sort-based dedup, its disjoint-support fast path and its
   shared cone memo. *)

module Net = Stp_circuitsat.Lut_network
module Tt = Stp_tt.Tt

type cube = Stp_circuitsat.Circuit_solver.cube = { mask : int; value : int }

let cube_merge a b =
  if (a.value lxor b.value) land (a.mask land b.mask) = 0 then
    Some { mask = a.mask lor b.mask; value = a.value lor b.value }
  else None

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let merge_sets xs ys =
  let out = Hashtbl.create 64 in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          match cube_merge x y with
          | Some c -> Hashtbl.replace out (c.mask, c.value) c
          | None -> ())
        ys)
    xs;
  let buckets = Array.make 64 [] in
  Hashtbl.iter
    (fun _ c ->
      let p = popcount c.mask in
      buckets.(p) <- c :: buckets.(p))
    out;
  let subsumed pc c =
    let rec scan p =
      p < pc
      && (List.exists
            (fun d ->
              d.mask land c.mask = d.mask
              && (d.value lxor c.value) land d.mask = 0)
            buckets.(p)
          || scan (p + 1))
    in
    scan 0
  in
  let acc = ref [] in
  for p = 63 downto 0 do
    List.iter (fun c -> if not (subsumed p c) then acc := c :: !acc) buckets.(p)
  done;
  !acc

let solve (net : Net.t) ~targets =
  let memo : (int * bool, cube list) Hashtbl.t = Hashtbl.create 97 in
  let rec traverse s v =
    match Hashtbl.find_opt memo (s, v) with
    | Some r -> r
    | None ->
      let r =
        if s < net.num_inputs then
          [ { mask = 1 lsl s; value = (if v then 1 lsl s else 0) } ]
        else begin
          let l = net.luts.(s - net.num_inputs) in
          let arity = Array.length l.fanins in
          let acc = ref [] in
          for m = 0 to (1 lsl arity) - 1 do
            if Tt.get l.tt m = v then begin
              let row_cubes =
                Array.to_list l.fanins
                |> List.mapi (fun j f -> traverse f ((m lsr j) land 1 = 1))
                |> function
                | [] -> assert false
                | first :: rest -> List.fold_left merge_sets first rest
              in
              acc := row_cubes @ !acc
            end
          done;
          merge_sets !acc [ { mask = 0; value = 0 } ]
        end
      in
      Hashtbl.replace memo (s, v) r;
      r
  in
  let per_output =
    Array.to_list (Array.mapi (fun i o -> traverse o targets.(i)) net.outputs)
  in
  match per_output with
  | [] -> assert false
  | first :: rest -> List.fold_left merge_sets first rest

let onset net ~targets =
  let n = max net.Net.num_inputs 1 in
  List.fold_left
    (fun acc c ->
      Tt.bor acc (Tt.of_fun n (fun m -> (m lxor c.value) land c.mask = 0)))
    (Tt.zero n) (solve net ~targets)

let verify_chain c f = Tt.equal (onset (Net.of_chain c) ~targets:[| true |]) f
