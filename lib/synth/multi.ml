module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Mchain = Stp_chain.Mchain
module Solver = Stp_sat.Solver

let check_outputs fs =
  if Array.length fs = 0 then invalid_arg "Multi: no outputs";
  let n = Tt.num_vars fs.(0) in
  Array.iter
    (fun f ->
      if Tt.num_vars f <> n then invalid_arg "Multi: mixed arities";
      if Tt.is_const f then
        invalid_arg "Multi: constant outputs have no Boolean chain")
    fs;
  n

module Enc = Stp_encodings.Ssv_multi.Inc

let exact ?(options = Spec.default_options) ~deadline fs =
  ignore (check_outputs fs);
  if options.Spec.max_depth <> None then
    invalid_arg "Multi.exact: depth bounds are not supported";
  let lower =
    Array.fold_left (fun acc f -> max acc (Tt.support_size f - 1)) 1 fs
  in
  (* One solver whose gate pool only grows; each budget's closing
     constraints ride on a selector retired once the budget is
     refuted. *)
  let solver = Solver.create () in
  let enc = Enc.create ?basis:options.Spec.basis ~solver ~fs () in
  let rec loop r =
    if r > options.Spec.max_gates then Spec.Infeasible
    else
      match Enc.budget_selector enc r with
      | None -> loop (r + 1)
      | Some sel -> (
        match Solver.solve ~assumptions:[ sel ] ~deadline solver with
        | Solver.Unsat ->
          Enc.retire enc r;
          loop (r + 1)
        | Solver.Unknown -> Spec.Timeout
        | Solver.Sat ->
          let mc = Enc.decode enc ~r in
          let sims = Mchain.simulate mc in
          Array.iteri (fun k f -> assert (Tt.equal sims.(k) f)) fs;
          Spec.Solved mc)
  in
  loop lower

(* Greedy structural merging of per-output optimum chains. *)
let stp_shared ?(options = Spec.default_options) ~deadline fs =
  let n = check_outputs fs in
  (* Every output must be solved; the first that is not decides. *)
  let rec solve_all acc k =
    if k = Array.length fs then Spec.Solved (List.rev acc)
    else
      match Stp_exact.synthesize ~options ~deadline fs.(k) with
      | Spec.Solved chains -> solve_all (chains :: acc) (k + 1)
      | Spec.Timeout -> Spec.Timeout
      | Spec.Infeasible -> Spec.Infeasible
  in
  match solve_all [] 0 with
  | Spec.Timeout -> Spec.Timeout
  | Spec.Infeasible -> Spec.Infeasible
  | Spec.Solved per_output ->
    (* Pool of merged steps: (f1, f2, gate) -> pool signal. *)
    let table : (int * int * int, int) Hashtbl.t = Hashtbl.create 97 in
    let pool : Chain.step list ref = ref [] in
    let pool_size = ref 0 in
    (* Merge one chain; returns (output signal, flag) in pool space and
       the number of freshly added steps. *)
    let merge (c : Chain.t) ~commit =
      let saved_table = Hashtbl.copy table in
      let saved_pool = !pool and saved_size = !pool_size in
      let map = Array.make (c.Chain.n + Chain.size c) (-1) in
      for i = 0 to c.Chain.n - 1 do
        map.(i) <- i
      done;
      let added = ref 0 in
      Array.iteri
        (fun i (st : Chain.step) ->
          let f1 = map.(st.fanin1) and f2 = map.(st.fanin2) in
          let f1, f2, gate =
            if f1 <= f2 then (f1, f2, st.gate)
            else (f2, f1, Stp_chain.Gate.swap_operands st.gate)
          in
          let signal =
            match Hashtbl.find_opt table (f1, f2, gate) with
            | Some s -> s
            | None ->
              let s = n + !pool_size in
              incr pool_size;
              incr added;
              pool := { Chain.fanin1 = f1; fanin2 = f2; gate } :: !pool;
              Hashtbl.replace table (f1, f2, gate) s;
              s
          in
          map.(c.Chain.n + i) <- signal)
        c.Chain.steps;
      let out = (map.(c.Chain.output), c.Chain.output_negated) in
      if not commit then begin
        Hashtbl.reset table;
        Hashtbl.iter (Hashtbl.replace table) saved_table;
        pool := saved_pool;
        pool_size := saved_size
      end;
      (out, !added)
    in
    let outputs =
      List.map
        (fun chains ->
          (* Pick the candidate that adds the fewest fresh gates. *)
          let best =
            List.fold_left
              (fun acc c ->
                let _, added = merge c ~commit:false in
                match acc with
                | Some (_, best_added) when best_added <= added -> acc
                | _ -> Some (c, added))
              None chains
          in
          match best with
          | None -> assert false
          | Some (c, _) ->
            let out, _ = merge c ~commit:true in
            out)
        per_output
    in
    let mc = Mchain.make ~n ~steps:(List.rev !pool) ~outputs in
    let sims = Mchain.simulate mc in
    Array.iteri (fun k f -> assert (Tt.equal sims.(k) f)) fs;
    Spec.Solved mc
