module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Mchain = Stp_chain.Mchain
module Solver = Stp_sat.Solver
module Lit = Stp_sat.Lit

(* One long-lived solver across gate budgets (see {!Ssv.Inc} for the
   idea). Gate semantics, operator constraints and per-signal
   output-agreement clauses persist; the per-budget clauses — each
   output picks some signal within the budget, each gate is read by a
   later gate or an output — hang off a per-budget selector. *)
module Inc = struct
  type inc = {
    solver : Solver.t;
    n : int;
    fs : Tt.t array;      (* normalised outputs *)
    flags : bool array;   (* per-output static complement *)
    basis : Stp_chain.Gate.code list option;
    num_minterms : int;
    mutable gates : int;
    mutable sel : (int * int * int) list array;
    mutable op : int array array;
    mutable sim : int array array;     (* sim.(i).(m-1) *)
    mutable out_sel : int array array; (* out_sel.(k), length n + gates *)
    selectors : (int, Lit.t) Hashtbl.t;
    mutable infeasible : bool;
  }

  let create ?basis ~solver ~fs () =
    if Array.length fs = 0 then invalid_arg "Ssv_multi.Inc.create: no outputs";
    let n = Tt.num_vars fs.(0) in
    Array.iter
      (fun f ->
        if Tt.num_vars f <> n then invalid_arg "Ssv_multi.Inc.create: arity")
      fs;
    let flags = Array.map (fun f -> Tt.get f 0) fs in
    let fs = Array.mapi (fun k f -> if flags.(k) then Tt.bnot f else f) fs in
    let num_minterms = (1 lsl n) - 1 in
    let c =
      { solver; n; fs; flags; basis; num_minterms; gates = 0; sel = [||];
        op = [||]; sim = [||]; out_sel = [||];
        selectors = Hashtbl.create 7; infeasible = false }
    in
    (* Output-agreement clauses for the primary-input signals: selecting
       input [s] for output [k] is a unit refutation wherever the input
       column disagrees with f_k (inputs are constants per minterm). *)
    c.out_sel <-
      Array.map
        (fun fk ->
          Array.init n (fun s ->
              let v = Solver.new_var solver in
              (try
                 for m = 1 to num_minterms do
                   if (m lsr s) land 1 <> (if Tt.get fk m then 1 else 0) then begin
                     Solver.add_clause solver [ Lit.neg v ];
                     raise Exit
                   end
                 done
               with Exit -> ());
              v))
        c.fs;
    c

  (* value of signal [s] on minterm [m]: [Ok lit] / [Error const] *)
  let signal_lit c s v m =
    if s < c.n then Error ((m lsr s) land 1 = if v then 1 else 0)
    else Ok (Lit.make c.sim.(s - c.n).(m - 1) v)

  let ensure_gates c r =
    while c.gates < r && not c.infeasible do
      let i = c.gates in
      let total = c.n + i in
      if total < 2 then c.infeasible <- true
      else begin
        let pairs = ref [] in
        for j = 0 to total - 1 do
          for k = j + 1 to total - 1 do
            pairs := (j, k, Solver.new_var c.solver) :: !pairs
          done
        done;
        let pairs = List.rev !pairs in
        let opv = Array.init 3 (fun _ -> Solver.new_var c.solver) in
        let simv =
          Array.init c.num_minterms (fun _ -> Solver.new_var c.solver)
        in
        c.sel <- Array.append c.sel [| pairs |];
        c.op <- Array.append c.op [| opv |];
        c.sim <- Array.append c.sim [| simv |];
        (* gate semantics clauses over every minterm *)
        List.iter
          (fun (j, k, s) ->
            for m = 1 to c.num_minterms do
              for a = 0 to 1 do
                for b = 0 to 1 do
                  for cv = 0 to 1 do
                    let op_term =
                      if a = 0 && b = 0 then if cv = 0 then `True else `Absent
                      else
                        let idx = (2 * a) + b - 1 in
                        `Lit (Lit.make opv.(idx) (cv = 1))
                    in
                    match op_term with
                    | `True -> ()
                    | (`Absent | `Lit _) as term -> (
                      let rec build acc = function
                        | [] ->
                          let acc =
                            match term with
                            | `Lit l -> l :: acc
                            | `Absent -> acc
                          in
                          Solver.add_clause c.solver acc
                        | (sig_, v) :: rest -> (
                          match signal_lit c sig_ (v = 1) m with
                          | Error true -> build acc rest
                          | Error false -> ()
                          | Ok l -> build (Lit.negate l :: acc) rest)
                      in
                      build [ Lit.neg s ] [ (j, a); (k, b); (c.n + i, cv) ])
                  done
                done
              done
            done)
          pairs;
        Solver.add_clause c.solver
          (List.map (fun (_, _, s) -> Lit.pos s) pairs);
        let o01 = opv.(0) and o10 = opv.(1) and o11 = opv.(2) in
        Solver.add_clause c.solver [ Lit.pos o10; Lit.pos o01; Lit.pos o11 ];
        Solver.add_clause c.solver [ Lit.pos o10; Lit.neg o01; Lit.neg o11 ];
        Solver.add_clause c.solver [ Lit.pos o01; Lit.pos o10; Lit.pos o11 ];
        Solver.add_clause c.solver [ Lit.pos o01; Lit.neg o10; Lit.neg o11 ];
        (match c.basis with
         | None -> ()
         | Some allowed ->
           List.iter
             (fun code ->
               if code land 1 = 0 && not (List.mem code allowed) then begin
                 let bit p = (code lsr p) land 1 = 1 in
                 Solver.add_clause c.solver
                   [ Lit.make o01 (not (bit 1));
                     Lit.make o10 (not (bit 2));
                     Lit.make o11 (not (bit 3)) ]
               end)
             Stp_chain.Gate.nontrivial);
        (* one output-selection variable per output for the new signal,
           with unconditional agreement clauses *)
        c.out_sel <-
          Array.mapi
            (fun k osel ->
              let v = Solver.new_var c.solver in
              for m = 1 to c.num_minterms do
                Solver.add_clause c.solver
                  [ Lit.neg v;
                    Lit.make simv.(m - 1) (Tt.get c.fs.(k) m) ]
              done;
              Array.append osel [| v |])
            c.out_sel;
        c.gates <- i + 1
      end
    done;
    not c.infeasible

  let budget_selector c r =
    if r < 1 || not (ensure_gates c r) then None
    else
      match Hashtbl.find_opt c.selectors r with
      | Some sel -> Some sel
      | None ->
        let sel = Solver.new_selector c.solver in
        Hashtbl.replace c.selectors r sel;
        (* every output picks a signal within the budget *)
        Array.iter
          (fun osel ->
            let lits = ref [ Lit.negate sel ] in
            for s = 0 to c.n + r - 1 do
              lits := Lit.pos osel.(s) :: !lits
            done;
            Solver.add_clause c.solver !lits)
          c.out_sel;
        (* every gate is read by a later gate (within budget) or an
           output *)
        for i = 0 to r - 1 do
          let users = ref [ Lit.negate sel ] in
          for i' = i + 1 to r - 1 do
            List.iter
              (fun (j, k, s) ->
                if j = c.n + i || k = c.n + i then users := Lit.pos s :: !users)
              c.sel.(i')
          done;
          Array.iter
            (fun osel -> users := Lit.pos osel.(c.n + i) :: !users)
            c.out_sel;
          Solver.add_clause c.solver !users
        done;
        Some sel

  let retire c r =
    match Hashtbl.find_opt c.selectors r with
    | None -> ()
    | Some sel ->
      Hashtbl.remove c.selectors r;
      Solver.retire c.solver sel

  let decode c ~r =
    let steps =
      List.init r (fun i ->
          let j, k, _ =
            match
              List.find_opt (fun (_, _, s) -> Solver.value c.solver s) c.sel.(i)
            with
            | Some p -> p
            | None -> invalid_arg "Ssv_multi.Inc.decode: no selection"
          in
          let bit idx = if Solver.value c.solver c.op.(i).(idx) then 1 else 0 in
          let gate = (bit 0 lsl 1) lor (bit 1 lsl 2) lor (bit 2 lsl 3) in
          { Chain.fanin1 = j; fanin2 = k; gate })
    in
    let outputs =
      Array.to_list
        (Array.mapi
           (fun k osel ->
             let s =
               let rec find i =
                 if i >= c.n + r then
                   invalid_arg "Ssv_multi.Inc.decode: no output selection"
                 else if Solver.value c.solver osel.(i) then i
                 else find (i + 1)
               in
               find 0
             in
             (s, c.flags.(k)))
           c.out_sel)
    in
    Mchain.make ~n:c.n ~steps ~outputs
end
