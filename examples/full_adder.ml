(* Multi-output synthesis: a full adder with a shared gate pool — the
   complete Boolean-chain model of the paper's Section II-B.

   Run with:  dune exec examples/full_adder.exe *)

module Tt = Stp_tt.Tt
module Mchain = Stp_chain.Mchain
module Multi = Stp_synth.Multi
module Spec = Stp_synth.Spec

let () =
  let sum = Tt.of_hex ~n:3 "96" and carry = Tt.of_hex ~n:3 "e8" in
  Format.printf "sum = %a, carry = %a@.@." Tt.pp sum Tt.pp carry;

  let deadline () = Stp_util.Deadline.after 60.0 in

  (* Exact joint synthesis: the classic 5-gate full adder emerges. *)
  (match Multi.exact ~deadline:(deadline ()) [| sum; carry |] with
   | Spec.Solved mc ->
     Format.printf "joint optimum: %d gates@.%a@." (Mchain.size mc) Mchain.pp mc
   | Spec.Timeout | Spec.Infeasible ->
     prerr_endline "joint synthesis: no answer";
     exit 1);

  (* Separate synthesis wastes a gate. *)
  let g f =
    match Stp_synth.Stp_exact.synthesize ~deadline:(deadline ()) f with
    | Spec.Solved (c :: _) -> Stp_chain.Chain.size c
    | _ -> -1
  in
  Format.printf "@.separate optima: sum %d + carry %d = %d gates@."
    (g sum) (g carry) (g sum + g carry);

  (* The heuristic sharing pass reaches the optimum here too. *)
  match Multi.stp_shared ~deadline:(deadline ()) [| sum; carry |] with
  | Spec.Solved mc ->
    Format.printf "@.stp_shared: %d gates (%d shared steps)@." (Mchain.size mc)
      (Mchain.share_count mc)
  | Spec.Timeout | Spec.Infeasible ->
    prerr_endline "stp_shared: no answer";
    exit 1
