(* Quickstart: synthesise the paper's running example 0x8ff8 (Examples 7
   and 8) and print every optimum Boolean chain.

   Run with:  dune exec examples/quickstart.exe *)

module Tt = Stp_tt.Tt

let () =
  (* The paper's target: f = 0x8ff8 over four inputs (a, b, c, d). *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  Format.printf "target: %a  (binary %s)@.@." Tt.pp f (Tt.to_bin f);

  (* One call returns ALL optimum chains, not just one. *)
  (match Stp_synth.Stp_exact.synthesize ~deadline:Stp_util.Deadline.never f with
   | Stp_synth.Spec.Timeout | Stp_synth.Spec.Infeasible ->
     prerr_endline "unexpected: no answer";
     exit 1
   | Stp_synth.Spec.Solved chains ->
     Format.printf "optimum size: %d gates; %d optimal chains:@.@."
       (Stp_chain.Chain.size (List.hd chains))
       (List.length chains);
     List.iteri
       (fun i c ->
         Format.printf "solution %d:  %a@." (i + 1) Stp_chain.Chain.pp_compact c;
         (* every solution really computes f *)
         assert (Tt.equal (Stp_chain.Chain.simulate c) f))
       chains);

  (* The all-solutions set contains the two chains of the paper's
     Example 7: x7 = OR(x5, x6) over AND/XOR, and the NAND/XNOR variant. *)
  Format.printf
    "@.(compare with Example 7: x5=6(c,d); x6=8(a,b); x7=e(x5,x6) and its \
     complement-gate variant)@."
