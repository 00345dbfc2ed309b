(* DSD structure of the benchmark workloads: generate FDSD and PDSD
   functions, classify them, and synthesise one of each.

   Run with:  dune exec examples/dsd_playground.exe *)

module Tt = Stp_tt.Tt
module Dsd = Stp_tt.Dsd

let kind_name = function
  | Dsd.Constant -> "constant"
  | Dsd.Literal -> "literal"
  | Dsd.Full -> "fully DSD"
  | Dsd.Partial -> "partially DSD"
  | Dsd.Prime -> "prime"

let () =
  Format.printf "prime 3-input cores available to the PDSD generator: %d@.@."
    (List.length Stp_workloads.Dsd_gen.prime_cores);

  let show name f =
    Format.printf "%s: %a  [%s, support %d]@." name Tt.pp f
      (kind_name (Dsd.kind f))
      (Tt.support_size f)
  in
  let fd = Stp_workloads.Dsd_gen.fdsd ~n:6 ~seed:7 in
  let pd = Stp_workloads.Dsd_gen.pdsd ~n:6 ~seed:7 in
  show "FDSD6 sample" fd;
  show "PDSD6 sample" pd;

  Format.printf "@.synthesising both (STP engine):@.";
  List.iter
    (fun (name, f) ->
      let start = Stp_util.Unix_time.now () in
      let deadline = Stp_util.Deadline.after 30.0 in
      match Stp_synth.Stp_exact.synthesize ~deadline f with
      | Stp_synth.Spec.Solved chains ->
        let c = List.hd chains in
        Format.printf "%s: %d gates, %d solutions, %.3fs@." name
          (Stp_chain.Chain.size c) (List.length chains)
          (Stp_util.Unix_time.now () -. start);
        Format.printf "  e.g. %a@." Stp_chain.Chain.pp_compact c
      | Stp_synth.Spec.Timeout | Stp_synth.Spec.Infeasible ->
        prerr_endline (name ^ ": no answer");
        exit 1)
    [ ("FDSD6", fd); ("PDSD6", pd) ];

  (* A fully-DSD function decomposes greedily along its top splits. *)
  Format.printf "@.top disjoint splits of the FDSD sample:@.";
  List.iter
    (fun (a, b) -> Format.printf "  A = 0x%02x, B = 0x%02x@." a b)
    (Dsd.top_splits fd)
