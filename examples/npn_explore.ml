(* Explore the NPN4 collection: class sizes, optimum gate counts, and the
   all-solutions counts that Table I's "number" column averages.

   Run with:  dune exec examples/npn_explore.exe  (takes ~a minute) *)

module Tt = Stp_tt.Tt

let () =
  let classes = Stp_workloads.Npn4.all () in
  Format.printf "4-input NPN classes: %d@.@." (List.length classes);

  (* Synthesise a slice of the collection and histogram the optima. *)
  let sample =
    List.filteri (fun i _ -> i mod 10 = 0) (Stp_workloads.Npn4.synthesizable ())
  in
  Format.printf "synthesising %d sampled classes (timeout 5s each)...@.@."
    (List.length sample);
  let histogram = Hashtbl.create 8 in
  let timeouts = ref 0 in
  List.iter
    (fun f ->
      match
        Stp_synth.Stp_exact.synthesize ~deadline:(Stp_util.Deadline.after 5.0) f
      with
      | Stp_synth.Spec.Solved chains ->
        let g = Stp_chain.Chain.size (List.hd chains) in
        let count, sols =
          Option.value ~default:(0, 0) (Hashtbl.find_opt histogram g)
        in
        Hashtbl.replace histogram g (count + 1, sols + List.length chains)
      | _ -> incr timeouts)
    sample;
  Format.printf "%8s %8s %14s@." "gates" "classes" "avg solutions";
  List.iter
    (fun (g, (count, sols)) ->
      Format.printf "%8d %8d %14.1f@." g count
        (float_of_int sols /. float_of_int count))
    (List.sort Stdlib.compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []));
  if !timeouts > 0 then Format.printf "(%d timeouts)@." !timeouts
