(* Cost-based selection among all optimum chains — the paper's argument
   for producing solutions as generic 2-LUTs: "different costs can be
   considered when selecting the optimal circuit".

   We synthesise the 3-input majority function, enumerate all its 4-gate
   optimum chains, and pick winners under several technology costs.

   Run with:  dune exec examples/cost_selection.exe *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Cost = Stp_chain.Cost

let () =
  let maj = Tt.of_hex ~n:3 "e8" in
  Format.printf "target: MAJ3 = %a@.@." Tt.pp maj;
  match Stp_synth.Stp_exact.synthesize ~deadline:Stp_util.Deadline.never maj with
  | Stp_synth.Spec.Timeout | Stp_synth.Spec.Infeasible ->
    prerr_endline "unexpected: no answer";
    exit 1
  | Stp_synth.Spec.Solved chains ->
    Format.printf "found %d optimum chains of %d gates@.@."
      (List.length chains)
      (Chain.size (List.hd chains));
    let describe name cost =
      let best = Cost.select_min cost chains in
      Format.printf "%-22s -> cost %2d:  %a@." name (cost best)
        Chain.pp_compact best
    in
    describe "minimum depth" Cost.depth;
    describe "fewest XOR/XNOR gates" Cost.xor_count;
    describe "fewest inversions" Cost.negation_count;
    describe "CMOS-like area" Cost.area_like;
    (* A custom cost: NAND/NOR-only technology (other gates forbidden). *)
    let nand_nor_only =
      Cost.gate_weighted
        (Array.init 16 (fun g -> if g = 7 || g = 1 then 1 else 1000))
    in
    describe "NAND/NOR technology" nand_nor_only;
    Format.printf
      "@.All candidates ranked by area:@.";
    List.iteri
      (fun i (cost, c) ->
        if i < 5 then Format.printf "  area %2d:  %a@." cost Chain.pp_compact c)
      (Cost.rank Cost.area_like chains)
