(* Technology-flavoured synthesis: restricted gate libraries, depth
   bounds, and exporting the winners — the downstream workflow the
   paper's all-solutions output enables.

   Run with:  dune exec examples/tech_mapping.exe *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec

let and_class = [ 1; 2; 4; 7; 8; 11; 13; 14 ]

let synthesize options f =
  Stp_synth.Stp_exact.synthesize ~options
    ~deadline:(Stp_util.Deadline.after 30.0) f

let show name = function
  | Spec.Solved (c :: _) ->
    Format.printf "%-28s %d gates, depth %d:  %a@." name (Chain.size c)
      (Chain.depth c) Chain.pp_compact c
  | Spec.Solved [] | Spec.Infeasible ->
    Format.printf "%-28s (no realisation)@." name
  | Spec.Timeout -> Format.printf "%-28s (timeout)@." name

let () =
  (* A full-adder sum bit: XOR-heavy, interesting across libraries. *)
  let f = Tt.of_hex ~n:3 "96" in
  Format.printf "target: 3-input parity %a@.@." Tt.pp f;

  let base = Spec.default_options in
  show "free library" (synthesize base f);
  show "AND class only (AIG)"
    (synthesize { base with Spec.basis = Some and_class } f);
  show "XOR/XNOR only" (synthesize { base with Spec.basis = Some [ 6; 9 ] } f);

  (* Depth-bounded: a 6-input AND tree, balanced vs unconstrained. *)
  Format.printf "@.target: AND6@.@.";
  let and6 = Tt.of_fun 6 (fun m -> m = 63) in
  show "AND6, depth unbounded" (synthesize base and6);
  let balanced = synthesize { base with Spec.max_depth = Some 3 } and6 in
  show "AND6, depth <= 3" balanced;

  (* Export the balanced AND6 to Verilog/BLIF. *)
  (match balanced with
   | Spec.Solved (c :: _) ->
     Format.printf "@.--- Verilog ---@.%s" (Stp_chain.Export.to_verilog c);
     Format.printf "@.--- BLIF ---@.%s" (Stp_chain.Export.to_blif c)
   | _ -> ())
