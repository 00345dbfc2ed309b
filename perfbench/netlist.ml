(* The [netlist] workload: a seeded [Ntk_gen] AIG written as AIGER in
   setup; each timed pass is [Aiger.read_file] -> [Sweep.run] ->
   [Rewrite.run] -> [Aiger.write_file], cold (fresh NPN cache per pass). *)

module Ntk = Stp_network.Ntk
module Aiger = Stp_network.Aiger
module Sweep = Stp_network.Sweep
module Rewrite = Stp_network.Rewrite

(* One fixed generated design (like a benchmark-suite circuit), sized so
   that a pass takes a few seconds and the sweep skips no candidate pair:
   skipped pairs would make the AND count depend on machine speed. How
   far a random design can be reduced varies by tens of percent from one
   generator seed to the next, so the run seed does not pick the design;
   it permutes the design's inputs and outputs. *)
let design_seed = 1

let nodes = 1000

let pis = 64

(* Passes in a run of [seconds], calibrated so that they take about that
   long on a 2-core x86-64 box. The count is fixed rather than timed: a
   later pass runs on a grown heap and is faster, so a timed loop would
   shift the median pass with machine speed. *)
let passes seconds = max 3 (int_of_float (seconds /. 3.6))

let rewrite_options jobs =
  { Rewrite.default_options with Rewrite.timeout = 0.05; jobs }

(* [ntk] with its inputs and outputs in seeded order. *)
let permuted ~seed ntk =
  let rng = Stp_util.Prng.create seed in
  let n = Ntk.num_pis ntk in
  let order = Array.init n Fun.id in
  Stp_util.Prng.shuffle rng order;
  let out = Ntk.create ~capacity:(Ntk.num_vars ntk) () in
  let fresh = Array.init n (fun _ -> Ntk.add_pi out) in
  let map = Array.make (Ntk.num_vars ntk) Ntk.const_false in
  Array.iteri (fun i j -> map.(i + 1) <- fresh.(j)) order;
  let lit l =
    let m = map.(Ntk.var_of_lit l) in
    if Ntk.is_compl l then Ntk.lit_not m else m
  in
  Ntk.iter_ands ntk (fun v ->
      map.(v) <- Ntk.add_and out (lit (Ntk.fanin0 ntk v)) (lit (Ntk.fanin1 ntk v)));
  let outputs = Ntk.outputs ntk in
  Stp_util.Prng.shuffle rng outputs;
  Array.iter (fun l -> ignore (Ntk.add_po out (lit l))) outputs;
  out

(* Setup: generate the design, permute it and write it; returns its path. *)
let setup ~seed ~dir =
  (* The lazily built NPN4 table, forced before timing as the collection
     runner does; every pass would otherwise find it built but the first. *)
  ignore (Stp_tt.Npn.canon4 0);
  let ntk = Stp_workloads.Ntk_gen.generate ~seed:design_seed ~pis ~nodes () in
  let path = Filename.concat dir "in.aig" in
  Aiger.write_file path (permuted ~seed ntk);
  path

type pass = {
  wall : float;
  rss_mb : float;  (** peak resident memory during the pass *)
  ands_in : int;
  ands_out : int;
  depth_in : int;
  depth_out : int;
  sweep : Sweep.report;
  rewrite : Rewrite.report;
  fails : string list;
}

(* One cold pass; only read -> sweep -> rewrite -> write is timed. Sizes
   and depths are read back from the files by the checker. *)
let run_pass ~spans ~seed ~jobs ~input ~output id =
  Common.reset_peak_rss ();
  let t0 = Common.now () in
  let ntk, _ = Spans.record spans "network.aiger_read" id (fun () -> Aiger.read_file input) in
  let (swept, sweep), _ = Spans.record spans "network.sweep" id (fun () -> Sweep.run ntk) in
  let (rewritten, rewrite), _ =
    Spans.record spans "network.rewrite" id (fun () ->
        Rewrite.run ~options:(rewrite_options jobs) swept)
  in
  let (), _ =
    Spans.record spans "network.aiger_write" id (fun () -> Aiger.write_file output rewritten)
  in
  let wall = Common.now () -. t0 in
  let rss_mb = Common.peak_rss_mb 0 in
  let fails, (ands_in, depth_in), (ands_out, depth_out) =
    Check.netlist ~seed ~rounds:64 input output
  in
  let fails =
    fails
    @ (if sweep.Sweep.verified then [] else [ "sweep reports its result not equivalent" ])
    @ if rewrite.Rewrite.verified then [] else [ "rewrite reports its result not equivalent" ]
  in
  { wall; rss_mb; ands_in; ands_out; depth_in; depth_out; sweep; rewrite; fails }
