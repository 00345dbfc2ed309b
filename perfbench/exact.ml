(* The [exact-stp] and [exact-sat] workloads: Table I instances through
   [Engine.synthesize], one [Factor.memo] per engine pass (as
   [Stp_harness.Runner] keeps one per domain), no NPN cache, one domain,
   and a fixed per-instance deadline. *)

module Tt = Stp_tt.Tt
module Engine = Stp_synth.Engine
module Profile = Stp_util.Profile
module Prng = Stp_util.Prng

let deadline_s = 0.25

(* An answer counts as solved only when it came within the deadline plus
   this slack, about how long the engines take to notice an expired
   deadline (a timeout returns after about 0.30 s). A [Solved] answer
   later than that is counted apart, as late, so an engine that ignores
   its deadline for longer does not raise the solved share. *)
let slack_s = 0.05

type instance = { kind : string; target : Tt.t; reference : int option }

(* A run is [rounds] rounds over the same functions, each with a fresh
   memo; throughput is the median round, so one round slowed by a busy
   host does not move it. Instance counts per round for a run of
   [seconds], calibrated so that the engine calls take about that long
   on a 2-core x86-64 box. *)
let rounds = 3

let per_round x seconds = max 1 (int_of_float (x *. seconds /. float_of_int rounds))
let npn4_count ~sat seconds = per_round (if sat then 2.5 else 4.4) seconds
let fdsd8_count seconds = per_round 3.5 seconds
let pdsd8_count seconds = per_round 0.7 seconds

(* A random NPN member of the 4-input function [f]. *)
let member rng f =
  let perm = [| 0; 1; 2; 3 |] in
  Prng.shuffle rng perm;
  Stp_tt.Npn.apply f { Stp_tt.Npn.perm; input_neg = Prng.int rng 16; output_neg = Prng.bool rng }

(* A fixed, stratified subset of the NPN4 classes: ordered by reference
   optimum (unreferenced last) and cut into [count] equal strata, the
   middle class of each. *)
let npn4_subset reference count =
  let classes =
    List.map
      (fun f -> (Option.value ~default:max_int (Reference.gates reference f), f))
      (Stp_workloads.Npn4.synthesizable ())
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  let total = Array.length classes in
  let count = min count total in
  List.init count (fun k ->
      let g, f = classes.(((2 * k) + 1) * total / (2 * count)) in
      { kind = "npn4"; target = f; reference = (if g = max_int then None else Some g) })

(* The functions are fixed: which classes or DSD functions a run got
   moved its solved share and times by more than a code change should.
   The seed draws, per round, a random NPN member of each NPN4 class (a
   different function of the same optimum) and the order of the
   instances. The 8-variable functions are not transformed: a random
   member of a PDSD8 function changed its solve time by up to 50%.
   FDSD8 functions have a known optimum; the PDSD8 pool's optima are
   currently out of reach of the SAT engines (see [Reference]). *)
let inputs ~sat ~seed ~seconds reference =
  let rng = Prng.create ((seed * 7919) + if sat then 1 else 0) in
  let npn4 = npn4_subset reference (npn4_count ~sat seconds) in
  let dsd =
    if sat then []
    else begin
      let pool = Lazy.force Reference.pdsd8_pool in
      List.init (fdsd8_count seconds) (fun i ->
          { kind = "fdsd8"; target = Stp_workloads.Dsd_gen.fdsd ~n:8 ~seed:(i + 1); reference = Some 7 })
      @ List.init (min (pdsd8_count seconds) (Array.length pool)) (fun i ->
            { kind = "pdsd8"; target = pool.(i); reference = Reference.gates reference pool.(i) })
    end
  in
  List.init rounds (fun _ ->
      let npn4 = List.map (fun i -> { i with target = member rng i.target }) npn4 in
      let all = Array.of_list (npn4 @ dsd) in
      Prng.shuffle rng all;
      Array.to_list all)

type record = {
  engine : string;
  inst : instance;
  label : string;  (** solved / timeout / infeasible *)
  elapsed : float;
  fails : string list;
}

(* One pass of [engine] over the instances with a fresh memo. Only the
   engine call is timed; checking follows it. *)
let pass ~spans (module E : Engine.S) instances =
  let memo = Stp_synth.Factor.create_memo () in
  List.mapi
    (fun i inst ->
      let result, elapsed =
        Spans.record spans ("synth." ^ E.name) i (fun () ->
            E.synthesize
              (Engine.spec ~memo inst.target)
              ~deadline:(Stp_util.Deadline.after deadline_s))
      in
      let fails =
        match result with
        | Engine.Solved chains ->
          Check.solved ~target:inst.target ~reference:inst.reference chains
        | Engine.Timeout -> []
        | Engine.Infeasible -> [ "infeasible answer for " ^ Tt.to_hex inst.target ]
      in
      { engine = E.name; inst; label = Engine.outcome_label result; elapsed; fails })
    instances

let engines ~sat = if sat then [ Engine.bms; Engine.fen; Engine.lutexact ] else [ Engine.stp ]

type measured = {
  records : record list;
  wall : float;  (** summed engine-call time *)
  round_rates : float list;  (** instances per second of engine time, per round *)
  profile : Profile.snapshot;
  sat : (string * int) list;  (** [Solver.Totals] delta *)
}

let measure ~sat ~spans rounds =
  Profile.reset ();
  let sat0 = Stp_sat.Solver.Totals.snapshot () in
  let per_round =
    List.map (fun instances -> List.concat_map (fun e -> pass ~spans e instances) (engines ~sat)) rounds
  in
  let sat1 = Stp_sat.Solver.Totals.snapshot () in
  let wall rs = List.fold_left (fun acc r -> acc +. r.elapsed) 0.0 rs in
  let records = List.concat per_round in
  { records;
    wall = wall records;
    round_rates = List.map (fun rs -> Common.ratio (float_of_int (List.length rs)) (wall rs)) per_round;
    profile = Profile.snapshot ();
    sat = List.map (fun (k, v) -> (k, v - List.assoc k sat0)) sat1 }

let rate m = Common.median m.round_rates

let on_time r = r.label = "solved" && r.elapsed <= deadline_s +. slack_s

let count p m = List.length (List.filter p m.records)

let end_to_end m =
  let n = List.length m.records in
  let solved = Common.fratio (count on_time m) n in
  let late = count (fun r -> r.label = "solved" && not (on_time r)) m in
  let unreferenced = count (fun r -> r.inst.reference = None) m in
  ( [ ("throughput_per_s", "1/s", rate m); ("goal_share", "ratio", solved) ],
    [ ("instances_per_s", "1/s", rate m); ("solved_share", "ratio", solved);
      ("verdict_p50_s", "s", Common.median (List.map (fun r -> r.elapsed) m.records));
      ("solved_late", "count", float_of_int late);
      ("unreferenced", "count", float_of_int unreferenced) ] )

(* Untraced timings reported next to the per-layer metrics: the median
   time to a verdict and the tail the sample supports. *)
let latencies m =
  let times = List.map (fun r -> r.elapsed) m.records in
  (Common.median times, snd (Common.supported_tail times))

let failures m = List.concat_map (fun r -> r.fails) m.records
