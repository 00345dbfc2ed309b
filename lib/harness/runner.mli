(** Per-collection experiment runner: the machinery behind Table I.

    Runs one synthesis engine over one function collection with a
    per-instance timeout and aggregates the paper's metrics: mean solving
    time over solved instances, number of timeouts, number solved, and —
    for the all-solutions engine — total time, per-solution mean and
    average number of solutions.

    The runner can fan the (independent) instances of a collection out
    across domains ([?jobs]) and reuse optimum chains within an NPN
    class ([?cache]); both knobs change wall-clock only — aggregation
    is a sequential pass over the results in input order, identical to
    the sequential path. *)

type engine = (module Stp_synth.Engine.S)
(** Engines are consumed through the unified {!Stp_synth.Engine.S}
    signature; the runner constructs each instance's deadline and
    threads a per-domain {!Stp_synth.Factor.memo} through the spec. *)

val stp_engine : engine
val bms_engine : engine
val fen_engine : engine
val abc_engine : engine

val all_engines : engine list
(** BMS, FEN, ABC, STP — the paper's column order. *)

val engine_name : engine -> string

type aggregate = {
  name : string;            (** engine name *)
  solved : int;             (** #ok *)
  timeouts : int;           (** #t/o: the deadline expired *)
  infeasible : int;
    (** instances refuted within [options]: no chain of at most
        [max_gates] gates, or a constant target *)
  mean_time : float;        (** mean seconds over solved instances *)
  total_time : float;       (** summed per-instance wall-clock *)
  wall_time : float;        (** wall-clock of the whole sweep; below
                                [total_time] when [jobs > 1] *)
  mean_solutions : float;   (** average number of chains per solved *)
  mean_per_solution : float;(** mean time divided by mean solutions *)
  optima : (int * int) list;(** histogram: gate count -> #instances *)
  cache_hits : int;         (** NPN-cache hits during this run (0 when
                                run without a cache) *)
  cache_misses : int;       (** NPN-cache misses during this run *)
  profile : Stp_util.Profile.snapshot option;
    (** per-stage timers and counters for this run, when
        {!Stp_util.Profile.enabled} (e.g. under [table1 --profile]);
        [None] otherwise. Timers sum self time across all domains of a
        parallel run. *)
  latency : Stp_telemetry.Hist.snapshot;
    (** per-instance latency histogram over {e every} instance of the
        run (solved, timed out and infeasible), with exact p50/p90/p99 — always
        collected (one lock-free observation per instance). *)
}

val speedup : aggregate -> float
(** [total_time / wall_time] — the parallel speedup actually realised
    (1.0 when [wall_time] is 0). *)

val hit_rate : aggregate -> float
(** [cache_hits / (cache_hits + cache_misses)]; 0 when the run had no
    cache or no lookups. *)

val run_collection :
  ?timeout:float ->
  ?jobs:int ->
  ?cache:Stp_synth.Npn_cache.t ->
  ?on_instance:(int -> Stp_tt.Tt.t -> Stp_synth.Engine.result -> unit) ->
  engine ->
  Stp_tt.Tt.t list ->
  aggregate
(** [run_collection engine fns] runs every function under
    {!Stp_synth.Spec.default_options} with a fresh deadline of
    [timeout] seconds (default 5) per instance, and aggregates.
    [on_instance] observes each result (index, function, result) in
    input order — used for cross-checking optima between engines and
    for verbose traces.

    [jobs] (default 1, clamped to at least 1) fans instances out across
    that many domains via {!Stp_parallel.Pool}; each domain owns a
    private {!Stp_synth.Factor.memo} reused across its instances.
    Results are aggregated in input order regardless of completion
    order, so a parallel run's aggregate matches the sequential one
    (timing fields aside).

    [cache] enables the NPN-class cache for this run; pass the same
    cache to successive runs of the {e same} engine to carry classes
    across collections. The cache is domain-safe and shared by all
    [jobs] domains. [cache_hits]/[cache_misses] in the aggregate are
    this run's deltas. *)
