(** Lightweight cross-domain stage profiler for the STP hot path.

    One global set of counters and per-stage monotonic timers, shared
    by every domain of a run (accumulators are atomics; the timer
    nesting stack is domain-local). Profiling is off by default: every
    probe is a single [ref] read when disabled, so instrumentation can
    stay in the hot path permanently.

    Timers report {e self} time: the time spent inside a stage minus
    the time spent in nested timed stages, so a [decompose] call made
    from inside a [feasibility] check counts towards [decompose] only.
    Enable with {!set_enabled}, read with {!snapshot}; a collection
    runner resets around each run (see
    {!Stp_harness.Runner.run_collection}). *)

val now_ns : unit -> int
(** Monotonic clock (CLOCK_MONOTONIC), nanoseconds. *)

type stage =
  | Decompose    (** [Factor.decompose]: uncached factorisation search *)
  | Feasibility  (** [Factor]'s bounded-tree feasibility test *)
  | Realise      (** [Factor]'s independent-subtree realisation *)
  | Verify       (** chain dedup + circuit-SAT verification *)
  | Canonical    (** STP canonical-form construction *)

type counter =
  | Decompose_calls          (** uncached factorisation searches *)
  | Decompose_cache_hits     (** factorisations answered from the memo *)
  | Quarter_tests            (** quartering (distinct-block) tests run *)
  | Quarter_rejects          (** quartering tests that refuted a cover *)
  | Feasibility_checks       (** uncached feasibility evaluations *)
  | Feasibility_cache_hits   (** feasibility answered from the memo *)
  | Realisation_cache_hits   (** subtree realisations answered from memo *)
  | Realisation_cache_misses (** subtree realisations computed *)
  | Chains_emitted           (** candidate chains produced by the search *)
  | Chains_verified          (** chains passed to circuit-SAT verification *)
  | Cube_merges              (** pairwise cube merges in the AllSAT solver *)
  | Cube_subsumption_checks  (** cube-pair subsumption tests *)
  | Requests_received        (** synthesis requests accepted by a service *)
  | Requests_solved          (** requests answered with optimum chains *)
  | Requests_cached          (** requests answered from the NPN cache *)
  | Requests_timed_out       (** requests whose deadline expired *)
  | Requests_degraded        (** timed-out requests answered with an upper bound *)
  | Requests_failed          (** malformed or erroring requests *)
  | Learned_prunes           (** covers skipped via a learned refutation *)
  | Learned_replays          (** cover triple loops replayed from learned survivors *)
  | Quarter_cache_hits       (** quartering signatures answered from the memo *)
  | Arena_reuses             (** decompose scratch arenas reused without reallocation *)
  | Multiword_decomposes     (** factorisation searches run (decompose calls past the quartering reject) *)
  | Multiword_kernel_calls   (** multi-word kernel ops dispatched (force/assemble/...) *)
  | Sat_solves               (** [Solver.solve] calls completed *)
  | Sat_decisions            (** CDCL decisions *)
  | Sat_propagations         (** CDCL unit propagations *)
  | Sat_conflicts            (** CDCL conflicts *)
  | Sat_restarts             (** CDCL restarts *)
  | Sat_learned              (** learnt clauses recorded *)
  | Sat_learned_core         (** learnt clauses entering the core (glue) tier *)
  | Sat_reductions           (** learnt-DB reduction passes *)
  | Sat_deleted_clauses      (** learnt clauses deleted *)
  | Sat_selectors_retired    (** budget selectors retired by a unit *)
  | Sweep_classes            (** candidate equivalence classes formed by a sweep round *)
  | Sweep_pairs_proved       (** sweep candidate pairs proven equivalent *)
  | Sweep_pairs_refuted      (** sweep candidate pairs refuted by a counterexample *)
  | Sweep_pairs_skipped      (** sweep candidate pairs abandoned on resource limits *)
  | Sweep_merges             (** nodes merged into their class representative *)
  | Sweep_cex_patterns       (** counterexample patterns fed back into simulation *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every counter and timer. *)

val incr : counter -> unit
val add : counter -> int -> unit

val time : stage -> (unit -> 'a) -> 'a
(** [time stage f] runs [f], attributing its self time to [stage].
    Exceptions propagate; the elapsed time is still recorded. *)

type stage_snapshot = { stage : string; calls : int; self_s : float }

type snapshot = {
  stages : stage_snapshot list;
  counts : (string * int) list;
}

val snapshot : unit -> snapshot

val stage_name : stage -> string
val counter_name : counter -> string

val pp : Format.formatter -> snapshot -> unit
