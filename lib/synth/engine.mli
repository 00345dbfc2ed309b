(** The unified synthesis-engine API.

    Every exact engine in the repo — the paper's STP AllSAT engine and
    the three CNF baselines — is exposed behind one module type:
    a [synthesize] function from a {!spec} (target, options, optional
    factor memo) and an explicit deadline to one shared three-way
    {!result}. The harness ({!Stp_harness.Runner}), the NPN cache
    ({!Npn_cache}) and the netlist rewriter consume engines only
    through this signature, so adding an engine is implementing [S]
    once.

    Deadlines are explicit: a service handing out per-request budgets
    (the synthesis daemon) and a collection runner sharing one
    wall-clock policy both construct the deadline themselves. *)

type spec = {
  target : Stp_tt.Tt.t;
  options : Spec.options;
  memo : Factor.memo option;
      (** reusable factorisation memo; engines that cannot use one
          ignore it, and {!stp} raises [Invalid_argument] when its
          basis differs from [options.basis] *)
}

val spec : ?options:Spec.options -> ?memo:Factor.memo -> Stp_tt.Tt.t -> spec
(** [spec f] with {!Spec.default_options} and no memo. *)

type 'a outcome = 'a Spec.outcome =
  | Solved of 'a
  | Timeout
  | Infeasible
(** {!Spec.outcome}, re-exported with its constructors. *)

type result = Stp_chain.Chain.t list outcome
(** [Solved chains]: all optimum chains found (non-empty; every chain
    has the same optimum size, readable as {!gates}). [Timeout]: the
    deadline expired before an answer — or, behind {!Npn_cache.wrap},
    the cache knows the target's class already timed out under at least
    this deadline's budget and did not call the engine. [Infeasible]: no
    chain exists within the spec's constraints (a constant target, or
    every gate count up to [options.max_gates] refuted). *)

module type S = sig
  val name : string

  val synthesize : spec -> deadline:Stp_util.Deadline.t -> result
end

val stp : (module S)
(** The paper's STP AllSAT engine ({!Stp_exact}); name ["STP"]. *)

val bms : (module S)
(** Busy-man's-synthesis CNF baseline; name ["BMS"]. *)

val fen : (module S)
(** Fence-enumeration CNF baseline; name ["FEN"]. *)

val lutexact : (module S)
(** The CEGAR analogue of ABC's [lutexact]; name ["ABC"]. *)

val all : (module S) list
(** BMS, FEN, ABC, STP — the paper's column order. *)

val name : (module S) -> string

val find : string -> (module S) option
(** Look an engine up by (case-insensitive) name. *)

val gates : result -> int option
(** The optimum gate count of a [Solved] result (the size of its
    chains); [None] otherwise. *)

val outcome_label : 'a outcome -> string
(** ["solved"], ["timeout"] or ["infeasible"] — the histogram and
    response-status vocabulary shared by the harness and the daemon. *)

val observed : (module S) -> (module S)
(** Telemetry decorator: the same engine, with a
    {!Stp_telemetry.Trace} span per [synthesize] call (named
    [synth.<engine>], tagged with the target arity) and — when
    {!Stp_telemetry.Telemetry.metrics_enabled} — call latencies
    recorded into the registered histograms [engine/<name>] and
    [engine/<name>/<outcome>]. Free when tracing and metrics are both
    off (two [ref] reads per call). *)
