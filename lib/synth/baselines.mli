(** The paper's three comparison baselines (Section IV), all built on the
    in-repo CDCL solver:

    - {!bms}: the plain SAT-based exact-synthesis loop with the SSV
      encoding, one solver call per gate count (Soeken et al., "Busy
      man's synthesis", DATE'17 — the baseline implementation of [17]).
    - {!fen}: fence enumeration with topological selection constraints
      (Haaswijk et al., TCAD'19 — [3]).
    - {!abc}: a CEGAR analogue of ABC's [lutexact]: simulation clauses
      are added lazily for counterexample minterms.

    All three return at most one chain — the paper contrasts this with
    the STP engine's all-solutions-in-one-pass.

    {!bms} and {!abc} run on one long-lived CDCL solver per target,
    shared across the whole gate-budget sweep. Budget-independent
    clauses (gate semantics, operators, simulation) persist; each
    budget's closing constraints hang off a selector literal assumed
    during its solves and retired by a unit clause once the budget is
    refuted, so conflict clauses learnt refuting [r] gates keep pruning
    at [r + 1]. {!fen} builds one fence-restricted encoding per fence on
    a fresh solver: those encodings are strictly smaller than a shared
    unrestricted instance, and a shared-solver FEN measured slower on
    the NPN4 sweep (EXPERIMENTS.md). A depth bound
    ([options.max_depth]) is expressed through fence levels, so
    depth-bounded {!bms} and {!abc} run the {!fen} engine. *)

type engine =
  ?options:Spec.options ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t ->
  Stp_chain.Chain.t list Spec.outcome
(** A baseline under an explicit deadline. [Solved] carries exactly one
    optimum chain; [Infeasible] means a constant target or every gate
    count up to [options.max_gates] refuted; [Timeout] means the
    deadline expired first. *)

val bms : engine

val fen : engine

val abc : engine

val upper_bound : Stp_tt.Tt.t -> Stp_chain.Chain.t
(** A verified but non-optimal chain for any non-constant target, built
    by recursive Shannon expansion (constant-cofactor folds, single-gate
    base cases, shared subfunctions) over the full 2-LUT library —
    milliseconds even at 16 variables. The synthesis daemon returns this
    as the best-known upper bound when an exact engine's deadline
    expires.
    @raise Invalid_argument on constant targets. *)
