(** Single-selection-variable CNF encoding of SAT-based exact synthesis
    (Knuth; Soeken et al.; Haaswijk et al., TCAD'19).

    Encodes "there exists a Boolean chain of [r] normal 2-input gates
    computing [f]" into CNF:

    - selection variables [s_{i,(j,k)}] pick the two fanins of gate [i]
      among earlier signals [j < k];
    - three operator bits per gate give its output on input patterns
      01, 10, 11 (normal gates output 0 on 00);
    - simulation variables [t_{i,m}] tie gate outputs to the target on
      every encoded minterm.

    The encoder is parametric in two ways: an optional per-gate
    {e level} assignment restricts selections to fence-legal pairs (the
    FEN baseline), and an optional gate {e basis} blocks operator-bit
    patterns outside a restricted library (only the normal members of
    the basis can appear in an SSV chain — bases closed under
    complementation lose no optima). The target must be {e normal}
    ([f(0,…,0) = 0]); callers synthesise the complement otherwise and
    flip the chain output. *)

type t

val build :
  ?levels:int array ->
  ?basis:Stp_chain.Gate.code list ->
  solver:Stp_sat.Solver.t ->
  f:Stp_tt.Tt.t ->
  r:int ->
  unit ->
  t option
(** [build ~solver ~f ~r ()] adds the encoding for an [r]-gate chain to
    [solver]. [levels.(i)], when given, is the fence level (1-based) of
    gate [i]; gates must come in non-decreasing level order. Every
    non-zero minterm is encoded. Returns [None] when the structure
    admits no legal fanin pair for some gate (infeasible fence).
    @raise Invalid_argument if [f] is not normal. *)

val decode : t -> Stp_chain.Chain.t
(** Reads a chain out of the solver's current model; call only after
    [solve] returned [Sat]. *)

(** {1 Incremental encoding}

    A monotone-extensible form of the same encoding, built for one
    long-lived solver per synthesis instance. Gate structure, operator
    constraints and simulation clauses are budget-independent and
    persist across gate counts; the budget-specific clauses (output
    match, every-gate-used) are guarded by a per-budget selector
    literal. Solve budget [r] under [~assumptions:[budget_selector r]];
    when budget [r] is refuted, {!Inc.retire} the selector — a single
    unit clause — and move on with every learnt clause intact. The set
    of encoded minterms may start small and grow (the CEGAR loop of the
    ABC [lutexact] analogue). *)
module Inc : sig
  type inc

  val create :
    ?basis:Stp_chain.Gate.code list ->
    solver:Stp_sat.Solver.t ->
    f:Stp_tt.Tt.t ->
    unit ->
    inc
  (** No clauses are added until minterms and budgets are requested.
      @raise Invalid_argument if [f] is not normal. *)

  val budget_selector : inc -> int -> Stp_sat.Lit.t option
  (** [budget_selector c r] encodes gates up to [r] (if not already
      present) plus the budget-[r] constraints, and returns the
      assumption literal activating them. [None] when the structure
      admits no fanin pair for some gate (fewer than two signals). *)

  val retire : inc -> int -> unit
  (** Permanently refutes budget [r]'s selector (unit clause); the
      guarded clauses are reclaimed by the solver. No-op if the budget
      was never encoded or already retired. *)

  val add_minterm : inc -> int -> unit
  (** CEGAR refinement: adds the simulation clauses of one more minterm
      for every encoded gate, and its output clause for every live
      budget. No-op if already encoded. *)

  val encoded_minterms : inc -> int list

  val decode : inc -> r:int -> Stp_chain.Chain.t
  (** Reads the budget-[r] chain out of the current model. *)
end
