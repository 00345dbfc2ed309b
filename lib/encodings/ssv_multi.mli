(** Multi-output variant of the SSV encoding.

    Encodes "one shared pool of [r] normal 2-input gates computes every
    function of [fs]": gate selection/operator/simulation variables as in
    {!Ssv}, plus per-output selection variables ranging over all signals.
    Outputs whose function is not normal are complemented statically and
    decoded with a complement flag — the Boolean-chain output model of
    the paper's Section II-B. *)

(** One long-lived solver per instance — the multi-output analogue of
    {!Ssv.Inc}. Gate semantics, operator
    constraints and per-signal output-agreement clauses persist across
    gate budgets; "each output picks a signal within the budget" and
    "each gate is used" hang off a per-budget selector literal. *)
module Inc : sig
  type inc

  val create :
    ?basis:Stp_chain.Gate.code list ->
    solver:Stp_sat.Solver.t ->
    fs:Stp_tt.Tt.t array ->
    unit ->
    inc
  (** Outputs are normalised internally (complement flags are restored
      by {!decode}). Only the input-signal agreement clauses are added
      up front. @raise Invalid_argument on empty or mixed-arity [fs]. *)

  val budget_selector : inc -> int -> Stp_sat.Lit.t option
  (** Encodes gates up to [r] (if not already present) plus the
      budget-[r] constraints; returns the activating assumption literal,
      or [None] when the structure is infeasible. *)

  val retire : inc -> int -> unit
  (** Permanently refutes budget [r]'s selector. No-op if never encoded
      or already retired. *)

  val decode : inc -> r:int -> Stp_chain.Mchain.t
  (** Reads the budget-[r] network out of the current model. *)
end
