(** Shared plumbing for all synthesis engines: support reduction and
    trivial-target handling. *)

val prepare :
  Stp_tt.Tt.t ->
  [ `Trivial of Stp_chain.Chain.t
  | `Reduced of Stp_tt.Tt.t * int list ]
(** [prepare f] projects the target onto its support. A target depending
    on one variable yields a gate-free chain ([`Trivial]); otherwise
    [`Reduced (g, support)] gives the compacted function and the original
    indices of its variables.
    @raise Invalid_argument on constant targets, which have no Boolean
    chain in this model. *)

val expand_chain :
  n:int -> support:int list -> Stp_chain.Chain.t -> Stp_chain.Chain.t
(** Lift a chain over the compacted variables back to the original
    [n]-variable space. *)

val optimal_and_verified :
  ?deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t -> Stp_chain.Chain.t list -> Stp_chain.Chain.t list
(** [optimal_and_verified target chains] deduplicates [chains] up to
    fanin order and keeps, in order, only chains that simulate to the
    target {e and} pass the circuit-solver verification — the paper's
    step (iv).

    The dedup key is structural: the steps, output and output flag of
    {!Stp_chain.Chain.normalise_fanin_order}'s form of the chain, so the
    first of two chains that differ only in the operand order of their
    gates is kept. The circuit check runs in one
    {!Stp_circuitsat.Circuit_solver.session} per call, so chains that
    share sub-chains (as DSD joins produce) share their cones' solution
    sets; nothing is kept between calls.

    [deadline] (default {!Stp_util.Deadline.never}) is checked once per
    chain, before it is verified.
    @raise Stp_util.Deadline.Timeout when [deadline] has expired. *)
