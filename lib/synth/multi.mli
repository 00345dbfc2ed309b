(** Multi-output synthesis: the full Boolean-chain model of Section
    II-B, where one shared gate pool drives several outputs.

    Both engines answer with {!Spec.outcome}: [Solved mc] carries the
    multi-output chain (its gate count is {!Stp_chain.Mchain.size});
    [Infeasible] means no chain exists within [options.max_gates];
    [Timeout] means [deadline] expired first.
    @raise Invalid_argument on no outputs, mixed arities or a constant
    output. *)

val exact :
  ?options:Spec.options ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t array ->
  Stp_chain.Mchain.t Spec.outcome
(** Size-optimal multi-output chain via the multi-output SSV encoding on
    the CDCL solver — exact, one solution. Outputs must share one
    arity. One solver spans the whole gate-budget sweep, with per-budget
    selector literals ({!Stp_encodings.Ssv_multi.Inc}).
    @raise Invalid_argument when [options.max_depth] is set: the
    multi-output encoding has no depth constraints. *)

val stp_shared :
  ?options:Spec.options ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t array ->
  Stp_chain.Mchain.t Spec.outcome
(** Heuristic multi-output synthesis in the STP spirit: each output is
    synthesised exactly (all optimum chains, one shared [deadline]),
    then one chain per output is chosen to add the fewest fresh gates
    to a pool that merges structurally identical steps (same fanins,
    same gate code up to operand order). An upper bound on the exact
    multi-output optimum — fast where {!exact} is not. Each output's
    cone keeps the depth of its chain, so [options.max_depth] holds. *)
