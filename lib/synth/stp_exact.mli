(** The paper's exact-synthesis algorithm (Section III).

    For increasing gate counts [r] starting at [support - 1], enumerate
    the DAG shapes of the pruned fence family [F_r] (Section III-A),
    factor the target's STP canonical form over each shape (Section
    III-B), collect {e all} Boolean-chain candidates, and keep those the
    circuit AllSAT solver verifies (Section III-C). The first gate count
    with verified chains is optimum, and every optimum chain of that
    size is returned in one pass. *)

val synthesize :
  ?options:Spec.options ->
  ?memo:Factor.memo ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t ->
  Stp_chain.Chain.t list Spec.outcome
(** All optimum chains for the target, over the target's full variable
    space. [Timeout] means the deadline expired mid-search;
    [Infeasible] means no chain exists within the options (a constant
    target, or every size up to [options.max_gates] refuted). The
    building block behind {!Engine.stp}.

    [memo] lets a caller reuse one {!Factor.memo} across many targets
    (a collection run): reuse only speeds the search up, it never
    changes results. A memo must never be shared between domains. For
    reuse across the members of an NPN class, see {!Npn_cache}.
    @raise Invalid_argument when [memo] was created for a different
    basis than [options.basis] ({!Factor.memo_has_basis}). *)
