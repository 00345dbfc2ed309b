(** The paper's exact-synthesis algorithm (Section III).

    For increasing gate counts [r] starting at [support - 1], enumerate
    the DAG shapes of the pruned fence family [F_r] (Section III-A),
    factor the target's STP canonical form over each shape (Section
    III-B), collect {e all} Boolean-chain candidates, and keep those the
    circuit AllSAT solver verifies (Section III-C). The first gate count
    with verified chains is optimum, and every optimum chain of that
    size is returned in one pass. *)

val synthesize_outcome :
  ?options:Spec.options ->
  ?memo:Factor.memo ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t ->
  [ `Solved of Stp_chain.Chain.t list * int | `Timeout | `Infeasible ]
(** The engine under an explicit deadline (ignoring [options.timeout]):
    [`Solved (chains, gates)] carries all optimum chains over the
    target's full variable space; [`Timeout] means the deadline expired
    mid-search; [`Infeasible] means no chain exists within the options
    (a constant target, or every size up to [options.max_gates]
    refuted). The building block behind {!Engine.stp}. *)

val synthesize :
  ?options:Spec.options -> ?memo:Factor.memo -> Stp_tt.Tt.t -> Spec.result
(** All optimum chains for the target. The result chains range over the
    target's full variable space.

    [memo] lets a caller reuse one {!Factor.memo} across many targets
    (a collection run): reuse only speeds the search up, it never
    changes results. The memo's basis must match [options.basis], and a
    memo must never be shared between domains.
    @raise Invalid_argument on constant targets. *)

val synthesize_npn :
  ?options:Spec.options -> ?memo:Factor.memo -> Stp_tt.Tt.t -> Spec.result
(** Like {!synthesize}, but canonicalises the target's NPN class first
    and maps the solutions back — cheaper when many equivalent functions
    are synthesised, and a direct use of the paper's NPN reduction.
    Targets of more than {!Stp_tt.Npn.max_arity} support variables are
    synthesised directly, as by {!synthesize}. For reuse of
    the canonical class's solutions across a whole run, see
    {!Npn_cache}. *)
