(** Common types for the exact-synthesis engines. *)

type 'a outcome =
  | Solved of 'a
      (** the answer: for the single-output engines all optimum chains
          found (non-empty, every chain of the same optimum size) *)
  | Timeout  (** the deadline expired before an answer *)
  | Infeasible
      (** no answer exists within the options: a constant target, or
          every gate count up to [max_gates] refuted *)
(** The one result type of every engine. [Timeout] and [Infeasible] are
    kept apart: a refutation is a proof, an expired deadline is not. *)

type options = {
  max_gates : int;        (** give up beyond this size (safety net) *)
  solution_cap : int;     (** cap on the number of chains collected *)
  all_shapes : bool;
    (** [false] (paper semantics): return all optimum chains of the
        first DAG topology that realises the target — "all optimal
        solutions under the current constraints in one pass".
        [true]: sweep every shape of the optimum gate count. *)
  use_dsd : bool;
    (** Peel disjoint-support decompositions before the topology search:
        a target [f = phi(g(A), h(B))] with disjoint [A], [B] is
        synthesised as optimum sub-chains joined by [phi], so the shape
        enumeration only ever runs on prime blocks. Gate-count
        optimality under this switch assumes disjoint decompositions
        compose additively, which the test suite cross-checks against
        the CNF baselines on every collection. *)
  basis : Stp_chain.Gate.code list option;
    (** Restrict the gate library, e.g. the AND class
        [[1; 2; 4; 7; 8; 11; 13; 14]] for AIG-style synthesis or
        [[8; 14; 6; 9; 7; 1]] for an AND/OR/XOR library. [None] allows
        all ten nontrivial 2-input gates. For identical optima across
        the STP engine and the CNF baselines the basis should be closed
        under operand swap and input/output complementation. *)
  max_depth : int option;
    (** Bound the logic depth: only topologies of at most this many
        levels are searched (every engine routes through the fence
        family for this, so the returned chain is size-optimal among
        chains respecting the bound). Disables DSD peeling in the STP
        engine, whose compositions do not control depth. *)
}
(** What to search for. The time budget is not an option: every engine
    takes an explicit {!Stp_util.Deadline.t}. *)

val default_options : options
(** [max_gates = 14], [solution_cap = 2000], [all_shapes = false],
    [use_dsd = true], no basis restriction, no depth bound. *)
