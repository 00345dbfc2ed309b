(** NPN-class synthesis cache.

    NPN4 has only 222 classes behind the 65 536 4-input functions, and
    every member of a class has the same optimum gate count, with the
    optimum chains mapped onto each other by the class transform. This
    module exploits that: before a full synthesis run the target is
    canonicalised with {!Stp_tt.Npn.canonical}; on a cache hit the
    stored optimum chains of the class representative are replayed
    through the inverse transform (fanins permuted/negated into gate
    codes, output negation folded in) instead of re-searching.

    Verification discipline: the full dedup + circuit-SAT check
    ({!Common.optimal_and_verified}) runs {e once per class}, against
    the canonical target, when the entry is stored. Each subsequent
    replay only re-simulates the transformed chain — a cheap
    bit-parallel equality that still catches any transform-algebra bug
    without re-paying the paper's step (iv) per class member.

    The cache is protected by a mutex and may be shared between the
    domains of a parallel collection run: a class solved by one domain
    is a replay for every other. (The wrapped solver itself runs
    outside the lock; two domains missing on the same class
    concurrently both solve it, and the first store wins.) Entries are
    only written for solved instances.

    Timeouts are remembered by budget, not cached as answers. A class
    whose representative timed out under budget [b]
    ({!Stp_util.Deadline.budget} of the request's deadline) is not
    solved again for any request with budget [<= b]: that request
    returns {!Engine.Timeout} at once without calling the solver, and
    counts in [known_timeouts]. A request with a larger budget solves
    again (raising the record to its budget if it also times out), and
    the first optimal answer clears the record and is stored as usual.
    {!Stp_util.Deadline.never} is never skipped. Failure records live
    only in memory: {!entries} does not export them.

    Functions whose support exceeds [max_support] (default and upper
    bound {!Stp_tt.Npn.max_arity}, the arity limit of exhaustive
    canonicalisation) bypass the cache and are solved directly.

    Entries can be exported ({!entries}) and re-imported
    ({!add_entry}), which is how {!Stp_store.Store} persists a cache
    across processes. *)

type t

val create : ?max_support:int -> unit -> t

type solver = Engine.spec -> deadline:Stp_util.Deadline.t -> Engine.result
(** The shape of {!Engine.S.synthesize} as a plain function. *)

val wrap : t -> (module Engine.S) -> (module Engine.S)
(** [wrap t e] is an engine with identical per-instance semantics that
    consults the cache first. Cache misses solve the {e class
    representative} (so the entry serves the whole class) and replay
    the result onto the concrete target. Keep one cache per engine:
    entries store the wrapped engine's chain sets, and engines differ
    in how many optimum chains they return. *)

val wrap_solver : t -> solver -> solver
(** [wrap] at the function level, for callers not holding a module. *)

type stats = {
  hits : int;      (** lookups answered by replaying a cached class *)
  misses : int;    (** lookups that had to run a full synthesis *)
  bypassed : int;  (** instances too wide to canonicalise *)
  failures : int;
    (** replayed chains that failed re-simulation (a transform-algebra
        bug surfaced — the instance was re-solved directly) *)
  known_timeouts : int;
    (** lookups answered {!Engine.Timeout} without a solver call: the
        class had already timed out under at least this budget *)
}

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val classes : t -> int
(** Number of distinct NPN classes currently cached. *)

val cached : t -> Stp_tt.Tt.t -> bool
(** Would this target be answered by a cache replay right now? (Its
    class representative is cached and it is neither constant, trivial,
    nor too wide.) Advisory under concurrency — used by the daemon to
    attribute a response to cache vs. solver — and does not count as a
    lookup in {!stats}. *)

(** {1 Persistence hooks} *)

type entry = {
  gates : int;  (** the class's optimum gate count *)
  chains : Stp_chain.Chain.t list;
      (** optimum chains over the canonical function's variable space *)
}

val entries : t -> (Stp_tt.Tt.t * entry) list
(** Snapshot of every cached class, keyed by canonical representative
    (unordered). *)

val add_entry : t -> Stp_tt.Tt.t -> entry -> bool
(** [add_entry t canon entry] seeds the cache with an externally
    persisted class. The entry is sanitised, not trusted: the key must
    be a canonical representative within [max_support], and only chains
    of the recorded size that simulate to the key are kept. Returns
    [false] (and stores nothing) when nothing survives or the class is
    already cached. *)
