(** STP matrix factorisation of Boolean functions over DAG shapes
    (Section III-B).

    The central operation decomposes a target function [t] as
    [t = phi (g over A) (h over B)] for a 2-input gate [phi] and variable
    sets [A], [B] (given as bitmasks, possibly overlapping). Written on
    STP canonical forms, this is exactly the paper's factorisation of
    [M_Φ] into [M_phi ⋉ M_g ⋉ M_h]:

    - for disjoint [A], [B] the solvability condition is the paper's
      "two unique quartering parts" test on the blocks of [M_Φ];
    - overlapping [A], [B] correspond to factorisations through the
      power-reducing matrix [M_r] (Property 3/4), whose unconstrained
      entries ['x'] surface here as free block values that the
      enumeration branches on;
    - the variable reorderings handled by [M_w] (swap matrices)
      correspond to the packing of minterm bits into block indices.

    [solve_shape] runs the factorisation top-down over a whole DAG shape
    and produces every Boolean chain of that shape realising the target
    (the paper's pBC candidates, all solutions in one pass). *)

type triple = {
  phi : Stp_chain.Gate.code;
  g : Stp_tt.Tt.t; (** first-operand subfunction, support inside [A] *)
  h : Stp_tt.Tt.t; (** second-operand subfunction, support inside [B] *)
}

type memo
(** Shared caches: factorisation results keyed by (target, A, B) and
    subtree feasibility keyed by (structural signature, target), plus
    the gate basis the engine is allowed to use. Reuse one memo across
    gate counts and shapes of a synthesis run — and across the
    instances of a whole collection run: every cached value is a pure
    function of its key (capped factorisation lists are stored at the
    full enumeration bound and truncated per call), so reuse changes
    only speed, never results. A memo is specific to its basis.

    A memo is plain [Hashtbl]s and is {e not} thread-safe: parallel
    runners must keep one memo per domain and never share one. *)

val create_memo : ?basis:Stp_chain.Gate.code list -> unit -> memo
(** [create_memo ()] allows all ten nontrivial gates.
    [create_memo ~basis ()] restricts the engine to the given codes
    (degenerate codes are ignored); e.g. the AND class
    [[1; 2; 4; 7; 8; 11; 13; 14]] for AIG-style synthesis.
    @raise Invalid_argument on an empty effective basis. *)

val memo_has_basis : memo -> Stp_chain.Gate.code list option -> bool
(** [memo_has_basis memo basis] holds when [memo] was created for the
    same effective basis as [create_memo ?basis ()] would use
    (degenerate codes ignored, [None] meaning all ten nontrivial
    gates). *)

val decompose :
  ?memo:memo ->
  ?g_fixed:Stp_tt.Tt.t ->
  ?h_fixed:Stp_tt.Tt.t ->
  cap:int ->
  target:Stp_tt.Tt.t ->
  amask:int ->
  bmask:int ->
  unit ->
  triple list
(** All factorisations [target = phi(g, h)] with [supp g ⊆ amask],
    [supp h ⊆ bmask], [phi] nontrivial and [g], [h] non-constant. At
    most [cap] triples are returned. Returns [] when
    [supp target ⊄ amask ∪ bmask]. [g_fixed] (resp. [h_fixed]) pins one
    side to a known subfunction — used when a shared DAG node's function
    was already bound by another parent.

    One enumeration engine, on the multi-word {!Stp_matrix.Kern}
    kernels, handles every side and target width; its per-domain
    scratch arena grows on the first call that needs more. Triples come
    in a fixed order (lowest unassigned A class first, then B, value 0
    before 1), so a capped call returns a prefix of the full list. *)

type stats = {
  mutable decompose_calls : int;
  mutable shapes_tried : int;
  mutable candidates_emitted : int;
  mutable feasibility_checks : int;
  mutable truncated : bool; (** a solution cap was hit somewhere *)
}

val fresh_stats : unit -> stats

val solve_shape :
  ?deadline:Stp_util.Deadline.t ->
  ?memo:memo ->
  ?stats:stats ->
  cap:int ->
  shape:Stp_topology.Dag.t ->
  target:Stp_tt.Tt.t ->
  unit ->
  Stp_chain.Chain.t list
(** Every chain of the given shape computing [target] (over the target's
    full variable space; the target must depend on at least two
    variables). Raises {!Stp_util.Deadline.Timeout} on expiry. *)
