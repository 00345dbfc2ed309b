(** The STP-based circuit AllSAT solver (Section III-C, Algorithms 1–2).

    Given a LUT network and a target value for every primary output, the
    solver recursively propagates targets towards the primary inputs: a
    LUT with target [v] admits exactly the fanin value combinations whose
    row of its structural matrix (equivalently, truth table) evaluates to
    [v]; the per-fanin solution sets are then merged. Solutions are
    {e cubes} — partial assignments of the primary inputs in which
    unassigned positions ([-] in the paper's notation) may take either
    value.

    The implementation memoises per (signal, value), so shared
    sub-circuits are traversed once. Inside the solver a cube is packed
    into one [int] — mask in the high bits, value in the low bits — which
    bounds networks to at most 30 primary inputs; the {!cube} record is
    the form at this interface. Cube sets have set semantics: the order
    of a returned list carries no meaning. *)

type cube = {
  mask : int;   (** bit [i] set iff input [i] is assigned *)
  value : int;  (** assigned values; [value land lnot mask = 0] *)
}

val cube_compatible : cube -> cube -> bool
val cube_merge : cube -> cube -> cube option

val merge_sets : cube list -> cube list -> cube list
(** The MERGE of Algorithm 1: all pairwise compatible merges of the two
    sets, with duplicates and cubes subsumed by a shorter cube of the
    result dropped. Duplicates and subsumed cubes of either input are
    dropped first, which leaves the resulting set unchanged. *)

val solve : Lut_network.t -> targets:bool array -> cube list
(** [solve net ~targets] returns all solution cubes: a set with no
    duplicate and no cube subsumed by another. The list is empty exactly
    when the instance is UNSAT. [targets] must have one entry per network
    output. The cubes are pairwise disjoint — every cube of a signal's
    set fixes that signal's whole input cone, and a merge of disjoint
    sets stays disjoint — but a set of cubes is not canonical; use
    {!onset} for a canonical answer.
    @raise Invalid_argument when the network has more than 30 inputs. *)

val onset : Lut_network.t -> targets:bool array -> Stp_tt.Tt.t
(** The characteristic function (over the primary inputs) of all
    satisfying assignments — the union of the solution cubes. *)

val count_solutions : Lut_network.t -> targets:bool array -> int
(** Number of distinct satisfying input assignments. *)

val is_sat : Lut_network.t -> targets:bool array -> bool

val all_minterms : Lut_network.t -> targets:bool array -> int list
(** All satisfying assignments, expanded to minterm indices,
    ascending. *)

val verify_chain :
  Stp_chain.Chain.t -> Stp_tt.Tt.t -> bool
(** [verify_chain c f] runs the paper's correctness check on a Boolean
    chain candidate: solve the chain's network for output target [1],
    simulate the solution set to a function [f_s], and test [f_s = f]
    (Section III-C step (iii)). It is {!verify} in a fresh session. *)

(** {1 Verification sessions}

    Candidate chains for one target share sub-chains: DSD joins compose
    every chain of one side with every chain of the other. A session
    hash-conses the chains' cones — a cone is a primary input or a gate
    code over two cones — and keys Algorithm 2's (signal, value) memo by
    cone, so each cone's solution sets are computed once per session. *)

type session

val session : n:int -> session
(** A fresh session for chains over [n] inputs.
    @raise Invalid_argument when [n > 30]. *)

val verify : session -> Stp_chain.Chain.t -> Stp_tt.Tt.t -> bool
(** [verify s c f] is [verify_chain c f], reusing and extending the
    session's cone memo. A complemented output is solved for target [0],
    which yields the same rows as the complemented output LUT of
    {!Lut_network.of_chain}.
    @raise Invalid_argument when [c] is not over the session's [n]
    inputs. *)

val pp_cube : n:int -> Format.formatter -> cube -> unit
(** Prints in the paper's style, e.g. [(1,0,-,1)]. *)
