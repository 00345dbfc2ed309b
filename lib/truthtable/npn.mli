(** NPN classification of Boolean functions.

    Two functions are NPN-equivalent when one is obtained from the other
    by negating inputs, permuting inputs, and possibly negating the
    output. The canonical representative of a class is the minimum truth
    table (w.r.t. {!Tt.compare}) over the whole orbit, so canonicity is a
    simple equality test.

    Canonicalisation is exhaustive over all [2^n * n! * 2] transforms,
    computed on a single 64-bit word per image rather than on {!Tt.t}
    values: per permutation the permuted table is built once and its
    [2^n] input-negated variants are derived by one variable swap each.
    One call costs about 6 us at [n = 4], 50 us at [n = 5] and 0.4 ms
    at [n = 6] (the [npn_canonical] rows of [BENCH_kernels.json]), so
    5- and 6-input cuts are practical; arities above 6 are refused. *)

type transform = {
  perm : int array;  (** input permutation; see {!apply} *)
  input_neg : int;   (** bitmask of complemented inputs *)
  output_neg : bool; (** whether the output is complemented *)
}

val identity : int -> transform
(** [identity n] is the neutral transform on [n] variables. *)

val apply : Tt.t -> transform -> Tt.t
(** [apply t tr] complements the inputs of [t] selected by
    [tr.input_neg], then permutes inputs by [tr.perm] (in the sense of
    {!Tt.permute}), then complements the output if [tr.output_neg]. *)

val inverse : transform -> transform
(** [inverse tr] undoes [tr]: [apply (apply t tr) (inverse tr) = t]. *)

val max_arity : int
(** Largest arity {!canonical} accepts (6). *)

val canonical : Tt.t -> Tt.t * transform
(** [canonical t] is the class representative [r] together with a
    transform [tr] such that [apply t tr = r]: the first transform, in
    the order permutation (as listed by {!permutations}), then output
    flag ([false] first), then input mask (ascending), whose image is
    minimal; the identity when [t] is itself minimal.
    @raise Invalid_argument when [Tt.num_vars t > max_arity]. *)

val is_canonical : Tt.t -> bool

val classes : int -> Tt.t list
(** [classes n] enumerates the canonical representatives of all NPN
    classes of [n]-variable functions, ascending; practical for
    [n <= 4]. [classes 4] has 222 elements. *)

val permutations : int -> int array list
(** [permutations n] lists all permutations of [0 .. n-1]. *)

val canon4 : int -> int
(** [canon4 v] is the canonical representative (as a 16-bit integer
    truth table) of the NPN class of the 4-variable function [v]. Backed
    by a lazily built table over all 65536 functions; O(1) after the
    first call. *)
