(** Multi-word kernel primitives for the factorisation solver.

    The decompose search of [Stp_synth.Factor] keeps each side's block
    values and assignedness in flat multi-word planes. These five
    kernels work on them at word granularity: the first unassigned
    class, the constant-row test, one whole constraint-propagation step,
    its undo, and factor assembly from indicator rows.

    Buffers are plain [Bytes] holding 64-bit words in {e native} byte
    order; offsets and widths are counted in words. The solver runs the
    C stubs ({!Ops}); a pure-OCaml implementation on
    [Bytes.get_int64_ne]/[set_int64_ne] is kept as the reference they
    are tested and benchmarked against. *)

val impl_name : string
(** Name of the implementation behind {!Ops}: always ["c"]. *)

module type OPS = sig
  val first_unset : Bytes.t -> int -> int -> int
  (** [first_unset b off nbits]: index of the first clear bit below
      [nbits] in the bitset at word-offset [off], or [-1]. *)

  val is_const_row : Bytes.t -> int -> int -> bool
  (** [is_const_row b off nbits]: the [nbits]-wide row is all-zero or
      all-one (the constant-factor test on a fully assigned side). *)

  val force :
    Bytes.t -> int -> Bytes.t -> int -> int -> Bytes.t -> int -> int ->
    int -> int -> int
  (** [force rows roff st val_off care_off newly noff w ok0 ok1]: one
      whole constraint-propagation step. The class row at [roff] is
      [valid ; tv] ([w] words each); the partner side's state planes
      live in [st]. [ok0]/[ok1] (0/1) say whether a partner value of
      0/1 keeps the gate on target. Returns [-1] on conflict (state
      untouched), else writes the newly-forced mask to [newly],
      ORs it into the partner planes, and returns 1 if nonempty,
      0 otherwise. *)

  val undo : Bytes.t -> int -> int -> Bytes.t -> int -> int -> unit
  (** [undo st val_off care_off mask moff w]: clear the masked bits
      from both state planes (trail rollback). *)

  val assemble : Bytes.t -> int -> Bytes.t -> int -> int -> int -> Bytes.t -> int -> unit
  (** [assemble inds ioff row roff count tw out ooff]: OR together the
      [tw]-word indicator rows of the classes whose bit is set in the
      [count]-bit selector [row]; the result overwrites [out]. *)
end

module C_ops : OPS

module Ocaml_ops : OPS
(** The pure-OCaml reference implementation. *)

module Ops : OPS
(** What the solver uses: {!C_ops}. *)

val word_of_var : n:int -> v:int -> k:int -> int64
(** Pattern of variable [v] of an [n]-variable table restricted to
    table word [k]: the minterms of word [k] where [v] is 1. *)
