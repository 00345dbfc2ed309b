(** Cooperative wall-clock deadlines.

    Long-running solvers poll a deadline at loop boundaries and abandon the
    search when it has expired, which is how the reproduction implements
    the paper's per-instance timeout without threads or signals.

    Monotonicity note: every time read goes through {!Unix_time.now},
    which is CLOCK_MONOTONIC (via {!Profile.now_ns}) — a deadline is
    immune to NTP adjustments and manual clock resets. It is still a
    cooperative bound, not a hard real-time one: expiry is only observed
    when the solver polls. *)

type t

val never : t
(** A deadline that never expires. *)

val after : float -> t
(** [after s] expires [s] seconds from now. *)

val expired : t -> bool
(** [expired d] is [true] once the wall clock has passed [d]. Every call
    reads the clock, so expiry is seen on the first poll after it.
    Expiry latches: the clock is monotonic, so once [expired] has
    returned [true] it returns [true] forever. *)

val check : t -> unit
(** [check d] raises {!Timeout} if [d] has expired. *)

val remaining : t -> float
(** [remaining d] is the number of seconds left (infinite for
    {!never}). *)

exception Timeout
