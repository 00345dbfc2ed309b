exception Timeout

(* [span] is the budget the deadline was created with: two requests
   made with the same budget compare equal on it, where their
   [remaining] times differ by however long each waited. *)
type t = Never | At of { limit : float; span : float }

let never = Never
let after s = At { limit = Unix_time.now () +. s; span = s }

(* Every poll reads the clock: one STP poll can sit behind milliseconds
   of factorisation, so reading it only every k-th poll would let a
   deadline overrun by k times that. *)
let expired = function
  | Never -> false
  | At { limit; _ } -> Unix_time.now () > limit

let check d = if expired d then raise Timeout

let remaining = function
  | Never -> infinity
  | At { limit; _ } -> Float.max 0.0 (limit -. Unix_time.now ())

let budget = function Never -> infinity | At { span; _ } -> span
