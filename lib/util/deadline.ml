exception Timeout

type t = Never | At of float

let never = Never
let after s = At (Unix_time.now () +. s)

(* Every poll reads the clock: one STP poll can sit behind milliseconds
   of factorisation, so reading it only every k-th poll would let a
   deadline overrun by k times that. *)
let expired = function Never -> false | At limit -> Unix_time.now () > limit

let check d = if expired d then raise Timeout

let remaining = function
  | Never -> infinity
  | At limit -> Float.max 0.0 (limit -. Unix_time.now ())
