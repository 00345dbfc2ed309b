let impl_name = "c"

module type OPS = sig
  val first_unset : Bytes.t -> int -> int -> int
  val is_const_row : Bytes.t -> int -> int -> bool
  val force :
    Bytes.t -> int -> Bytes.t -> int -> int -> Bytes.t -> int -> int ->
    int -> int -> int
  val undo : Bytes.t -> int -> int -> Bytes.t -> int -> int -> unit
  val assemble :
    Bytes.t -> int -> Bytes.t -> int -> int -> int -> Bytes.t -> int -> unit
end

module C_ops : OPS = struct
  external first_unset : Bytes.t -> int -> int -> int = "stp_kern_first_unset"
    [@@noalloc]

  external is_const_row : Bytes.t -> int -> int -> bool
    = "stp_kern_is_const_row"
    [@@noalloc]

  external force :
    Bytes.t -> int -> Bytes.t -> int -> int -> Bytes.t -> int -> int ->
    int -> int -> int = "stp_kern_force_bytecode" "stp_kern_force_native"
    [@@noalloc]

  external undo : Bytes.t -> int -> int -> Bytes.t -> int -> int -> unit
    = "stp_kern_undo_bytecode" "stp_kern_undo_native"
    [@@noalloc]

  external assemble :
    Bytes.t -> int -> Bytes.t -> int -> int -> int -> Bytes.t -> int -> unit
    = "stp_kern_assemble_bytecode" "stp_kern_assemble_native"
    [@@noalloc]
end

module Ocaml_ops : OPS = struct
  let gw b k = Bytes.get_int64_ne b (k lsl 3)
  let sw b k v = Bytes.set_int64_ne b (k lsl 3) v

  let first_unset b off nbits =
    let rec loop k =
      if k * 64 >= nbits then -1
      else
        let inv = Int64.lognot (gw b (off + k)) in
        if Int64.equal inv 0L then loop (k + 1)
        else begin
          let bit = ref 0 in
          while
            Int64.equal
              (Int64.logand (Int64.shift_right_logical inv !bit) 1L)
              0L
          do
            incr bit
          done;
          let idx = (k * 64) + !bit in
          if idx < nbits then idx else -1
        end
    in
    loop 0

  let is_const_row b off nbits =
    let all0 = ref true and all1 = ref true in
    let k = ref 0 in
    while !k * 64 < nbits do
      let width = nbits - (!k * 64) in
      let m =
        if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L
      in
      let w = Int64.logand (gw b (off + !k)) m in
      if not (Int64.equal w 0L) then all0 := false;
      if not (Int64.equal w m) then all1 := false;
      incr k
    done;
    !all0 || !all1

  let force rows roff st val_off care_off newly noff w ok0 ok1 =
    (* Pass 1: detect conflicts before mutating any state, so a failed
       step never needs trail cleanup. *)
    let conflict = ref false in
    for k = 0 to w - 1 do
      if not !conflict then begin
        let valid = gw rows (roff + k) and tv = gw rows (roff + w + k) in
        let w0 = if ok0 = 1 then tv else Int64.lognot tv in
        let w1 = if ok1 = 1 then tv else Int64.lognot tv in
        if
          not
            (Int64.equal
               (Int64.logand valid (Int64.lognot (Int64.logor w0 w1)))
               0L)
        then conflict := true
        else begin
          let forced0 =
            Int64.logand valid (Int64.logand w0 (Int64.lognot w1))
          in
          let forced1 =
            Int64.logand valid (Int64.logand w1 (Int64.lognot w0))
          in
          let pv = gw st (val_off + k) and pc = gw st (care_off + k) in
          if
            (not (Int64.equal (Int64.logand forced0 (Int64.logand pc pv)) 0L))
            || not
                 (Int64.equal
                    (Int64.logand forced1
                       (Int64.logand pc (Int64.lognot pv)))
                    0L)
          then conflict := true
        end
      end
    done;
    if !conflict then -1
    else begin
      let any = ref false in
      for k = 0 to w - 1 do
        let valid = gw rows (roff + k) and tv = gw rows (roff + w + k) in
        let w0 = if ok0 = 1 then tv else Int64.lognot tv in
        let w1 = if ok1 = 1 then tv else Int64.lognot tv in
        let forced0 = Int64.logand valid (Int64.logand w0 (Int64.lognot w1)) in
        let forced1 = Int64.logand valid (Int64.logand w1 (Int64.lognot w0)) in
        let pv = gw st (val_off + k) and pc = gw st (care_off + k) in
        let fresh =
          Int64.logand (Int64.logor forced0 forced1) (Int64.lognot pc)
        in
        sw st (care_off + k) (Int64.logor pc fresh);
        sw st (val_off + k) (Int64.logor pv (Int64.logand forced1 fresh));
        sw newly (noff + k) fresh;
        if not (Int64.equal fresh 0L) then any := true
      done;
      if !any then 1 else 0
    end

  let undo st val_off care_off mask moff w =
    for k = 0 to w - 1 do
      let nm = Int64.lognot (gw mask (moff + k)) in
      sw st (val_off + k) (Int64.logand (gw st (val_off + k)) nm);
      sw st (care_off + k) (Int64.logand (gw st (care_off + k)) nm)
    done

  let assemble inds ioff row roff count tw out ooff =
    for k = 0 to tw - 1 do
      sw out (ooff + k) 0L
    done;
    for c = 0 to count - 1 do
      if
        Int64.equal
          (Int64.logand
             (Int64.shift_right_logical (gw row (roff + (c lsr 6))) (c land 63))
             1L)
          1L
      then
        for k = 0 to tw - 1 do
          sw out (ooff + k)
            (Int64.logor (gw out (ooff + k)) (gw inds (ioff + (c * tw) + k)))
        done
    done
end

module Ops = C_ops

(* Pattern of index bit [v] inside one 64-bit word, for v < 6 (same
   table as Tt/Tmat). *)
let var_patterns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let word_of_var ~n ~v ~k =
  let m =
    if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L
  in
  if v < 6 then Int64.logand var_patterns.(v) m
  else if (k lsr (v - 6)) land 1 = 1 then m
  else 0L
