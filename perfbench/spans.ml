(* The benchmark's own spans, recorded around its calls into each layer
   (one id per instance, netlist pass or request) and kept in memory
   until the run ends. Timing happens whether or not spans are kept, so
   untraced runs measure the same interval. *)

type span = { name : string; id : int; t0 : float; t1 : float }

type t = { mutable enabled : bool; mutable spans : span list }

let create ~enabled = { enabled; spans = [] }

let add t name id t0 t1 = if t.enabled then t.spans <- { name; id; t0; t1 } :: t.spans

let record t name id f =
  let t0 = Common.now () in
  let v = f () in
  let t1 = Common.now () in
  add t name id t0 t1;
  (v, t1 -. t0)

let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0.0 t.spans

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write t path =
  let module J = Stp_telemetry.Json in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity t.spans in
  let ev s =
    J.Obj
      [ ("name", J.String s.name); ("ph", J.String "X"); ("pid", J.Int 1); ("tid", J.Int 1);
        ("ts", J.Float ((s.t0 -. origin) *. 1e6)); ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("args", J.Obj [ ("id", J.Int s.id) ]) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List (List.rev_map ev t.spans)) ]));
  close_out oc
