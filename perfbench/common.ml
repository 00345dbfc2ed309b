(* Clocks, quantiles, memory and output helpers shared by the workloads. *)

module Json = Stp_telemetry.Json

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Quantiles are taken from raw samples, never from histogram buckets. *)
let median samples =
  match Array.of_list (List.sort compare samples) with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the tail a
   sample of this size supports. Returns (percentile, value), falling
   back to the median below 21 samples. *)
let supported_tail samples =
  let n = List.length samples in
  if n < 21 then (50.0, median samples)
  else
    let sorted = Array.of_list (List.sort compare samples) in
    (100.0 *. float_of_int (n - 10) /. float_of_int n, sorted.(n - 11))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Peak resident set of a process in MB (VmHWM), 0 once it is gone. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    scan ()

(* Restart this process's peak-RSS count (Linux: "5" to clear_refs), so
   that [peak_rss_mb 0] covers only what follows. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* A fresh scratch directory inside the working tree (the benchmark
   writes nothing outside its checkout); relative, so Unix socket paths
   stay short. *)
let scratch_root = ".perfbench"

let scratch_count = ref 0

let fresh_scratch tag =
  incr scratch_count;
  let dir =
    Filename.concat scratch_root
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !scratch_count)
  in
  remove_tree dir;
  mkdir_p dir;
  dir

let log fmt = Printf.ksprintf (fun s -> prerr_string s; flush stderr) fmt

(* {2 Results} *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)
