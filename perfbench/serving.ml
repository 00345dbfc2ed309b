(* The [service] workload: a cold sharded synthesis service (2 shards x
   1 job, append-mode store in a fresh directory, 0.25 s request
   deadline) forked from this process and driven over a Unix socket by
   one closed-loop connection per shard, each with one request
   outstanding. *)

module Tt = Stp_tt.Tt
module Prng = Stp_util.Prng
module Json = Stp_telemetry.Json
module Wire = Stp_service.Wire
module Service = Stp_service.Service

let timeout_s = 0.25

let shards = 2

(* {2 Request stream} *)

(* Class popularity is Zipf(1.1) over a fixed rank order of the 221
   synthesizable NPN4 classes, so every seed sees the same hot head and
   cold tail. A run sends a fixed number of requests, drawn by systematic
   sampling of the Zipf weights (every class appears in proportion to its
   weight, to within one request); the seed draws the sampling offset,
   the order of the requests and a random NPN member for each. *)
let alpha = 1.1

(* Requests per second of run time, calibrated on a 2-core x86-64 box. *)
let requests_per_second = 17.5

let ranked =
  lazy
    (let a = Array.of_list (Stp_workloads.Npn4.synthesizable ()) in
     Prng.shuffle (Prng.create 1) a;
     a)

type request = { cls : Tt.t; member : Tt.t }

let stream ~seed ~count =
  let ranked = Lazy.force ranked in
  let k = Array.length ranked in
  let cdf = Array.make k 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun r _ ->
      total := !total +. (1.0 /. (float_of_int (r + 1) ** alpha));
      cdf.(r) <- !total)
    ranked;
  let rng = Prng.create ((seed * 104_729) + 17) in
  let u = Prng.float rng in
  let draws =
    Array.init count (fun j ->
        let x = (u +. float_of_int j) /. float_of_int count *. !total in
        let r = ref 0 in
        while !r < k - 1 && cdf.(!r) < x do incr r done;
        ranked.(!r))
  in
  Prng.shuffle rng draws;
  Array.map (fun cls -> { cls; member = Exact.member rng cls }) draws

(* {2 The service process} *)

type service = { pid : int; addr : Wire.addr; dir : string }

let control addr line =
  let fd = Wire.connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Wire.send_lines fd [ line ];
  match Wire.next_line (Wire.line_reader fd) with
  | Some l -> ( match Json.of_string l with Ok j -> Some j | Error _ -> None)
  | None -> None

(* Fork a cold service and wait for its first [ping] reply. *)
let start ~dir =
  let socket = Filename.concat dir "s.sock" in
  match Unix.fork () with
  | 0 ->
    (try
       Service.serve
         { Service.default_config with
           Service.shards;
           jobs = 1;
           timeout = timeout_s;
           store = Filename.concat dir "store";
           socket }
     with e ->
       Printf.eprintf "service crashed: %s\n%!" (Printexc.to_string e);
       Unix._exit 1);
    Unix._exit 0
  | pid ->
    let addr = Wire.Unix_path socket in
    (match control addr {|{"type":"ping"}|} with
     | Some j when Json.member "status" j = Some (Json.String "pong") -> ()
     | _ -> failwith "service did not answer ping");
    { pid; addr; dir }

let worker_pids stats =
  match Json.member "shards" stats with
  | Some (Json.List ss) ->
    List.filter_map (fun s -> match Json.member "pid" s with Some (Json.Int p) -> Some p | _ -> None) ss
  | _ -> []

let stop svc =
  (try Unix.kill svc.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] svc.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* {2 Closed-loop driving} *)

type sample = {
  latency : float;
  resp : Check.response;
  fails : string list;
}

type measured = {
  sent : int;
  samples : sample list;  (** in answer order *)
  lost : int;
  conns : (int * float) array;
      (** per connection: answers, and first send to last response *)
  stats : Json.t list;  (** the service's [stats] reply after each round *)
  rss_mb : float;  (** front end plus workers *)
  stray : string list;  (** responses nobody was waiting for *)
}

type slot = {
  conn : Wire.conn;
  mutable waiting : (int * request * float) option;  (** id, request, send time *)
}

let check_line ~reference ~id req line =
  Check.response ~id ~n:4 ~hex:(Tt.to_hex req.member)
    ~reference:(Reference.gates reference req.cls) line

let request_line id req =
  Json.to_string
    (Json.Obj [ ("id", Json.Int id); ("n", Json.Int 4); ("tt", Json.String (Tt.to_hex req.member)) ])

(* The loaded stream: a fixed list of requests sized to take about
   [seconds]. Connection [k] carries, in stream order, the requests whose
   class the service routes to shard [k] ([Service.shard_of]), so the two
   closed loops never queue behind each other inside a shard. *)
let drive ~spans ~seed ~seconds ~reference svc =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let count = max 8 (int_of_float (requests_per_second *. seconds)) in
  let reqs = stream ~seed ~count in
  let queues = Array.init shards (fun _ -> Queue.create ()) in
  Array.iteri (fun id r -> Queue.add id queues.(Service.shard_of ~shards r.cls)) reqs;
  let slots =
    Array.init shards (fun _ -> { conn = Wire.make (Wire.connect svc.addr); waiting = None })
  in
  let sent = ref 0 and samples = ref [] and stray = ref [] in
  let send k =
    let slot = slots.(k) in
    if not (Queue.is_empty queues.(k)) then begin
      let id = Queue.pop queues.(k) in
      incr sent;
      Wire.queue_line slot.conn (request_line id reqs.(id));
      slot.waiting <- Some (id, reqs.(id), Common.now ());
      ignore (Wire.flush_out slot.conn)
    end
  in
  let t_first = Common.now () in
  let t_last = Array.make shards t_first and answers = Array.make shards 0 in
  (* Past this, requests still unanswered count as lost. *)
  let give_up = t_first +. (3.0 *. seconds) +. 10.0 in
  Array.iteri (fun k _ -> send k) slots;
  let busy () = Array.exists (fun s -> s.waiting <> None) slots in
  while busy () && Common.now () < give_up do
    let fds = Array.to_list (Array.map (fun s -> Wire.fd s.conn) slots) in
    let ready, _, _ =
      try Unix.select fds [] [] 0.5 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun k slot ->
        if List.mem (Wire.fd slot.conn) ready then
          List.iter
            (fun line ->
              let now = Common.now () in
              match slot.waiting with
              | None -> stray := line :: !stray
              | Some (id, req, t0) ->
                Spans.add spans "service.request" id t0 now;
                t_last.(k) <- now;
                answers.(k) <- answers.(k) + 1;
                (* The next request leaves before this answer is checked. *)
                slot.waiting <- None;
                send k;
                let resp, fails = check_line ~reference ~id req line in
                samples := { latency = now -. t0; resp; fails } :: !samples)
            (Wire.read_lines slot.conn))
      slots
  done;
  let lost = Array.fold_left (fun n s -> if s.waiting <> None then n + 1 else n) 0 slots in
  Array.iter (fun s -> Wire.close s.conn) slots;
  let samples = List.rev !samples in
  let stats = Option.value ~default:Json.Null (control svc.addr {|{"type":"stats"}|}) in
  let rss_mb =
    List.fold_left (fun acc p -> acc +. Common.peak_rss_mb p) (Common.peak_rss_mb svc.pid)
      (worker_pids stats)
  in
  { sent = !sent;
    samples;
    lost;
    conns = Array.mapi (fun k n -> (n, t_last.(k) -. t_first)) answers;
    stats = [ stats ];
    rss_mb;
    stray = !stray }

(* Classes held by the shard store files once the service has exited. *)
let stored_classes svc =
  List.fold_left
    (fun acc k ->
      let path =
        Service.shard_store_path ~base:(Filename.concat svc.dir "store") ~shard:k ~shards
      in
      acc + (Stp_store.Store.stats (Stp_store.Store.load ~path)).Stp_store.Store.classes)
    0 (List.init shards Fun.id)

(* A run is [rounds] rounds, each on a fresh cold service. *)
let rounds = 3

let round ~spans ~seed ~seconds ~reference svc =
  let m = drive ~spans ~seed ~seconds ~reference svc in
  let clean_exit = stop svc in
  let stored = stored_classes svc in
  Common.remove_tree svc.dir;
  (m, clean_exit, stored)

let merge ms =
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
  { sent = sum (fun m -> m.sent); samples = List.concat_map (fun m -> m.samples) ms;
    lost = sum (fun m -> m.lost);
    conns =
      Array.init shards (fun k ->
          List.fold_left
            (fun (n, t) m -> (n + fst m.conns.(k), t +. snd m.conns.(k)))
            (0, 0.0) ms);
    stats = List.concat_map (fun m -> m.stats) ms;
    rss_mb = List.fold_left (fun acc m -> Float.max acc m.rss_mb) 0.0 ms;
    stray = List.concat_map (fun m -> m.stray) ms }

(* Requests answered per second: the sum over connections of answers
   over that connection's busy time (first send to last response). *)
let rate m = Array.fold_left (fun acc (n, t) -> acc +. Common.ratio (float_of_int n) t) 0.0 m.conns

(* Requests that failed a check, were lost, or drew a stray answer. *)
let failed m =
  List.length (List.filter (fun s -> s.fails <> []) m.samples) + m.lost + List.length m.stray

let failures m =
  List.concat_map (fun s -> s.fails) m.samples
  @ List.init m.lost (fun _ -> "request lost")
  @ List.map (fun l -> "unexpected response " ^ l) m.stray

let latencies ?source m =
  List.filter_map
    (fun s ->
      match source with
      | Some src when s.resp.Check.source <> src -> None
      | _ -> Some s.latency)
    m.samples

let share m pred =
  Common.fratio (List.length (List.filter (fun s -> pred s.resp) m.samples)) m.sent

