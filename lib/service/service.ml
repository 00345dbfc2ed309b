module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Store = Stp_store.Store
module Daemon = Stp_store.Daemon
module Json = Stp_telemetry.Json
module Hist = Stp_telemetry.Hist
module Telemetry = Stp_telemetry.Telemetry
module Profile = Stp_util.Profile

type config = {
  shards : int;
  jobs : int;
  timeout : float;
  store : string;
  socket : string;
  tcp : string;
  no_npn_cache : bool;
  window : int;
  compact_dead_bytes : int;
}

let default_config =
  { shards = 2;
    jobs = 1;
    timeout = 5.0;
    store = "";
    socket = "";
    tcp = "";
    no_npn_cache = false;
    window = 64;
    compact_dead_bytes = 1 lsl 20 }

let version = Daemon.version

let shard_store_path ~base ~shard ~shards =
  Printf.sprintf "%s.shard%dof%d" base shard shards

(* {2 Routing: canonical NPN class -> shard} *)

(* splitmix64 finalizer: [Tt.hash] and [canon4] values are small and
   regular; without mixing, [mod shards] would see only low bits. *)
let mix x =
  let open Int64 in
  let x = of_int x in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  let x = logxor x (shift_right_logical x 31) in
  to_int x land Stdlib.max_int

let shard_of ~shards tt =
  if shards <= 1 then 0
  else
    let h =
      let n = Tt.num_vars tt in
      if n = 4 then mix (Npn.canon4 (Tt.to_int tt))
      else if n <= Npn.max_arity then mix (Tt.hash (fst (Npn.canonical tt)))
      else mix (Tt.hash tt) (* beyond canonicalisation: no class affinity *)
    in
    h mod shards

let shard_of_line ~shards line =
  mix (Hashtbl.hash line) mod shards

(* {2 Service state} *)

type ticket = {
  t_uid : int;   (* client uid the response belongs to *)
  t_seq : int;   (* slot in that client's response order *)
  t_line : string;
  t_start_ns : int;
}

type shard = {
  sid : int;
  mutable pid : int;
  mutable conn : Wire.conn;
  mutable alive : bool;
  inflight : ticket Queue.t;  (* queued to the worker, awaiting answers *)
  waiting : ticket Queue.t;   (* not yet handed to the worker *)
  mutable routed : int;
  mutable answered : int;
  mutable restarts : int;
  mutable spawned_ns : int;
  mutable respawn_at_ns : int;
  mutable sat : Json.t;  (* last solver-counter block the worker reported *)
  mutable caches : Json.t;  (* ... and its per-engine NPN cache counters *)
}

(* Tickets carrying this uid are service-internal probes (per-shard
   stats refresh): their responses are absorbed into shard state, never
   forwarded. Real client uids start at 0. *)
let internal_uid = -1

type client = {
  uid : int;
  cconn : Wire.conn;
  mutable next_seq : int;   (* next request slot to assign *)
  mutable flush_seq : int;  (* next slot to emit *)
  slots : (int, string) Hashtbl.t;  (* completed out-of-order responses *)
  mutable half_closed : bool;       (* peer finished sending requests *)
  mutable was_stalled : bool;
}

type state = {
  config : config;
  stop : bool Atomic.t;
  mutable draining : bool;
  mutable drain_deadline_ns : int;
  listeners : Unix.file_descr list;
  shards : shard array;
  clients : (int, client) Hashtbl.t;
  mutable next_uid : int;
  mutable clients_total : int;
  mutable requests : int;
  mutable responses : int;
  mutable stalls : int;
  mutable zombies : int list;
  start_ns : int;
}

let now_ns () = Profile.now_ns ()

(* Write-side high watermarks: a shard pipe carries many clients'
   requests, a client conn only its own responses. *)
let shard_out_hw = 256 * 1024

let client_out_hw = 1 lsl 20

let request_hist () = Hist.get "service/request"

let log fmt = Printf.eprintf ("[service] " ^^ fmt ^^ "\n%!")

(* {2 Shard workers} *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Every parent-side fd a freshly forked worker must not keep: the
   listeners, every client, and every shard pipe (its own parent end
   included — the child keeps only [child_fd]). *)
let fds_to_close_in_child state =
  state.listeners
  @ Hashtbl.fold (fun _ cl acc -> Wire.fd cl.cconn :: acc) state.clients []
  @ (Array.to_list state.shards
    |> List.filter_map (fun s ->
           if s.alive then Some (Wire.fd s.conn) else None))

let worker_main (config : config) ~sid fd =
  (* The worker is a plain batch daemon on the socketpair: it reads
     whatever backlog the front-end routed to it, fans the batch over
     its own domain pool, and answers in request order — which is what
     lets the front-end match responses to in-flight tickets FIFO. *)
  Telemetry.unregister_probe "service";
  let store =
    if config.store = "" then None
    else
      Some
        (Store.load
           ~path:(shard_store_path ~base:config.store ~shard:sid
                    ~shards:config.shards))
  in
  (try
     Daemon.serve ~input:fd ~output:fd
       { Daemon.jobs = max 1 config.jobs;
         timeout = config.timeout;
         store;
         socket = "";
         no_npn_cache = config.no_npn_cache;
         heartbeat_s = 0.0;
         persist = Daemon.Append { compact_dead_bytes = config.compact_dead_bytes } }
   with e ->
     Printf.eprintf "[service] shard %d crashed: %s\n%!" sid
       (Printexc.to_string e));
  Unix._exit 0

let spawn_worker state sid =
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let close_in_child = fds_to_close_in_child state in
  match Unix.fork () with
  | 0 ->
    close_quiet parent_fd;
    List.iter close_quiet close_in_child;
    worker_main state.config ~sid child_fd
  | pid ->
    close_quiet child_fd;
    Unix.set_close_on_exec parent_fd;
    (pid, Wire.make parent_fd)

let shard_died state shard =
  if shard.alive then begin
    shard.alive <- false;
    Wire.close shard.conn;
    state.zombies <- shard.pid :: state.zombies;
    (* Everything handed to the dead worker and still unanswered goes
       back to the head of the queue, original order preserved: no
       accepted request is lost, it is re-dispatched to the replacement
       worker. *)
    let requeued = Queue.length shard.inflight in
    let nq = Queue.create () in
    Queue.transfer shard.inflight nq;
    Queue.transfer shard.waiting nq;
    Queue.transfer nq shard.waiting;
    (* Fast respawn, but back off when the worker dies within a second
       of spawning (e.g. an unwritable store path) so a crash loop
       cannot fork-bomb the box. *)
    let now = now_ns () in
    shard.respawn_at_ns <-
      (if now - shard.spawned_ns < 1_000_000_000 then now + 1_000_000_000
       else now);
    log "shard %d (pid %d) died; requeued %d in-flight request%s" shard.sid
      shard.pid requeued
      (if requeued = 1 then "" else "s")
  end

(* Move waiting tickets into the worker pipe while there is headroom. *)
let pump_shard state shard =
  if shard.alive then begin
    while
      (not (Queue.is_empty shard.waiting))
      && Wire.pending_out shard.conn < shard_out_hw
    do
      let t = Queue.pop shard.waiting in
      Wire.queue_line shard.conn t.t_line;
      Queue.add t shard.inflight
    done;
    if Wire.pending_out shard.conn > 0 && not (Wire.flush_out shard.conn)
    then
      (* A write failure (EPIPE before we ever read the EOF) is the same
         event as reading the EOF: the worker is gone. Requeue its work
         and schedule the respawn now — the select loop no longer
         watches a dead shard's fd, so nothing else would notice. *)
      shard_died state shard
  end

let respawn_shard state shard =
  let pid, conn = spawn_worker state shard.sid in
  shard.pid <- pid;
  shard.conn <- conn;
  shard.alive <- true;
  shard.restarts <- shard.restarts + 1;
  shard.spawned_ns <- now_ns ();
  log "shard %d respawned as pid %d (%d queued)" shard.sid pid
    (Queue.length shard.waiting);
  pump_shard state shard

(* {2 Per-client response sequencing} *)

let client_window_full state cl =
  cl.next_seq - cl.flush_seq >= state.config.window
  || Wire.pending_out cl.cconn > client_out_hw

(* Emit every response that is next in the client's request order. *)
let drain_client cl =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt cl.slots cl.flush_seq with
    | Some resp ->
      Hashtbl.remove cl.slots cl.flush_seq;
      cl.flush_seq <- cl.flush_seq + 1;
      Wire.queue_line cl.cconn resp
    | None -> continue := false
  done

let complete state cl ~seq resp =
  state.responses <- state.responses + 1;
  Hashtbl.replace cl.slots seq resp;
  drain_client cl

let deliver state (t : ticket) resp =
  Hist.observe_ns (request_hist ()) (now_ns () - t.t_start_ns);
  match Hashtbl.find_opt state.clients t.t_uid with
  | Some cl -> complete state cl ~seq:t.t_seq resp
  | None -> state.responses <- state.responses + 1 (* client gone; drop *)

(* Absorb a worker's answer to a service-internal stats probe: keep its
   solver and cache counter blocks for the next stats response. *)
let absorb_internal shard resp =
  match Json.of_string resp with
  | Ok json ->
    Option.iter (fun sat -> shard.sat <- sat) (Json.member "sat" json);
    Option.iter (fun c -> shard.caches <- c) (Json.member "caches" json)
  | Error _ -> ()

(* Ask every live worker for fresh solver counters. The probes ride the
   ordinary FIFO pipe (workers answer in order), so a stats response
   reports the previous sweep's counters — one request stale, never
   blocking the control plane on a busy worker. *)
let refresh_shard_stats state =
  Array.iter
    (fun s ->
      if s.alive then begin
        Queue.add
          { t_uid = internal_uid; t_seq = 0; t_line = {|{"type":"stats"}|};
            t_start_ns = now_ns () }
          s.waiting;
        pump_shard state s
      end)
    state.shards

(* {2 Control plane} *)

let uptime_s state = float_of_int (now_ns () - state.start_ns) *. 1e-9

let id_field json =
  match Json.member "id" json with Some v -> [ ("id", v) ] | None -> []

let shard_json s =
  Json.Obj
    [ ("shard", Json.Int s.sid);
      ("pid", Json.Int s.pid);
      ("alive", Json.Bool s.alive);
      ("routed", Json.Int s.routed);
      ("answered", Json.Int s.answered);
      ("inflight", Json.Int (Queue.length s.inflight));
      ("queued", Json.Int (Queue.length s.waiting));
      ("restarts", Json.Int s.restarts);
      ("sat", s.sat);
      ("caches", s.caches) ]

let stalled_now state =
  Hashtbl.fold
    (fun _ cl n -> if client_window_full state cl then n + 1 else n)
    state.clients 0

(* The probe body shared by the ["service"] telemetry probe and the
   [{"type":"stats"}] response: per-shard request counts and queue
   depths, client counts, and backpressure stalls. *)
let probe_json state =
  Json.Obj
    [ ("shards",
       Json.List (Array.to_list (Array.map shard_json state.shards)));
      ("clients",
       Json.Obj
         [ ("connected", Json.Int (Hashtbl.length state.clients));
           ("total", Json.Int state.clients_total);
           ("stalled", Json.Int (stalled_now state)) ]);
      ("backpressure", Json.Obj [ ("stalls", Json.Int state.stalls) ]);
      ("requests", Json.Int state.requests);
      ("responses", Json.Int state.responses) ]

let pong_response state json =
  Json.to_string
    (Json.Obj
       (id_field json
       @ [ ("status", Json.String "pong");
           ("version", Json.String version);
           ("uptime_s", Json.Float (uptime_s state));
           ("shards", Json.Int state.config.shards);
           ("store",
            if state.config.store = "" then Json.Null
            else Json.String state.config.store) ]))

let stats_response state json =
  let core =
    match probe_json state with Json.Obj fields -> fields | _ -> []
  in
  Json.to_string
    (Json.Obj
       (id_field json
       @ [ ("status", Json.String "ok");
           ("version", Json.String version);
           ("uptime_s", Json.Float (uptime_s state)) ]
       @ core
       @ [ ("store",
            if state.config.store = "" then Json.Null
            else Json.String state.config.store);
           ("telemetry", Telemetry.snapshot_json ()) ]))

let error_response msg =
  Json.to_string
    (Json.Obj
       [ ("status", Json.String "error"); ("error", Json.String msg) ])

(* {2 Request routing} *)

let route state cl line =
  if String.trim line <> "" then begin
    let seq = cl.next_seq in
    cl.next_seq <- cl.next_seq + 1;
    state.requests <- state.requests + 1;
    let t_start_ns = now_ns () in
    let to_shard sid =
      let shard = state.shards.(sid) in
      Queue.add
        { t_uid = cl.uid; t_seq = seq; t_line = line; t_start_ns }
        shard.waiting;
      shard.routed <- shard.routed + 1;
      pump_shard state shard
    in
    match Json.of_string line with
    | Error msg ->
      (* Same wording as the worker's, answered without a round trip. *)
      complete state cl ~seq (error_response ("bad JSON: " ^ msg))
    | Ok json -> (
      match Json.member "type" json with
      | Some (Json.String "ping") -> complete state cl ~seq (pong_response state json)
      | Some (Json.String "stats") ->
        refresh_shard_stats state;
        complete state cl ~seq (stats_response state json)
      | Some _ ->
        (* Unknown control types get the worker's error message. *)
        to_shard (shard_of_line ~shards:state.config.shards line)
      | None -> (
        match (Json.member "n" json, Json.member "tt" json) with
        | Some (Json.Int n), Some (Json.String hex) -> (
          match Tt.of_hex ~n hex with
          | tt -> to_shard (shard_of ~shards:state.config.shards tt)
          | exception _ ->
            (* Undecodable target: any worker will produce the right
               error response. *)
            to_shard (shard_of_line ~shards:state.config.shards line))
        | _ -> to_shard (shard_of_line ~shards:state.config.shards line)))
  end

(* {2 The select loop} *)

let accept_clients state lsock =
  let continue = ref true in
  while !continue do
    match Unix.accept lsock with
    | fd, _ ->
      Unix.set_close_on_exec fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let uid = state.next_uid in
      state.next_uid <- state.next_uid + 1;
      state.clients_total <- state.clients_total + 1;
      Hashtbl.replace state.clients uid
        { uid;
          cconn = Wire.make fd;
          next_seq = 0;
          flush_seq = 0;
          slots = Hashtbl.create 16;
          half_closed = false;
          was_stalled = false }
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _) ->
      log "accept: %s; backing off" (Unix.error_message e);
      continue := false
  done

let drop_client state cl =
  Wire.close cl.cconn;
  Hashtbl.remove state.clients cl.uid

(* A client is finished once it stopped sending, every accepted request
   was answered and flushed, and the kernel took the last byte. *)
let client_finished cl =
  cl.half_closed
  && cl.flush_seq = cl.next_seq
  && Wire.pending_out cl.cconn = 0

let shards_idle state =
  Array.for_all
    (fun s -> Queue.is_empty s.inflight && Queue.is_empty s.waiting)
    state.shards

let clients_flushed state =
  Hashtbl.fold
    (fun _ cl ok ->
      ok && cl.flush_seq = cl.next_seq && Wire.pending_out cl.cconn = 0)
    state.clients true

let reap_zombies state =
  state.zombies <-
    List.filter
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false)
      state.zombies

let drain_grace_s config = Float.max (2.0 *. config.timeout) 5.0

let serve_loop state =
  let stop_requested () = Atomic.get state.stop in
  let finished = ref false in
  while not !finished do
    (* Backpressure accounting and the read set: a client whose
       in-flight window is full (or whose response bytes the peer is
       not draining) is simply left out of select's read set — the
       kernel then throttles the peer via TCP/unix-socket buffers. *)
    let client_reads = ref [] in
    Hashtbl.iter
      (fun _ cl ->
        let stalled = client_window_full state cl in
        if stalled && not cl.was_stalled then
          state.stalls <- state.stalls + 1;
        cl.was_stalled <- stalled;
        if (not stalled) && not (Wire.eof cl.cconn) then
          client_reads := Wire.fd cl.cconn :: !client_reads)
      state.clients;
    let shard_reads =
      Array.to_list state.shards
      |> List.filter_map (fun s ->
             if s.alive then Some (Wire.fd s.conn) else None)
    in
    let listener_reads = if state.draining then [] else state.listeners in
    let writes =
      let shard_w =
        Array.to_list state.shards
        |> List.filter_map (fun s ->
               if s.alive && Wire.pending_out s.conn > 0 then
                 Some (Wire.fd s.conn)
               else None)
      in
      Hashtbl.fold
        (fun _ cl acc ->
          if Wire.pending_out cl.cconn > 0 && not (Wire.eof cl.cconn) then
            Wire.fd cl.cconn :: acc
          else acc)
        state.clients shard_w
    in
    let reads = listener_reads @ shard_reads @ !client_reads in
    let readable, writable, _ =
      match Unix.select reads writes [] 0.25 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* 1. New connections. *)
    List.iter
      (fun l -> if List.mem l readable then accept_clients state l)
      state.listeners;
    (* 2. Worker responses: FIFO against the in-flight queue — the
       worker answers its input in order. Buffered responses of a dead
       worker are delivered before the EOF is acted on, so nothing is
       answered twice after a re-dispatch. *)
    Array.iter
      (fun s ->
        if s.alive && List.mem (Wire.fd s.conn) readable then begin
          let lines = Wire.read_lines s.conn in
          List.iter
            (fun line ->
              if String.trim line <> "" then
                match Queue.pop s.inflight with
                | t when t.t_uid = internal_uid -> absorb_internal s line
                | t ->
                  s.answered <- s.answered + 1;
                  deliver state t line
                | exception Queue.Empty ->
                  log "shard %d sent an unsolicited response" s.sid)
            lines;
          if Wire.eof s.conn then shard_died state s else pump_shard state s
        end)
      state.shards;
    (* 3. Client requests. *)
    let dead_clients = ref [] in
    Hashtbl.iter
      (fun _ cl ->
        if List.mem (Wire.fd cl.cconn) readable then begin
          List.iter (route state cl) (Wire.read_lines cl.cconn);
          if Wire.eof cl.cconn then cl.half_closed <- true
        end)
      state.clients;
    (* 4. Flush pending output. *)
    Array.iter
      (fun s ->
        if s.alive && List.mem (Wire.fd s.conn) writable then
          pump_shard state s)
      state.shards;
    Hashtbl.iter
      (fun _ cl ->
        if
          List.mem (Wire.fd cl.cconn) writable
          || Wire.pending_out cl.cconn > 0
        then
          if not (Wire.flush_out cl.cconn) then
            dead_clients := cl :: !dead_clients)
      state.clients;
    (* 5. Retire finished or vanished clients. *)
    Hashtbl.iter
      (fun _ cl -> if client_finished cl then dead_clients := cl :: !dead_clients)
      state.clients;
    List.iter (drop_client state) !dead_clients;
    (* 6. Maintenance: zombies, respawns, shutdown. *)
    reap_zombies state;
    let now = now_ns () in
    Array.iter
      (fun s ->
        if
          (not s.alive)
          && now >= s.respawn_at_ns
          && not (state.draining && Queue.is_empty s.waiting)
        then respawn_shard state s)
      state.shards;
    if stop_requested () && not state.draining then begin
      state.draining <- true;
      state.drain_deadline_ns <-
        now + int_of_float (drain_grace_s state.config *. 1e9);
      List.iter close_quiet state.listeners;
      let inflight =
        Array.fold_left
          (fun n s -> n + Queue.length s.inflight + Queue.length s.waiting)
          0 state.shards
      in
      log "shutdown requested; draining %d in-flight request%s" inflight
        (if inflight = 1 then "" else "s")
    end;
    if state.draining then
      if
        (shards_idle state && clients_flushed state)
        || now >= state.drain_deadline_ns
      then finished := true
  done

let shutdown state =
  Hashtbl.iter (fun _ cl -> Wire.close cl.cconn) state.clients;
  Hashtbl.reset state.clients;
  (* EOF on the pipe ends each worker's serve loop; SIGTERM doubles as
     a finish-the-batch request if one is mid-flight. Workers flush
     their stores on the way out. *)
  Array.iter
    (fun s ->
      if s.alive then begin
        Wire.close s.conn;
        (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ())
      end)
    state.shards;
  let deadline = now_ns () + 30_000_000_000 in
  Array.iter
    (fun s ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] s.pid with
        | 0, _ ->
          if now_ns () > deadline then begin
            log "shard %d (pid %d) ignored shutdown; killing" s.sid s.pid;
            (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] s.pid)
          end
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      wait ())
    state.shards;
  reap_zombies state;
  List.iter close_quiet state.listeners;
  (match state.config.socket with
   | "" -> ()
   | path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()))

let serve (config : config) =
  if config.shards < 1 then invalid_arg "Service.serve: shards must be >= 1";
  if config.window < 1 then invalid_arg "Service.serve: window must be >= 1";
  if config.socket = "" && config.tcp = "" then
    invalid_arg "Service.serve: need a unix socket path or a tcp address";
  (* The front-end must answer {"type":"stats"} with populated
     histograms whether or not it was launched with --metrics. *)
  Telemetry.set_metrics_enabled true;
  (* Force the lazily built canonicalisation table before forking:
     workers inherit the table copy-on-write, and the router needs it
     hot anyway. *)
  ignore (Npn.canon4 0);
  let listeners =
    (match config.socket with
     | "" -> []
     | path -> [ Wire.listen (Wire.Unix_path path) ])
    @
    match config.tcp with
    | "" -> []
    | spec ->
      let host, port = Wire.parse_tcp spec in
      [ Wire.listen (Wire.Tcp (host, port)) ]
  in
  List.iter Unix.set_nonblock listeners;
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let old_term = Sys.signal Sys.sigterm handler in
  let old_int = Sys.signal Sys.sigint handler in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let state =
    { config;
      stop;
      draining = false;
      drain_deadline_ns = 0;
      listeners;
      shards = [||];
      clients = Hashtbl.create 64;
      next_uid = 0;
      clients_total = 0;
      requests = 0;
      responses = 0;
      stalls = 0;
      zombies = [];
      start_ns = now_ns () }
  in
  let shards =
    Array.init config.shards (fun sid ->
        { sid;
          pid = 0;
          conn = Wire.make (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0);
          alive = false;
          inflight = Queue.create ();
          waiting = Queue.create ();
          routed = 0;
          answered = 0;
          restarts = 0;
          spawned_ns = 0;
          respawn_at_ns = 0;
          sat = Json.Null;
          caches = Json.Null })
  in
  (* Placeholder conns above never enter the loop: spawn real workers
     first, closing the placeholders. *)
  let state = { state with shards } in
  Array.iter
    (fun s ->
      Wire.close s.conn;
      let pid, conn = spawn_worker state s.sid in
      s.pid <- pid;
      s.conn <- conn;
      s.alive <- true;
      s.spawned_ns <- now_ns ())
    shards;
  Telemetry.register_probe "service" (fun () -> probe_json state);
  log "serving %s%s: %d shard%s, %d job%s/shard, window %d"
    (if config.socket = "" then "" else config.socket)
    (if config.tcp = "" then ""
     else (if config.socket = "" then "tcp " else " + tcp ") ^ config.tcp)
    config.shards
    (if config.shards = 1 then "" else "s")
    config.jobs
    (if config.jobs = 1 then "" else "s")
    config.window;
  Fun.protect
    ~finally:(fun () ->
      shutdown state;
      Telemetry.unregister_probe "service";
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigpipe old_pipe)
    (fun () -> serve_loop state)
