module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Engine = Stp_synth.Engine
module Npn_cache = Stp_synth.Npn_cache
module Report = Stp_harness.Report
module Profile = Stp_util.Profile
module Deadline = Stp_util.Deadline
module Trace = Stp_telemetry.Trace
module Hist = Stp_telemetry.Hist
module Telemetry = Stp_telemetry.Telemetry

type persist =
  | Rewrite
  | Append of { compact_dead_bytes : int }

type config = {
  jobs : int;
  timeout : float;
  store : Store.t option;
  socket : string;
  no_npn_cache : bool;
  heartbeat_s : float;
  persist : persist;
}

let default_config =
  { jobs = 1;
    timeout = 5.0;
    store = None;
    socket = "";
    no_npn_cache = false;
    heartbeat_s = 0.0;
    persist = Rewrite }

let version = "1"

(* Module load happens once, at process start — close enough to serve
   as the uptime origin for ping/stats/heartbeat reporting. *)
let start_ns = Profile.now_ns ()

let uptime_s () = float_of_int (Profile.now_ns () - start_ns) *. 1e-9

(* Daemon-local counters: [Profile] counters are gated on [--profile],
   but heartbeats and stats must count unconditionally. *)
let requests_total = Atomic.make 0

let batches_total = Atomic.make 0

(* {2 Request handling} *)

let find_cache caches name =
  List.find_opt (fun (n, _) -> String.lowercase_ascii n = String.lowercase_ascii name) caches
  |> Option.map snd

let chain_json c = Report.String (Format.asprintf "%a" Chain.pp_compact c)

let respond ?id fields =
  let id_field = match id with Some v -> [ ("id", v) ] | None -> [] in
  Report.to_string (Report.Obj (id_field @ fields))

let error_response ?id msg =
  Profile.incr Profile.Requests_failed;
  respond ?id [ ("status", Report.String "error"); ("error", Report.String msg) ]

(* One Factor.memo per domain (its hash tables are not thread-safe);
   shared across every batch a domain serves. *)
let memo_key = Domain.DLS.new_key (fun () -> Stp_synth.Factor.create_memo ())

let store_json config =
  match config.store with
  | None -> Report.Null
  | Some store -> Store.stats_json store

let pong config =
  [ ("status", Report.String "pong");
    ("version", Report.String version);
    ("uptime_s", Report.Float (uptime_s ()));
    ("store",
     match config.store with
     | None -> Report.Null
     | Some store -> Report.String (Store.path store)) ]

(* Process-wide CDCL solver counters (all engines, all domains) — the
   block the sharded service surfaces per shard. Unconditional, like
   [requests_total]: [Profile]'s sat counters need [--profile]. *)
let sat_json () =
  Report.Obj
    (List.map
       (fun (k, v) -> (k, Report.Int v))
       (Stp_sat.Solver.Totals.snapshot ()))

let () = Telemetry.register_probe "sat" (fun () -> sat_json ())

(* Per-engine NPN cache counters: [known_timeouts] counts the requests
   answered from a class's failure record without a solver call. *)
let caches_json caches =
  Report.Obj
    (List.map
       (fun (name, cache) ->
         let s = Npn_cache.stats cache in
         ( name,
           Report.Obj
             [ ("classes", Report.Int (Npn_cache.classes cache));
               ("hits", Report.Int s.Npn_cache.hits);
               ("misses", Report.Int s.Npn_cache.misses);
               ("known_timeouts", Report.Int s.Npn_cache.known_timeouts) ] ))
       caches)

let stats_response config caches =
  [ ("status", Report.String "ok");
    ("version", Report.String version);
    ("uptime_s", Report.Float (uptime_s ()));
    ("requests", Report.Int (Atomic.get requests_total));
    ("batches", Report.Int (Atomic.get batches_total));
    ("store", store_json config);
    ("sat", sat_json ());
    ("caches", caches_json caches);
    ("telemetry", Telemetry.snapshot_json ()) ]

(* Histogram per answer provenance: [synthd/source/cache] is a replay,
   [synthd/source/solver] a real solve, [synthd/source/degraded] a
   timeout answered with a verified upper bound, [synthd/source/timeout]
   an empty-handed timeout. *)
let observe_source source elapsed =
  Hist.observe_s (Hist.get ("synthd/source/" ^ source)) elapsed

let handle config caches line =
  Atomic.incr requests_total;
  Profile.incr Profile.Requests_received;
  match Report.of_string line with
  | Error msg -> error_response ("bad JSON: " ^ msg)
  | Ok json -> (
    let id = Report.member "id" json in
    let field name = Report.member name json in
    match field "type" with
    | Some (Report.String "ping") -> respond ?id (pong config)
    | Some (Report.String "stats") -> respond ?id (stats_response config caches)
    | Some (Report.String other) ->
      error_response ?id (Printf.sprintf "unknown request type %S" other)
    | Some _ -> error_response ?id "\"type\" must be a string"
    | None -> (
    match (field "n", field "tt") with
    | Some (Report.Int n), Some (Report.String hex) -> (
      let engine_name =
        match field "engine" with Some (Report.String e) -> e | _ -> "STP"
      in
      (* An infinite budget would pin this worker on a hard class and
         stall every request queued behind it; [<= 0] (and absent)
         falls back to the configured default. *)
      let timeout =
        match Option.bind (field "timeout") Report.to_float_opt with
        | Some t when not (Float.is_finite t) -> Error "\"timeout\" must be finite"
        | Some t when t > 0.0 -> Ok t
        | _ -> Ok config.timeout
      in
      match (timeout, Engine.find engine_name) with
      | Error msg, _ -> error_response ?id msg
      | _, None -> error_response ?id (Printf.sprintf "unknown engine %S" engine_name)
      | Ok timeout, Some engine -> (
        match Tt.of_hex ~n hex with
        | exception Invalid_argument msg -> error_response ?id msg
        | target ->
          let cache = find_cache caches (Engine.name engine) in
          (* [observed] outermost: the per-engine histogram and span
             cover cache replays too, like the collection runner's. *)
          let (module E : Engine.S) =
            Engine.observed
              (match cache with
               | None -> engine
               | Some c -> Npn_cache.wrap c engine)
          in
          (* Attribution is advisory: another domain may store the class
             between this check and the lookup, which only flips the
             reported [source], never the answer. *)
          let was_cached =
            match cache with Some c -> Npn_cache.cached c target | None -> false
          in
          let span_args =
            ("engine", Engine.name engine)
            :: ("n", string_of_int n)
            :: (match id with
                | Some v -> [ ("id", Report.to_string v) ]
                | None -> [])
          in
          Trace.span "synthd.request" ~args:span_args @@ fun () ->
          let t0 = Stp_util.Unix_time.now () in
          let result =
            E.synthesize
              (Engine.spec ~memo:(Domain.DLS.get memo_key) target)
              ~deadline:(Deadline.after timeout)
          in
          let elapsed = Stp_util.Unix_time.now () -. t0 in
          let elapsed_field = ("elapsed_s", Report.Float elapsed) in
          (match result with
           | Engine.Solved chains ->
             Profile.incr Profile.Requests_solved;
             if was_cached then Profile.incr Profile.Requests_cached;
             observe_source (if was_cached then "cache" else "solver") elapsed;
             respond ?id
               [ ("status", Report.String "solved");
                 ("gates", Report.Int (Chain.size (List.hd chains)));
                 ("chains", Report.List (List.map chain_json chains));
                 ("source", Report.String (if was_cached then "cache" else "solver"));
                 elapsed_field ]
           | Engine.Infeasible ->
             observe_source "solver" elapsed;
             respond ?id
               [ ("status", Report.String "infeasible");
                 ("source", Report.String "solver");
                 elapsed_field ]
           | Engine.Timeout -> (
             Profile.incr Profile.Requests_timed_out;
             (* Graceful degradation: a verified, non-optimal chain beats
                an empty answer for netlist callers. *)
             match Stp_synth.Baselines.upper_bound target with
             | chain ->
               Profile.incr Profile.Requests_degraded;
               observe_source "degraded" elapsed;
               respond ?id
                 [ ("status", Report.String "upper_bound");
                   ("gates", Report.Int (Chain.size chain));
                   ("chains", Report.List [ chain_json chain ]);
                   ("source", Report.String "upper_bound");
                   elapsed_field ]
             | exception Invalid_argument _ ->
               observe_source "timeout" elapsed;
               respond ?id
                 [ ("status", Report.String "timeout"); elapsed_field ]))))
    | _ ->
      error_response ?id "request needs an integer \"n\" and a string \"tt\""))

let control ?id ty =
  let open Report in
  to_string
    (Obj
       ((match id with Some i -> [ ("id", Int i) ] | None -> [])
       @ [ ("type", String ty) ]))

let request ?id ?timeout ?engine ~n tt =
  let open Report in
  let opt name f v = Option.map (fun v -> (name, f v)) v |> Option.to_list in
  to_string
    (Obj
       (opt "id" (fun i -> Int i) id
       @ [ ("n", Int n); ("tt", String tt) ]
       @ opt "timeout" (fun t -> Float t) timeout
       @ opt "engine" (fun e -> String e) engine))

(* {2 Line transport} *)

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable eof : bool;
}

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096; eof = false }

(* Complete lines currently buffered; the partial tail stays buffered. *)
let extract_lines r =
  let s = Buffer.contents r.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear r.buf;
    Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
    String.split_on_char '\n' (String.sub s 0 i)

let readable ?(timeout = 0.0) fd =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let readable_now fd = readable fd

let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.eof <- true
  | n -> Buffer.add_subbytes r.buf r.chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Block until at least one complete line (or EOF/stop), then also
   drain every further line that has already arrived: pipelined clients
   get their whole backlog fanned out as one pool batch. While idle
   with a heartbeat configured, wake every [period] seconds to run
   [beat] instead of blocking in [read]. *)
let rec read_batch ~stop ?idle r =
  match extract_lines r with
  | _ :: _ as lines ->
    while (not r.eof) && readable_now r.fd && not (Atomic.get stop) do
      fill r
    done;
    lines @ extract_lines r
  | [] ->
    if r.eof || Atomic.get stop then []
    else begin
      (match idle with
       | Some (period, beat) ->
         if readable ~timeout:period r.fd then fill r else beat ()
       | None -> fill r);
      read_batch ~stop ?idle r
    end

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    match Unix.write fd b !written (len - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* {2 The daemon} *)

let sync_store config caches =
  match config.store with
  | None -> ()
  | Some store ->
    List.iter
      (fun (section, cache) -> ignore (Store.absorb store ~section cache))
      caches;
    (match config.persist with
     | Rewrite -> Store.flush store
     | Append { compact_dead_bytes } ->
       Store.append store;
       if
         compact_dead_bytes > 0
         && (Store.stats store).Store.dead_bytes >= compact_dead_bytes
       then ignore (Store.compact store))

let heartbeat config =
  let store =
    match config.store with
    | None -> ""
    | Some store ->
      let st = Store.stats store in
      Printf.sprintf " store_classes=%d flushes=%d" st.Store.classes
        st.Store.flushes
  in
  Printf.eprintf "[synthd] heartbeat uptime_s=%.1f requests=%d batches=%d%s\n%!"
    (uptime_s ()) (Atomic.get requests_total) (Atomic.get batches_total) store

(* [None] disables idle wake-ups entirely; the read loop then blocks in
   [read] as before. *)
let idle_of config =
  if config.heartbeat_s > 0.0 then
    Some (config.heartbeat_s, fun () -> heartbeat config)
  else None

let serve ?(input = Unix.stdin) ?(output = Unix.stdout) config =
  (* The daemon always collects latency histograms: a live process must
     answer {"type":"stats"} with populated quantiles whether or not it
     was launched with --metrics. *)
  Telemetry.set_metrics_enabled true;
  let caches =
    if config.no_npn_cache then []
    else
      List.map (fun e -> (Engine.name e, Npn_cache.create ())) Engine.all
  in
  (match config.store with
   | None -> ()
   | Some store ->
     Store.attach_telemetry store;
     List.iter
       (fun (section, cache) -> ignore (Store.seed store ~section cache))
       caches);
  (* Force lazily built global tables (NPN4 canonicalisation) before any
     fan-out: racing domains on an unforced [lazy] is an error. *)
  ignore (Stp_tt.Npn.canon4 0);
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let old_term = Sys.signal Sys.sigterm handler in
  let old_int = Sys.signal Sys.sigint handler in
  let pool = Stp_parallel.Pool.create ~domains:(max 1 config.jobs) () in
  Fun.protect
    ~finally:(fun () ->
      Stp_parallel.Pool.shutdown pool;
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      (* The shutdown flush: a SIGTERM mid-batch still persists every
         class solved by completed batches (and this final absorb). *)
      sync_store config caches)
    (fun () ->
      let idle = idle_of config in
      let serve_stream in_fd out_fd =
        let r = reader in_fd in
        let rec loop () =
          match read_batch ~stop ?idle r with
          | [] -> () (* end of input or shutdown requested *)
          | lines -> (
            match List.filter (fun l -> String.trim l <> "") lines with
            | [] -> loop ()
            | batch ->
              Atomic.incr batches_total;
              let t0 = Profile.now_ns () in
              let responses =
                Trace.span "synthd.batch"
                  ~args:[ ("requests", string_of_int (List.length batch)) ]
                  (fun () ->
                    Stp_parallel.Pool.exec pool (handle config caches) batch)
              in
              Hist.observe_ns (Hist.get "synthd/batch")
                (Profile.now_ns () - t0);
              write_all out_fd (String.concat "\n" responses ^ "\n");
              (* Absorb + flush per batch: crash durability never trails
                 the answers already sent. *)
              sync_store config caches;
              loop ())
        in
        loop ()
      in
      match config.socket with
      | "" -> serve_stream input output
      | path ->
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 8;
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            try Unix.unlink path with Unix.Unix_error _ -> ())
          (fun () ->
            let rec accept_loop () =
              if not (Atomic.get stop) then begin
                let ready =
                  match idle with
                  | None -> true
                  | Some (period, beat) ->
                    let ready = readable ~timeout:period sock in
                    if not ready then beat ();
                    ready
                in
                (if ready then
                   match Unix.accept sock with
                   | client, _ ->
                     (* A forked worker must not inherit client fds. *)
                     Unix.set_close_on_exec client;
                     Fun.protect
                       ~finally:(fun () ->
                         try Unix.close client with Unix.Unix_error _ -> ())
                       (fun () -> serve_stream client client)
                   | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                   | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
                     (* The peer gave up between connect and accept —
                        not our problem; keep serving. *)
                     ()
                   | exception
                       Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _)
                     ->
                     (* Out of descriptors: shedding this connection is
                        recoverable, killing the serve loop is not. Back
                        off briefly so close() elsewhere can catch up. *)
                     Printf.eprintf "[synthd] accept: %s; backing off\n%!"
                       (Unix.error_message e);
                     Unix.sleepf 0.05);
                accept_loop ()
              end
            in
            accept_loop ()))

(* Bounded connect retry: a freshly forked daemon binds its socket a
   beat after the parent can first try to connect, so clients back off
   on the two "not there yet" errors instead of racing startup. Every
   attempt gets a fresh fd — after EINTR the interrupted connect can
   keep completing in-kernel, and reusing the socket then raises
   EALREADY/EISCONN spuriously. The budget is ~3 s worst case, then
   the last error propagates. *)
let rec connect_retry addr attempts delay =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect sock addr with
  | () -> sock
  | exception e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (match e with
     | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
       when attempts > 1 ->
       Unix.sleepf delay;
       connect_retry addr (attempts - 1) (Float.min 0.25 (delay *. 2.))
     | Unix.Unix_error (Unix.EINTR, _, _) when attempts > 1 ->
       connect_retry addr (attempts - 1) delay
     | e -> raise e)

let client ?(attempts = 25) ~socket lines =
  let sock = connect_retry (Unix.ADDR_UNIX socket) (max 1 attempts) 0.01 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      write_all sock (String.concat "\n" lines ^ "\n");
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents buf |> String.split_on_char '\n'
      |> List.filter (fun l -> String.trim l <> ""))
