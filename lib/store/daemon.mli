(** Batch synthesis daemon: truth tables in, optimum 2-LUT chains out.

    The daemon serves a JSON-lines protocol over stdin/stdout or a Unix
    domain socket. One request per line:

    {v
    {"id": 1, "n": 4, "tt": "8ff8", "timeout": 2.0, "engine": "STP"}
    v}

    - [id] (any JSON value, optional) is echoed back verbatim so
      clients can match pipelined responses to requests.
    - [n] and [tt] give the target as an arity and a hex truth table
      (the format of {!Stp_tt.Tt.of_hex}).
    - [timeout] (seconds, optional) overrides the daemon's default
      per-request deadline. A value [<= 0] falls back to the default;
      a non-finite one (e.g. [1e999], which parses to infinity) is
      answered with ["error"], since an unbounded solve would pin the
      worker. The NPN caches remember the budget under which each
      class timed out ({!Stp_synth.Npn_cache}), so a repeat of a
      timed-out class at the same or a smaller [timeout] is answered
      ["upper_bound"] at once; a larger [timeout] solves again.
    - [engine] (optional, default ["STP"]) picks any engine of
      {!Stp_synth.Engine.all} by name, case-insensitively.

    One response per request, in request order:

    {v
    {"id": 1, "status": "solved", "gates": 3, "chains": ["x5=6(x1,x2); ..."],
     "source": "solver", "elapsed_s": 0.004}
    v}

    [status] is ["solved"] (optimum chains), ["upper_bound"] (the
    deadline expired; [chains] holds one verified non-optimal chain
    from {!Stp_synth.Baselines.upper_bound} — graceful degradation),
    ["infeasible"] (no chain within the gate budget; constants),
    ["timeout"] (deadline expired and no upper bound exists), or
    ["error"] (malformed request; see the [error] field). [source]
    attributes an answer to ["cache"], ["solver"] or ["upper_bound"].

    Requests are batched: every complete line already buffered is fanned
    out over a {!Stp_parallel.Pool} together, so pipelined clients get
    core-parallel synthesis while responses stay in request order. Each
    engine consults its own NPN-class cache, seeded from the optional
    persistent {!Store} and absorbed back after every batch; the store
    is flushed (atomic rename) after each batch and on shutdown, so a
    SIGTERM mid-batch never loses previously flushed classes.

    Two control request types bypass synthesis (satisfying [n]/[tt] is
    not required):

    - [{"type": "ping"}] answers with [status = "pong"], the protocol
      {!version}, [uptime_s] and the store path (or [null]) — a cheap
      liveness probe.
    - [{"type": "stats"}] answers with [status = "ok"], uptime, total
      request/batch counts, the store persistence stats, the
      process-wide CDCL counters ([sat]), one [caches] object per
      engine ([classes], [hits], [misses], [known_timeouts] — the
      requests answered from a failure record without a solver call),
      and the full
      {!Stp_telemetry.Telemetry.snapshot_json} — including the
      [synthd/source/*] latency histograms (one per answer provenance:
      [solver], [cache], [degraded], [timeout]) and [synthd/batch],
      each with populated p50/p90/p99.

    SIGTERM and SIGINT request an orderly shutdown: the current batch
    finishes, caches are absorbed, the store is flushed, and {!serve}
    returns. The [Requests_*] counters of {!Stp_util.Profile} count
    received/solved/cached/timed-out/degraded/failed requests;
    {!serve} additionally enables telemetry metrics unconditionally and
    records every request under a {!Stp_telemetry.Trace} span when
    tracing is on. With [heartbeat_s > 0] the daemon prints a one-line
    status to stderr whenever it has been idle that long. *)

type persist =
  | Rewrite
      (** full atomic {!Store.flush} after every batch — simple and
          crash-proof, O(store) per batch *)
  | Append of { compact_dead_bytes : int }
      (** {!Store.append} the batch's new classes (O(new) per batch),
          and {!Store.compact} whenever the file carries at least
          [compact_dead_bytes] dead bytes ([<= 0] never compacts) —
          the mode the sharded service runs its long-lived workers
          in *)

type config = {
  jobs : int;          (** domains for batch fan-out (>= 1) *)
  timeout : float;     (** default per-request deadline, seconds *)
  store : Store.t option;  (** persistent cache store, if any *)
  socket : string;     (** Unix socket path; [""] serves stdin/stdout *)
  no_npn_cache : bool; (** disable the NPN cache (every request solves) *)
  heartbeat_s : float; (** idle seconds between stderr heartbeats;
                           [<= 0] disables *)
  persist : persist;   (** how each batch's classes reach the disk *)
}

val default_config : config
(** [jobs = 1], [timeout = 5.0], no store, stdio, cache enabled, no
    heartbeat, [Rewrite] persistence. *)

val version : string
(** Protocol version echoed by ping/stats responses. *)

val uptime_s : unit -> float
(** Seconds since the daemon process loaded this module. *)

val handle : config -> (string * Stp_synth.Npn_cache.t) list -> string -> string
(** [handle config caches line] processes one request line to one
    response line (no trailing newline) — the pure core of {!serve},
    exposed for tests. [caches] maps engine names to their caches; pass
    [[]] to solve uncached. *)

val serve :
  ?input:Unix.file_descr -> ?output:Unix.file_descr -> config -> unit
(** Run the daemon until end-of-input or SIGTERM/SIGINT. With
    [config.socket = ""], serves [input]/[output] (default stdin and
    stdout — tests pass pipes); otherwise binds the socket path,
    accepts connections sequentially, and serves each until the peer
    closes. Installs SIGTERM/SIGINT handlers for the duration and
    restores the previous ones on return. *)

val request :
  ?id:int -> ?timeout:float -> ?engine:string -> n:int -> string -> string
(** [request ~n tt_hex] formats one request line (no newline). *)

val control : ?id:int -> string -> string
(** [control ty] formats a control request line, e.g.
    [control "ping"] or [control "stats"]. *)

val client : ?attempts:int -> socket:string -> string list -> string list
(** [client ~socket lines] connects to a serving daemon, sends the
    request lines, shuts down the writing side, and returns the
    response lines — the CI smoke test's transport. The connect is
    retried with exponential backoff (up to [attempts] tries, default
    25, ~3 s worst case) on [ECONNREFUSED]/[ENOENT], so callers forked
    moments after the daemon need not poll for the socket to appear.
    @raise Unix.Unix_error when the daemon never starts listening. *)
