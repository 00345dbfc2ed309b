(** Sharded, multiplexing synthesis service.

    {!serve} forks [config.shards] worker processes, each a
    {!Stp_store.Daemon.serve} batch daemon on a private socketpair with
    its own store section file ({!shard_store_path}) and its own
    {!Stp_parallel.Pool} domains, running append-mode persistence with
    online compaction. The front-end process owns no domains at all (so
    it can keep forking replacement workers under OCaml 5) and runs a
    single [Unix.select] loop that:

    - accepts any number of concurrent clients on a Unix socket and/or
      a TCP address, each with its own read/write buffers
      ({!Wire.conn});
    - routes every pipelined JSON-lines request to the shard owning the
      target's canonical NPN class ({!shard_of}), so each class's cache
      entry lives in exactly one worker;
    - matches worker responses (in-order per worker) back to tickets
      and re-sequences them into {e per-client request order} even when
      a client's requests were scattered over shards;
    - applies per-client backpressure: a client with [config.window]
      unanswered requests (or an undrained response buffer) is removed
      from the read set until it catches up, so one firehose client
      cannot starve the rest — stalls are counted and reported;
    - restarts dead workers (with a 1 s backoff against crash loops)
      and re-dispatches their unanswered in-flight requests to the
      replacement, so a [kill -9]'d shard loses no accepted request;
    - answers [{"type":"ping"}] and [{"type":"stats"}] itself; stats
      includes per-shard routed/answered/queue-depth/restart counts,
      each worker's last reported CDCL ([sat]) and per-engine NPN
      cache ([caches], with [known_timeouts]) counters, client and
      backpressure-stall counts, and the full telemetry
      snapshot (the same block is exported as the ["service"]
      {!Stp_telemetry.Telemetry} probe).

    SIGTERM/SIGINT stop accepting, drain in-flight work (bounded by
    [max (2 * timeout) 5] seconds), then close the worker pipes —
    end-of-input makes each worker flush its store section and exit. *)

type config = {
  shards : int;   (** worker processes (>= 1) *)
  jobs : int;     (** pool domains per worker *)
  timeout : float;  (** default per-request deadline, seconds *)
  store : string;  (** base store path; [""] runs without persistence.
                       Shard [k] persists to
                       [shard_store_path ~base ~shard:k ~shards]. *)
  socket : string;  (** Unix socket path to listen on; [""] disables *)
  tcp : string;     (** TCP "host:port" / ":port" / "port" to listen
                        on; [""] disables. At least one of [socket] and
                        [tcp] must be set. *)
  no_npn_cache : bool;  (** disable the workers' NPN caches *)
  window : int;  (** per-client in-flight request cap (>= 1) *)
  compact_dead_bytes : int;
      (** per-worker online-compaction threshold, passed through to
          {!Stp_store.Daemon.Append} ([<= 0] never compacts) *)
}

val default_config : config
(** 2 shards, 1 job, 5 s timeout, no store, no listeners, window 64,
    compact at 1 MiB dead. *)

val version : string
(** The daemon protocol version the service speaks. *)

val shard_store_path : base:string -> shard:int -> shards:int -> string
(** ["<base>.shard<k>of<N>"] — the section file worker [k] owns. *)

val shard_of : shards:int -> Stp_tt.Tt.t -> int
(** The shard owning a target's canonical NPN class: every member of a
    class maps to the same shard (exact for [n <= 6]; beyond
    canonicalisation arity the raw truth table hashes, trading class
    affinity for O(1) routing). Uniform across shards via a splitmix64
    finalizer. *)

val serve : config -> unit
(** Run until SIGTERM/SIGINT. @raise Invalid_argument on a config with
    no listener, [shards < 1] or [window < 1]. *)
