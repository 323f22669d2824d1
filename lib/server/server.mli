(** Long-lived timing server: load and characterize once, answer many.

    A server value owns everything a one-shot CLI run pays for on every
    invocation — the characterized library, the fitted N-sigma model,
    per-circuit analysis contexts (nominal engine reports, compiled
    critical paths, full SSTA passes with their provider memo), and the
    {!Nsigma_liberty.Store}-backed on-disk regression store — and keeps
    it hot across queries.

    {b Protocol.}  One request per {!Protocol} line, dispatched on its
    ["op"] field; every response echoes the request's ["id"] and
    carries ["ok"] (errors report [ok:false] with an ["error"]
    message instead of killing the connection):

    - [ping] — liveness probe.
    - [analyze] — ["circuit"] (benchmark name, small variants
      included), ["engine"] ("ssta" default, or "scalar"), ["max"]
      ("clark" default, or "moment"), ["sigma"] (default 3),
      ["period"] (ps, default the +3σ arrival).  Reports mean/std and
      ±σ quantiles (seconds), plus WNS/TNS for ssta.
    - [path_mc] — ["circuit"], ["n"] (default 200, at most
      {!max_path_mc_n}), ["sigma"] (integer,
      default 3), ["kernel"] ("fast" default — interactive serving —
      or "rk4"/"auto").  Monte-Carlo on the nominal critical path with
      the plain Mc deviate stream, seed-per-index deterministic.
    - [retime] — ["circuit"], ["max"], ["edit"] (one
      {!Nsigma_netlist.Edit} JSON object, passed as a string field).
      Applies the edit to this session's retained {!Incremental}
      context (created on first use) and reports the post-edit
      distribution plus the incremental-engine work counters.
    - [stats] — server counters (requests, batched, errors, context
      cache hits/misses, live contexts and sessions).  Excluded from
      bit-identity replays: it reflects serving history.

    An ssta [analyze] from a session that has retimed the same
    (circuit, max operator) answers from that session's edited context
    — the interactive ECO loop — while other sessions keep seeing the
    pristine shared context.

    {b Determinism.}  Responses are a pure function of the request
    sequence of a session (never of batching, connection interleaving
    or cache state), so a warm server's responses are byte-identical
    to replaying the same lines through a fresh [t] — the test_server
    and e2e serve bit-identity gates compare exactly that.

    {b Telemetry.}  [server.{requests,batched,errors,cache.hit,
    cache.miss}] counters, [server.{inflight,sessions}] gauges and
    per-class [server.latency.{analyze,path_mc,retime,misc}]
    histograms (p50/p95/p99 in snapshots); each request runs under a
    [server.<op>] trace span when tracing is enabled. *)

val max_path_mc_n : int
(** Largest [path_mc] sample count served (50,000): one request must
    not hold the single-threaded daemon for minutes. *)

type config = {
  tech : Nsigma_process.Technology.t;
  library : Nsigma_liberty.Library.t;
  exec_provider : Nsigma_exec.Executor.t;
      (** pool for context builds (provider mini-MC, SSTA passes) *)
  exec_mc : Nsigma_exec.Executor.t;  (** pool for [path_mc] sampling *)
  max_contexts : int;  (** shared per-(circuit, config) context LRU bound *)
  store_dir : string option option;
      (** provider store: [None] = environment default,
          [Some None] = disabled, [Some (Some dir)] = pinned *)
  store_max_bytes : int option;
      (** prune the provider store to this bound after each context
          build ({!Nsigma_liberty.Store.prune}) *)
}

val default_config :
  Nsigma_process.Technology.t -> Nsigma_liberty.Library.t -> config
(** Sequential executors, 8 contexts, environment-default store, no
    store bound. *)

type t

val create : config -> t
(** Light: contexts build lazily on first query. *)

val handle : t -> session:int -> string -> string
(** Answer one request line with one response line (no framing).
    Never raises on bad input — malformed requests get an [ok:false]
    response.  [session] scopes retained retime contexts; one-shot
    embeddings use a constant. *)

val drop_session : t -> session:int -> unit
(** Free the session's retained retime contexts (connection close). *)

val run :
  t -> socket:string -> ?framing:Protocol.framing -> unit -> unit
(** Serve on a Unix-domain socket until SIGTERM/SIGINT, then drain:
    stop accepting, answer every fully-received request whose peer is
    still connected, close connections, unlink the socket and return.
    Before each request of a batch the daemon polls its connection, so
    a request whose client has hung up is skipped, never computed —
    shutdown waits at most for the request in flight when no live
    client is left.  Single-threaded
    [select] event loop; requests that arrive in the same readiness
    cycle are admitted as one batch, and read-only requests with equal
    {!Protocol.signature}s in a batch are coalesced into one
    computation (counted as [server.batched]).  Per-connection request
    order is always preserved.  A stale socket file at [socket] is
    replaced.  SIGPIPE is ignored; a client that disconnects mid-write
    just loses its connection. *)
