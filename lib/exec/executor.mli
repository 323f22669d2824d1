(** Deterministic work scheduling for Monte-Carlo sampling.

    Every sampling loop in the library routes through an executor: a value
    of type [t] that maps an index-addressed task set to an array of
    results.  Two interchangeable backends are provided — a sequential
    reference backend and a pool of OCaml 5 domains — with the invariant
    that they produce *bit-identical* results for the same task function.

    The invariant holds because of the RNG discipline enforced at call
    sites: each work item derives its own generator from the item index
    ({!Nsigma_stats.Rng.derive}) instead of threading one mutable
    generator through the loop, so the value of item [i] is a pure
    function of [i] and no scheduling order can perturb it.  New sampling
    code must follow the same discipline.

    Both backends publish telemetry to {!Nsigma_obs.Metrics} when the
    registry is enabled — task/fetch counts, per-worker busy and idle
    time, pool wall time and capacity (from which run reports derive
    worker utilization).  Measurement happens on worker-local state and
    is published after the run, so it adds no contention and cannot
    perturb results; when metrics are disabled the overhead is one
    atomic load per run. *)

type t
(** An execution backend.  Immutable and reusable across calls. *)

val sequential : t
(** Runs every task in submission order on the calling domain.  The
    reference backend: all other backends must match its output. *)

val domain_pool : ?jobs:int -> unit -> t
(** A pool of [jobs] workers pulling indices from a shared work queue:
    the calling domain plus [jobs - 1] helper domains.  Helpers are
    started on the first run that needs them and then stay parked for
    the life of the process, shared by every pool value (at most
    [Domain.recommended_domain_count () - 1] ever start, counted by the
    [exec.pool.domains_started] metric).  One run uses them at a time:
    a call made while another pool run is in flight — from inside a
    task, or from another systhread — runs on its calling domain in
    index order, with the same results.  [jobs] is the number of
    workers: omitted, it is taken
    from the [NSIGMA_JOBS] environment variable, falling back to
    [Domain.recommended_domain_count ()]; [jobs <= 0] also means
    auto-detect; [jobs = 1] degrades to {!sequential}.  Requests above
    [Domain.recommended_domain_count ()] are clamped to it (with a
    once-per-process {!Nsigma_obs.Log.warn}, silenced by
    [NSIGMA_LOG=quiet]): OCaml 5's stop-the-world minor
    GC makes oversubscription a slowdown, never a speedup.  Results are
    unaffected — every backend and pool size is bit-identical. *)

val default : unit -> t
(** The backend selected by the environment: [NSIGMA_JOBS] unset or [1]
    gives {!sequential}; [NSIGMA_JOBS = n > 1] gives a pool of [n]
    workers (clamped to the core count, as with {!domain_pool});
    [NSIGMA_JOBS = 0] auto-detects the core count.  Read at
    call time, so a CLI [--jobs] flag can install itself by setting the
    variable before sampling starts. *)

val jobs : t -> int
(** Number of workers the backend will use ([1] for {!sequential}). *)

val map_array : t -> (int -> 'a) -> n:int -> 'a array
(** [map_array exec f ~n] is [[| f 0; f 1; ...; f (n-1) |]].  Tasks are
    claimed one index at a time, which load-balances well when each task
    is heavy (a transient simulation, a full Monte-Carlo study).  Any
    exception raised by [f] stops the remaining work and is re-raised on
    the calling domain with its backtrace — workers never deadlock on a
    failed task. *)

(** {1 Scratch-carrying maps (plan layer)}

    The per-sample fill of a precompiled sampling plan needs mutable
    scratch (an {!Nsigma_spice.Arc.skeleton}, preallocated RC buffers)
    that must not be shared between domains.  [init] builds that scratch:
    it is called once on the calling domain for {!sequential} and once
    per worker for a pool run (on that worker's domain), before the
    worker runs any task.  [f scratch i]
    must derive everything sample-dependent from [i] alone (the usual RNG
    discipline) and fully overwrite whatever scratch state it reads —
    then results stay bit-identical across backends and pool sizes even
    though scratch instances are reused across samples. *)

val map_scratch : t -> init:(unit -> 's) -> ('s -> int -> 'a) -> n:int -> 'a array
(** {!map_array} with per-worker scratch. *)

val map_float_range :
  t ->
  init:(unit -> 's) ->
  ('s -> int -> float) ->
  out:float array ->
  lo:int ->
  hi:int ->
  unit
(** Write [f scratch i] into [out.(i)] for [lo <= i < hi] — the batched
    form behind adaptive sampling: successive batches extend the same
    output buffer, and because [f] derives everything from the absolute
    index [i], a population stopped early is a bitwise prefix of the full
    run.  [init] runs once per worker per call (per batch).
    @raise Invalid_argument on a bad range or an [out] shorter than
    [hi]. *)

val iter_scratch : t -> init:(unit -> 's) -> ('s -> int -> unit) -> n:int -> unit
(** {!map_scratch} for tasks that write their results themselves
    (typically into caller-owned arrays indexed by the sample index,
    several outputs per sample) instead of returning one: runs
    [f scratch i] for every [i < n], workers claiming one index per
    queue fetch.
    @raise Invalid_argument if [n < 0]. *)
