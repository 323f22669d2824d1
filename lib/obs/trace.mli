(** Hierarchical trace collector: per-domain bounded buffers of
    span/instant/counter records on the monotonic clock, exported as
    Chrome trace-event JSON (open in {{:https://ui.perfetto.dev}
    Perfetto} or [chrome://tracing]) and as collapsed-stack flamegraph
    text ([<file>.folded], one [stack;frames self_ns] line per stack).

    Recording follows the metrics-registry discipline: each domain
    appends to a private buffer reached through domain-local storage —
    no lock, no shared mutable state — so tracing cannot perturb
    scheduling or sampled values, and populations are bitwise identical
    with tracing on or off.  When disabled, every recording call is a
    single atomic load.

    Records are fixed-size (packed kind + event-type id, a monotonic
    nanosecond timestamp, four float argument slots); argument {e
    names} live on the interned event type.  Buffers grow geometrically
    up to a per-domain cap (default 65536 records, [NSIGMA_TRACE_BUF]
    overrides); past the cap new records are dropped and counted —
    see {!stats} — never silently discarded.  Dropping the newest
    (rather than overwriting the oldest) keeps retained span openers
    consistent, so a truncated trace still loads.

    Each domain is one track ([tid]) in the exported trace for its
    whole lifetime; the executor's helper domains persist across pool
    runs, so each keeps one track.
    Event types are interned by name: intern once at module
    initialisation (takes a mutex), record from any domain. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {2 Event types} *)

type span_type
type instant_type
type counter_type

val span_type :
  ?cat:string -> ?args:string list -> ?gc:bool -> string -> span_type
(** Interned span type.  [args] (at most 4) names the float slots
    attached to the opening record.  [gc] makes {!with_span} sample
    [Gc.quick_stat] around the span and emit a [gc.probe] instant with
    the allocation/collection deltas when it closes. *)

val instant_type : ?cat:string -> ?args:string list -> string -> instant_type
val counter_type : ?cat:string -> string -> counter_type

(** {2 Recording}

    All recording calls are no-ops (one atomic load) when tracing is
    disabled. *)

val begin_span :
  span_type -> ?a:float -> ?b:float -> ?c:float -> ?d:float -> unit -> unit
(** Open a span on the calling domain's track.  [?a..?d] fill the
    type's declared argument slots in order.  Spans on one track must
    nest: close them in LIFO order with {!end_span}. *)

val end_span : span_type -> unit

val with_span :
  span_type ->
  ?a:float ->
  ?b:float ->
  ?c:float ->
  ?d:float ->
  (unit -> 'a) ->
  'a
(** [with_span st f] brackets [f] in [begin_span]/[end_span]
    (exception-safe); emits the GC probe if [st] was created with
    [~gc:true].  Exactly [f ()] when tracing is disabled. *)

val instant :
  instant_type -> ?a:float -> ?b:float -> ?c:float -> ?d:float -> unit -> unit
(** A point event — convergence verdicts, fallbacks, stuck kernels. *)

val counter : counter_type -> float -> unit
(** A sampled counter value, rendered as a counter track. *)

(** {2 Reading} *)

type kind = Begin | End | Instant | Counter

type event = {
  ev_tid : int;  (** track = domain registration index *)
  ev_kind : kind;
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : int;  (** nanoseconds since the trace epoch (module init) *)
  ev_args : (string * float) list;
}

type stats = {
  recorded : int;  (** records retained across all tracks *)
  dropped : int;  (** records dropped at the buffer cap *)
  tracks : int;  (** tracks holding at least one retained record *)
}

val events : unit -> event list
(** Merged view of every track, sorted by [(ts, tid, append order)] —
    deterministic given the same buffer contents.  Per-track order is
    always the append order.  Take it after worker pools have joined;
    reading while a domain records is safe but may miss in-flight
    events. *)

val stats : unit -> stats

val to_chrome_json : unit -> string
(** Chrome trace-event JSON (JSON-object form): [traceEvents] carries
    one [thread_name] metadata record per track plus one record per
    event ([ph] of [B]/[E]/[i]/[C], [ts] in microseconds);
    [otherData] carries the record/track/drop totals. *)

val to_folded : unit -> string
(** Collapsed-stack flamegraph text: one line per distinct span stack,
    [domain-N;outer;inner self_nanoseconds], ready for
    [flamegraph.pl] or speedscope.  Built from span records only. *)

val write : string -> unit
(** [write spec] dumps {!to_chrome_json} to [spec] and {!to_folded} to
    [spec ^ ".folded"] now. *)

val reset : unit -> unit
(** Empty every buffer and zero drop counts (tests and benchmarks). *)

val set_max_records : int -> unit
(** Override the per-domain record cap (clamped to at least 16); for
    wraparound tests.  Does not shrink already-grown buffers, but the
    cap applies to subsequent appends regardless. *)

(** {2 Installation} *)

val install : string -> unit
(** Enable tracing and register an exit handler writing the trace to
    [spec] (and [spec ^ ".folded"]).  Calling again replaces the
    destination, not the handler.  The CLI's [--trace FILE] routes
    here. *)

val install_from_env : unit -> unit
(** [install] from [NSIGMA_TRACE] when set and non-empty. *)

val installed_file : unit -> string option
(** Destination registered by {!install}, for run reports that link
    the trace artifact. *)
