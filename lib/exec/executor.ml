module Log = Nsigma_obs.Log
module Metrics = Nsigma_obs.Metrics
module Trace = Nsigma_obs.Trace

(* Registered up front so run reports always carry the executor keys,
   zero-valued when no pool ever ran. *)
let m_pool_runs = Metrics.counter "exec.pool.runs"
let m_pool_tasks = Metrics.counter "exec.pool.tasks"
let m_pool_fetches = Metrics.counter "exec.pool.fetches"
let m_seq_tasks = Metrics.counter "exec.seq.tasks"
let t_worker_busy = Metrics.timer "exec.worker.busy"
let t_worker_idle = Metrics.timer "exec.worker.idle"
let t_pool_wall = Metrics.timer "exec.pool.wall"
let t_pool_capacity = Metrics.timer "exec.pool.capacity"
let g_tasks_max = Metrics.gauge "exec.worker.tasks.max"

(* Trace tracks: one [exec.pool] span on the calling domain per pool
   run; on each worker domain an [exec.worker] span covering its whole
   lifetime, with one [exec.task] span per fetched index.  [wait_us] on
   a task is the gap since the worker finished its previous index —
   queue-wait plus claim latency — so idle gaps are visible per task
   without comparing tracks by eye. *)
let st_pool = Trace.span_type ~cat:"exec" ~args:[ "jobs"; "n" ] "exec.pool"
let st_worker = Trace.span_type ~cat:"exec" "exec.worker"
let st_task = Trace.span_type ~cat:"exec" ~args:[ "index"; "wait_us" ] "exec.task"

type t = Sequential | Pool of { jobs : int }

let env_jobs () =
  match Sys.getenv_opt "NSIGMA_JOBS" with
  | None -> None
  | Some s -> ( try Some (int_of_string (String.trim s)) with _ -> None)

let auto_jobs () = max 1 (Domain.recommended_domain_count ())

(* With OCaml 5's stop-the-world minor GC, more domains than cores is a
   slowdown, never a speedup (the e2e charlib workload's
   exec.pool_speedup measures the pool).  Requests above the
   recommended count are clamped; the warning fires once per process so
   batch sweeps don't flood stderr (and NSIGMA_LOG=quiet drops it). *)
let oversubscription_warned = Atomic.make false

let clamp_jobs jobs =
  let cores = auto_jobs () in
  if jobs > cores then begin
    if not (Atomic.exchange oversubscription_warned true) then
      Log.warn
        "%d worker domains requested but only %d available core(s); clamping \
         to %d (oversubscribing OCaml 5 domains degrades throughput)"
        jobs cores cores;
    cores
  end
  else jobs

let of_jobs jobs =
  if jobs <= 1 then Sequential
  else
    let jobs = clamp_jobs jobs in
    if jobs <= 1 then Sequential else Pool { jobs }

let sequential = Sequential

let domain_pool ?jobs () =
  let jobs =
    match jobs with
    | Some j when j > 0 -> j
    | Some _ -> auto_jobs ()
    | None -> (
      match env_jobs () with
      | Some j when j > 0 -> j
      | Some _ (* 0 or negative: auto *) -> auto_jobs ()
      | None -> auto_jobs ())
  in
  of_jobs jobs

let default () =
  match env_jobs () with
  | None -> Sequential
  | Some j when j = 0 -> of_jobs (auto_jobs ())
  | Some j -> of_jobs j

let jobs = function Sequential -> 1 | Pool { jobs } -> jobs

(* The pool is a work-stealing-free shared queue: an atomic cursor over
   [lo, hi).  Workers claim one index per fetch — every task here is a
   whole transient simulation or more, heavy enough that claiming costs
   nothing by comparison — and write results into distinct slots of
   caller-owned arrays, which is race-free because no two workers ever
   hold the same index.  The first exception is stored and drains the
   queue so every worker exits; it is re-raised with its original
   backtrace after the join.

   Instrumentation (per-worker busy/idle time, task and fetch counts)
   is measured inside each worker on locals and published to the
   metrics registry only after the join, on the calling domain: the
   hot claim/execute loop shares no metric state between workers, and
   when metrics and tracing are disabled the only cost is two atomic
   loads at run start.  Trace spans append to buffers private to each
   worker domain.  Neither touches task values or the RNG discipline,
   so the bit-identical invariant is unaffected. *)
let pool_exec ~jobs ~init f ~lo ~hi =
  let n = hi - lo in
  let cursor = Atomic.make lo in
  let failure = Atomic.make None in
  let measuring = Metrics.enabled () in
  let tracing = Trace.enabled () in
  let timed = measuring || tracing in
  let t_run0 = if measuring then Metrics.now () else 0.0 in
  let worker () =
    let t_start = if timed then Metrics.now () else 0.0 in
    if tracing then Trace.begin_span st_worker ();
    (* Per-worker scratch: allocated once on the worker domain, never
       shared, so plan fills can mutate it without synchronisation. *)
    let scratch = init () in
    let busy = ref 0.0 and tasks = ref 0 and fetches = ref 0 in
    let last_done = ref t_start in
    let running = ref true in
    while !running do
      let i = Atomic.fetch_and_add cursor 1 in
      if i >= hi || Atomic.get failure <> None then running := false
      else begin
        incr fetches;
        let t0 = if timed then Metrics.now () else 0.0 in
        if tracing then
          Trace.begin_span st_task ~a:(float_of_int i)
            ~b:(1e6 *. Float.max 0.0 (t0 -. !last_done))
            ();
        (try
           f scratch i;
           incr tasks
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt)));
           running := false);
        if timed then begin
          let t1 = Metrics.now () in
          busy := !busy +. (t1 -. t0);
          last_done := t1
        end;
        if tracing then Trace.end_span st_task
      end
    done;
    if tracing then Trace.end_span st_worker;
    let wall = if timed then Metrics.now () -. t_start else 0.0 in
    (!busy, wall, !tasks, !fetches)
  in
  if tracing then
    Trace.begin_span st_pool ~a:(float_of_int jobs) ~b:(float_of_int n) ();
  let workers = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
  let stats = List.map Domain.join workers in
  if measuring then begin
    let wall_run = Metrics.now () -. t_run0 in
    Metrics.incr m_pool_runs;
    Metrics.add_time t_pool_wall wall_run;
    Metrics.add_time t_pool_capacity
      (wall_run *. float_of_int (List.length stats));
    List.iter
      (fun (busy, wall, tasks, fetches) ->
        Metrics.add_time t_worker_busy busy;
        Metrics.add_time t_worker_idle (Float.max 0.0 (wall -. busy));
        Metrics.incr m_pool_tasks ~by:tasks;
        Metrics.incr m_pool_fetches ~by:fetches;
        Metrics.max_gauge g_tasks_max (float_of_int tasks))
      stats
  end;
  if tracing then Trace.end_span st_pool;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* The one scheduling primitive: run [f scratch i] for [lo <= i < hi],
   in index order on one scratch or across the pool.  Tasks see their
   absolute index, so batched callers keep index = sample identity. *)
let iter_range t ~init f ~lo ~hi =
  match t with
  | Sequential ->
    Metrics.incr m_seq_tasks ~by:(hi - lo);
    let scratch = init () in
    for i = lo to hi - 1 do
      f scratch i
    done
  | Pool { jobs } -> pool_exec ~jobs ~init f ~lo ~hi

let check_n n = if n < 0 then invalid_arg "Executor: n must be non-negative"

let iter_scratch t ~init f ~n =
  check_n n;
  iter_range t ~init f ~lo:0 ~hi:n

let map_scratch t ~init f ~n =
  check_n n;
  match t with
  | Sequential ->
    Metrics.incr m_seq_tasks ~by:n;
    Array.init n (f (init ()))
  | Pool _ ->
    let results = Array.make n None in
    iter_range t ~init
      (fun scratch i -> results.(i) <- Some (f scratch i))
      ~lo:0 ~hi:n;
    Array.map (function Some v -> v | None -> assert false) results

let map_array t f ~n = map_scratch t ~init:ignore (fun () i -> f i) ~n

let map_float_range t ~init f ~out ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Executor.map_float_range: bad range";
  if Array.length out < hi then
    invalid_arg "Executor.map_float_range: output buffer shorter than hi";
  iter_range t ~init (fun scratch i -> out.(i) <- f scratch i) ~lo ~hi
