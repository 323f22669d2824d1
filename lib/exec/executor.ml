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
   lifetime, with one [exec.task] span per fetched range.  [wait_us]
   on a task is the gap since the worker finished its previous range —
   queue-wait plus claim latency — so idle gaps are visible per task
   without comparing tracks by eye. *)
let st_pool = Trace.span_type ~cat:"exec" ~args:[ "jobs"; "n"; "chunk" ] "exec.pool"
let st_worker = Trace.span_type ~cat:"exec" "exec.worker"
let st_task = Trace.span_type ~cat:"exec" ~args:[ "start"; "n"; "wait_us" ] "exec.task"

type t = Sequential | Pool of { jobs : int }

let env_jobs () =
  match Sys.getenv_opt "NSIGMA_JOBS" with
  | None -> None
  | Some s -> ( try Some (int_of_string (String.trim s)) with _ -> None)

let auto_jobs () = max 1 (Domain.recommended_domain_count ())

(* With OCaml 5's stop-the-world minor GC, more domains than cores is a
   slowdown, never a speedup (BENCH_exec.json).  Requests above the
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
   [0, n).  Workers claim [chunk] indices per fetch and write results
   into distinct slots of a shared array, which is race-free because no
   two workers ever hold the same index.  The first exception is stored
   and drains the queue so every worker exits; it is re-raised with its
   original backtrace after the join.

   Instrumentation (per-worker busy/idle time, task and fetch counts)
   is measured inside each worker on locals and published to the
   metrics registry only after the join, on the calling domain: the
   hot claim/execute loop shares no metric state between workers, and
   when metrics and tracing are disabled the only cost is two atomic
   loads at run start.  Trace spans append to buffers private to each
   worker domain.  Neither touches task values or the RNG discipline,
   so the bit-identical invariant is unaffected. *)
let pool_exec ~jobs ~chunk ~n ~init ~run_range =
  let cursor = Atomic.make 0 in
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
      let start = Atomic.fetch_and_add cursor chunk in
      if start >= n || Atomic.get failure <> None then running := false
      else begin
        incr fetches;
        let stop = min n (start + chunk) in
        let t0 = if timed then Metrics.now () else 0.0 in
        if tracing then
          Trace.begin_span st_task ~a:(float_of_int start)
            ~b:(float_of_int (stop - start))
            ~c:(1e6 *. Float.max 0.0 (t0 -. !last_done))
            ();
        (try
           run_range scratch start stop;
           tasks := !tasks + (stop - start)
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
    Trace.begin_span st_pool ~a:(float_of_int jobs) ~b:(float_of_int n)
      ~c:(float_of_int chunk) ();
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

let pool_run ~jobs ~chunk ~n f =
  let results = Array.make n None in
  pool_exec ~jobs ~chunk ~n
    ~init:(fun () -> ())
    ~run_range:(fun () start stop ->
      for i = start to stop - 1 do
        results.(i) <- Some (f i)
      done);
  Array.map (function Some v -> v | None -> assert false) results

let run t ~chunk f ~n =
  if n < 0 then invalid_arg "Executor: n must be non-negative";
  match t with
  | Sequential ->
    Metrics.incr m_seq_tasks ~by:n;
    Array.init n f
  | Pool { jobs } -> pool_run ~jobs ~chunk ~n f

let map_array t f ~n = run t ~chunk:1 f ~n

let map_scratch t ~init f ~n =
  if n < 0 then invalid_arg "Executor: n must be non-negative";
  match t with
  | Sequential ->
    Metrics.incr m_seq_tasks ~by:n;
    let scratch = init () in
    Array.init n (f scratch)
  | Pool { jobs } ->
    let results = Array.make n None in
    pool_exec ~jobs ~chunk:1 ~n ~init
      ~run_range:(fun scratch start stop ->
        for i = start to stop - 1 do
          results.(i) <- Some (f scratch i)
        done);
    Array.map (function Some v -> v | None -> assert false) results

let map_float_range t ~init f ~out ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Executor.map_float_range: bad range";
  if Array.length out < hi then
    invalid_arg "Executor.map_float_range: output buffer shorter than hi";
  let n = hi - lo in
  match t with
  | Sequential ->
    Metrics.incr m_seq_tasks ~by:n;
    let scratch = init () in
    for i = lo to hi - 1 do
      out.(i) <- f scratch i
    done
  | Pool { jobs } ->
    (* The cursor runs over [0, hi−lo); tasks shift by [lo] so batched
       callers (adaptive sampling) keep the index = sample identity. *)
    pool_exec ~jobs ~chunk:1 ~n ~init
      ~run_range:(fun scratch start stop ->
        for k = start to stop - 1 do
          let i = lo + k in
          out.(i) <- f scratch i
        done)

let map_float_into t ~init f ~out ~n =
  if n < 0 then invalid_arg "Executor: n must be non-negative";
  if Array.length out < n then
    invalid_arg "Executor.map_float_into: output buffer shorter than n";
  map_float_range t ~init f ~out ~lo:0 ~hi:n

let map_float_array t ~init f ~n =
  let out = Array.make n Float.nan in
  map_float_into t ~init f ~out ~n;
  out

let iter_scratch t ~init f ~n =
  if n < 0 then invalid_arg "Executor: n must be non-negative";
  match t with
  | Sequential ->
    Metrics.incr m_seq_tasks ~by:n;
    let scratch = init () in
    for i = 0 to n - 1 do
      f scratch i
    done
  | Pool { jobs } ->
    pool_exec ~jobs ~chunk:1 ~n ~init ~run_range:(fun scratch start stop ->
        for i = start to stop - 1 do
          f scratch i
        done)

let map_chunked t ?chunk f ~n =
  let chunk =
    match chunk with
    | Some c when c > 0 -> c
    | Some _ -> invalid_arg "Executor.map_chunked: chunk must be positive"
    | None -> max 1 (n / (8 * jobs t))
  in
  run t ~chunk f ~n
