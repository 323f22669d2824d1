module Variation = Nsigma_process.Variation
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Rng = Nsigma_stats.Rng
module Sampler = Nsigma_stats.Sampler
module Executor = Nsigma_exec.Executor
module Metrics = Nsigma_obs.Metrics
module Trace = Nsigma_obs.Trace
module Log = Nsigma_obs.Log

(* Registered at module init so run reports always carry the MC keys,
   zero-valued when no study ran. *)
let m_samples = Metrics.counter "mc.samples"
let m_non_convergent = Metrics.counter "mc.non_convergent"

(* Adaptive-stopping telemetry, shared with the path sampler (the
   registry is idempotent by name). *)
let m_sampling_batches = Metrics.counter "sampling.batches"
let m_sampling_saved = Metrics.counter "sampling.samples_saved"

(* Kernel simulations spent on collocation points by the PCM surrogate
   backend — the denominator of its "samples from few sims" claim. *)
let m_pcm_collocations = Metrics.counter "sampling.pcm.collocations"

type run = { delays : float array; n_failed : int }

(* [split] advances the caller's generator exactly once, so successive
   studies on the same [g] stay decorrelated; each work item then derives
   its own stream from its index, making sample [i] a pure function of
   (base state, i) — the invariant that lets any Executor backend return
   bit-identical populations. *)
let samples ?(exec = Executor.default ()) tech g ~n f =
  let base = Rng.split g in
  Executor.map_array exec
    (fun i -> f (Variation.draw tech (Rng.derive base ~index:i)))
    ~n

(* Compact an option array without going through an intermediate list. *)
let compact measured =
  let kept = ref 0 in
  Array.iter (function Some _ -> incr kept | None -> ()) measured;
  let out = Array.make !kept 0.0 in
  let j = ref 0 in
  Array.iter
    (function
      | Some d ->
        out.(!j) <- d;
        incr j
      | None -> ())
    measured;
  out

let delays_counted ?exec tech g ~n f =
  let measured =
    samples ?exec tech g ~n (fun sample ->
        (* Only [Failure] marks simulator non-convergence (a non-functional
           variation corner); anything else is a programming error and
           propagates out of the executor. *)
        match f sample with d -> Some d | exception Failure _ -> None)
  in
  let delays = compact measured in
  let n_failed = n - Array.length delays in
  Metrics.incr m_samples ~by:n;
  if n_failed > 0 then begin
    Metrics.incr m_non_convergent ~by:n_failed;
    Log.debug "monte-carlo study%s"
      (Log.kv
         [
           ("samples", string_of_int n); ("non_convergent", string_of_int n_failed);
         ])
  end;
  { delays; n_failed }

let delays ?exec tech g ~n f = (delays_counted ?exec tech g ~n f).delays

let study ?exec tech g ~n f =
  let r = delays_counted ?exec tech g ~n f in
  Array.sort Float.compare r.delays;
  (Moments.summary_of_array r.delays, r.delays)

let arc_results ?exec ?kernel tech g ~n ~arc_of ~input_slew ~load_cap =
  let results =
    samples ?exec tech g ~n (fun sample ->
        match
          Cell_sim.run ?kernel tech (arc_of sample) ~input_slew ~load_cap
        with
        | r -> Some r
        | exception Failure _ -> None)
  in
  (* Accounting policy (uniform across this module): the sample counter is
     always advanced — [incr] is a no-op while metrics are disabled — and
     only work done purely for metrics (the failure fold) is guarded. *)
  Metrics.incr m_samples ~by:n;
  if Metrics.enabled () then begin
    let failed =
      Array.fold_left
        (fun acc -> function None -> acc + 1 | Some _ -> acc)
        0 results
    in
    if failed > 0 then Metrics.incr m_non_convergent ~by:failed
  end;
  results

(* Compact a NaN-sentinel float array (plan-layer result buffers). *)
let compact_nan xs =
  let kept = ref 0 in
  Array.iter (fun x -> if not (Float.is_nan x) then incr kept) xs;
  if !kept = Array.length xs then Array.copy xs
  else begin
    let out = Array.make !kept 0.0 in
    let j = ref 0 in
    Array.iter
      (fun x ->
        if not (Float.is_nan x) then begin
          out.(!j) <- x;
          incr j
        end)
      xs;
    out
  end

(* Samples per SoA batch on the batched fast path.  Also the executor
   chunk, so one worker fills, evaluates and drains a whole batch
   without synchronisation. *)
let batch_chunk = 256

let arc_delays_planned ?(exec = Executor.default ()) ?kernel ?(batch = false)
    ?(approx = false) tech g ~n ~plan ~input_slew ~load_cap =
  let kernel =
    match kernel with Some k -> k | None -> Cell_sim.default_kernel ()
  in
  let base = Rng.split g in
  let out_slews = Array.make n Float.nan in
  let delays =
    if (batch || approx) && kernel = Cell_sim.Fast then begin
      (* SoA batch path: same draws, same fills, same per-sample FP
         sequence (with [approx] off) — only the loop order changes, so
         the population is bit-identical to the scalar branch below. *)
      let delays = Array.make n Float.nan in
      Executor.map_ranges exec ~chunk:batch_chunk
        ~init:(fun () -> (plan (), Cell_sim.Batch.create batch_chunk))
        (fun (sk, b) ~lo ~hi ->
          for i = lo to hi - 1 do
            let sample = Variation.draw tech (Rng.derive base ~index:i) in
            Arc.fill tech sk sample;
            Cell_sim.Batch.load b (i - lo) (Arc.skeleton_compiled sk)
              ~input_slew ~load_cap
          done;
          Cell_sim.Batch.eval ~approx tech b ~n:(hi - lo);
          for i = lo to hi - 1 do
            delays.(i) <- Cell_sim.Batch.delay b (i - lo);
            out_slews.(i) <- Cell_sim.Batch.output_slew b (i - lo)
          done)
        ~n;
      delays
    end
    else begin
      (* The task writes delay and slew straight into the output arrays
         and the kernel option is boxed once per study, so a sample
         allocates only its draw and the kernel's result record. *)
      let kernel = Some kernel in
      let delays = Array.make n Float.nan in
      Executor.map_ranges exec ~chunk:1 ~init:plan
        (fun sk ~lo ~hi ->
          for i = lo to hi - 1 do
            let sample = Variation.draw tech (Rng.derive base ~index:i) in
            Arc.fill tech sk sample;
            match
              Cell_sim.run_compiled ?kernel tech (Arc.skeleton_compiled sk)
                ~input_slew ~load_cap
            with
            | r ->
              delays.(i) <- r.Cell_sim.delay;
              out_slews.(i) <- r.Cell_sim.output_slew
            | exception Failure _ -> ()
          done)
        ~n;
      delays
    end
  in
  Metrics.incr m_samples ~by:n;
  if Metrics.enabled () then begin
    let failed =
      Array.fold_left
        (fun acc d -> if Float.is_nan d then acc + 1 else acc)
        0 delays
    in
    if failed > 0 then Metrics.incr m_non_convergent ~by:failed
  end;
  (delays, out_slews)

(* ----- variance-reduced / adaptive sampling ----- *)

let min_adaptive_batch = 256

let tail_probs =
  [ Quantile.probability_of_sigma (-3.0); Quantile.probability_of_sigma 3.0 ]

let quantiles_converged sorted ~rtol =
  Array.length sorted >= 2
  && List.for_all
       (fun p ->
         let q = Quantile.of_sorted sorted p in
         let lo, hi = Quantile.ci sorted p in
         (hi -. lo) /. 2.0 <= rtol *. Float.abs q)
       tail_probs

(* Worst relative CI half-width over the tail quantiles — the quantity
   {!quantiles_converged} compares against [rtol], reported on trace
   convergence events.  Kept separate from the stopping predicate so
   event emission can never change a stopping decision (the predicate
   compares un-divided terms; a division here could flip a borderline
   case). *)
let quantile_ci_rel sorted =
  if Array.length sorted < 2 then Float.infinity
  else
    List.fold_left
      (fun acc p ->
        let q = Quantile.of_sorted sorted p in
        let lo, hi = Quantile.ci sorted p in
        let denom = Float.abs q in
        if denom > 0.0 then Float.max acc ((hi -. lo) /. 2.0 /. denom)
        else Float.infinity)
      0.0 tail_probs

(* Trace event stream for the adaptive sampler: one [sampling.batch]
   instant per convergence check ([target] = population size tested,
   [ci_rel] = worst ±3σ relative CI half-width, [converged] = rtol
   verdict, [capped] = stopped by the sample budget), one
   [sampling.pcm.fit] / [sampling.pcm.fallback] instant per surrogate
   decision, and a [sampling.drawn] counter track.  Shared by name with
   the path-level sampler in [Path_mc]. *)
let tr_batch =
  Trace.instant_type ~cat:"sampling"
    ~args:[ "target"; "ci_rel"; "converged"; "capped" ]
    "sampling.batch"

let tr_pcm_fit =
  Trace.instant_type ~cat:"sampling" ~args:[ "points"; "dim" ]
    "sampling.pcm.fit"

let tr_pcm_fallback =
  Trace.instant_type ~cat:"sampling" ~args:[ "points" ] "sampling.pcm.fallback"

let tc_drawn = Trace.counter_type ~cat:"sampling" "sampling.drawn"

(* Emitted from population copies only — never feeds back into a
   stopping decision, so drawn populations are bitwise identical with
   tracing on or off.  Shared with [Path_mc]'s adaptive loop. *)
let trace_batch_event ~out ~target ~converged ~capped =
  if Trace.enabled () then begin
    let sorted = compact_nan (Array.sub out 0 target) in
    Array.sort Float.compare sorted;
    Trace.counter tc_drawn (float_of_int target);
    Trace.instant tr_batch ~a:(float_of_int target)
      ~b:(quantile_ci_rel sorted)
      ~c:(if converged then 1.0 else 0.0)
      ~d:(if capped then 1.0 else 0.0)
      ()
  end

type sampled = {
  s_delays : float array;
  s_out_slews : float array;
  s_requested : int;
  s_batches : int;
}

let arc_delays_sampled ?(exec = Executor.default ()) ?kernel ?sampling ?rtol
    ?(min_batch = min_adaptive_batch) ?(batch = false) ?(approx = false) tech g
    ~n ~plan ~input_slew ~load_cap =
  let kernel =
    match kernel with Some k -> k | None -> Cell_sim.default_kernel ()
  in
  let backend =
    match sampling with Some b -> b | None -> Sampler.default_backend ()
  in
  match (backend, rtol) with
  | Sampler.Mc, None ->
    (* The default configuration delegates to the legacy planned loop —
       trivially bit-identical to pre-sampler populations, and metric
       accounting stays in one place.  The batch flags only apply here:
       the adaptive and variance-reduced paths below stay scalar (their
       per-index deviate streams don't chunk naturally). *)
    let delays, slews =
      arc_delays_planned ~exec ~kernel ~batch ~approx tech g ~n ~plan
        ~input_slew ~load_cap
    in
    { s_delays = delays; s_out_slews = slews; s_requested = n; s_batches = 1 }
  | Sampler.Pcm, _ -> (
    (* Probabilistic collocation: simulate only at the O(dim²) Hermite
       collocation points, fit second-order surrogates for delay and
       output slew, then replay the full plain-MC deviate population
       through the surrogates.  [rtol] is ignored — surrogate samples
       cost a few dozen flops, so there is nothing to stop early for. *)
    let base = Rng.split g in
    let sk = plan () in
    let dim = Variation.global_deviate_dim + Arc.skeleton_local_dim sk in
    let n_pts = Sampler.Pcm.n_points ~dim in
    let zbuf = Array.make dim 0.0 in
    let cdel = Array.make n_pts Float.nan in
    let cslew = Array.make n_pts Float.nan in
    let collocate () =
      (* Sequential on the calling domain: the point count is tiny and
         this keeps the fit independent of the executor backend. *)
      try
        for p = 0 to n_pts - 1 do
          Sampler.Pcm.fill_point ~dim p zbuf;
          Arc.fill tech sk (Variation.of_deviates tech zbuf);
          let r =
            Cell_sim.run_compiled ~kernel tech (Arc.skeleton_compiled sk)
              ~input_slew ~load_cap
          in
          cdel.(p) <- r.Cell_sim.delay;
          cslew.(p) <- r.Cell_sim.output_slew
        done;
        true
      with Failure _ -> false
    in
    let positive a =
      Array.for_all (fun v -> Float.is_finite v && v > 0.0) a
    in
    match collocate () && positive cdel && positive cslew with
    | false ->
      (* A non-functional (or non-positive — the fit runs in log space)
         collocation corner poisons the whole fit; fall back to honest
         sampling rather than extrapolate. *)
      Log.warn "pcm: collocation failed, falling back to MC%s"
        (Log.kv [ ("points", string_of_int n_pts) ]);
      if Trace.enabled () then
        Trace.instant tr_pcm_fallback ~a:(float_of_int n_pts) ();
      let delays, slews =
        arc_delays_planned ~exec ~kernel ~batch ~approx tech g ~n ~plan
          ~input_slew ~load_cap
      in
      { s_delays = delays; s_out_slews = slews; s_requested = n; s_batches = 1 }
    | true ->
      (* Fit in log space: near-threshold delay grows exponentially in
         the vth corners, so a quadratic captures log-delay far better
         than delay itself — same collocation points, same second-order
         surrogate, but the exponential replay recovers most of the tail
         curvature a raw-space quadratic clips (its ±3σ quantile bias is
         ~3x larger on the high-sigma workloads). *)
      let sd = Sampler.Pcm.fit ~dim ~values:(Array.map Stdlib.log cdel) in
      let ss = Sampler.Pcm.fit ~dim ~values:(Array.map Stdlib.log cslew) in
      let sampler = Sampler.create Sampler.Pcm base ~dim ~n in
      let out_slews = Array.make n Float.nan in
      let delays =
        Executor.map_float_array exec
          ~init:(fun () -> Array.make dim 0.0)
          (fun z i ->
            Sampler.fill sampler ~index:i z;
            out_slews.(i) <- Stdlib.exp (Sampler.Pcm.eval ss z);
            Stdlib.exp (Sampler.Pcm.eval sd z))
          ~n
      in
      Metrics.incr m_samples ~by:n_pts;
      Metrics.incr m_pcm_collocations ~by:n_pts;
      if n > n_pts then Metrics.incr m_sampling_saved ~by:(n - n_pts);
      if Trace.enabled () then
        Trace.instant tr_pcm_fit ~a:(float_of_int n_pts) ~b:(float_of_int dim)
          ();
      { s_delays = delays; s_out_slews = out_slews; s_requested = n;
        s_batches = 1 })
  | _ ->
    let base = Rng.split g in
    let sampler =
      match backend with
      | Sampler.Mc -> None
      | _ ->
        (* One probe skeleton on the calling domain fixes the deviate
           dimension; workers build their own through [init]. *)
        let dim =
          Variation.global_deviate_dim + Arc.skeleton_local_dim (plan ())
        in
        Some (Sampler.create backend base ~dim ~n)
    in
    let out = Array.make n Float.nan in
    let out_slews = Array.make n Float.nan in
    let init () =
      let sk = plan () in
      let zbuf =
        match sampler with
        | None -> [||]
        | Some s -> Array.make (Sampler.dim s) 0.0
      in
      (sk, zbuf)
    in
    let task (sk, zbuf) i =
      let sample =
        match sampler with
        | None -> Variation.draw tech (Rng.derive base ~index:i)
        | Some s ->
          Sampler.fill s ~index:i zbuf;
          Variation.of_deviates tech zbuf
      in
      Arc.fill tech sk sample;
      match
        Cell_sim.run_compiled ~kernel tech (Arc.skeleton_compiled sk)
          ~input_slew ~load_cap
      with
      | r ->
        out_slews.(i) <- r.Cell_sim.output_slew;
        r.Cell_sim.delay
      | exception Failure _ -> Float.nan
    in
    let drawn, batches =
      match rtol with
      | None ->
        Executor.map_float_range exec ~init task ~out ~lo:0 ~hi:n;
        (n, 1)
      | Some rtol ->
        if rtol <= 0.0 then
          invalid_arg "Monte_carlo.arc_delays_sampled: rtol must be positive";
        let min_batch = max 2 min_batch in
        (* Doubling batches; samples are addressed by absolute index, so
           an early-stopped population is a bitwise prefix of the full
           one.  Convergence is never tested below [min_batch] samples. *)
        let rec loop drawn batches =
          let target =
            if drawn = 0 then min n min_batch else min n (2 * drawn)
          in
          Executor.map_float_range exec ~init task ~out ~lo:drawn ~hi:target;
          let batches = batches + 1 in
          if target >= n then begin
            trace_batch_event ~out ~target ~converged:false ~capped:true;
            (target, batches)
          end
          else begin
            let sorted = compact_nan (Array.sub out 0 target) in
            Array.sort Float.compare sorted;
            let converged =
              Array.length sorted >= min_batch
              && quantiles_converged sorted ~rtol
            in
            trace_batch_event ~out ~target ~converged ~capped:false;
            if converged then (target, batches) else loop target batches
          end
        in
        loop 0 0
    in
    let delays = if drawn = n then out else Array.sub out 0 drawn in
    let slews = if drawn = n then out_slews else Array.sub out_slews 0 drawn in
    Metrics.incr m_samples ~by:drawn;
    (match rtol with
    | Some _ ->
      Metrics.incr m_sampling_batches ~by:batches;
      if n > drawn then Metrics.incr m_sampling_saved ~by:(n - drawn)
    | None -> ());
    if Metrics.enabled () then begin
      let failed =
        Array.fold_left
          (fun acc d -> if Float.is_nan d then acc + 1 else acc)
          0 delays
      in
      if failed > 0 then Metrics.incr m_non_convergent ~by:failed
    end;
    { s_delays = delays; s_out_slews = slews; s_requested = n; s_batches = batches }
