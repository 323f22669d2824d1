(** Monte-Carlo harness over process variation.

    Mirrors the paper's methodology: N independent global+local samples,
    a user-supplied measurement per sample, and moment/quantile reduction
    of the resulting delay population.

    All entry points take an optional {!Nsigma_exec.Executor.t} and
    produce bit-identical populations on every backend: the caller's
    generator is advanced once, and sample [i] draws from a child stream
    derived from the item index ([Rng.derive]), never from a generator
    shared across the loop. *)

type run = {
  delays : float array;  (** measurements that converged, in sample order *)
  n_failed : int;  (** samples dropped because the simulator raised [Failure] *)
}

val samples :
  ?exec:Nsigma_exec.Executor.t ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  (Nsigma_process.Variation.t -> 'a) ->
  'a array
(** Draw [n] variation samples and measure each. *)

val delays_counted :
  ?exec:Nsigma_exec.Executor.t ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  (Nsigma_process.Variation.t -> float) ->
  run
(** {!samples} specialised to scalar measurements.  A measurement that
    raises [Failure _] is simulator non-convergence (reported failures
    are < 0.1% in practice and correspond to non-functional variation
    corners): it is skipped and counted in [n_failed] so callers can
    report the attrition instead of silently losing it.  Any other
    exception propagates. *)

val delays :
  ?exec:Nsigma_exec.Executor.t ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  (Nsigma_process.Variation.t -> float) ->
  float array
(** [delays_counted] keeping only the surviving population. *)

val study :
  ?exec:Nsigma_exec.Executor.t ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  (Nsigma_process.Variation.t -> float) ->
  Nsigma_stats.Moments.summary * float array
(** Moments plus the sorted sample array (ready for quantile lookup). *)

val arc_results :
  ?exec:Nsigma_exec.Executor.t ->
  ?kernel:Cell_sim.kernel ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  arc_of:(Nsigma_process.Variation.t -> Arc.t) ->
  input_slew:float ->
  load_cap:float ->
  Cell_sim.result option array
(** Per-sample transient results of the arc built by [arc_of], measured
    through {!Cell_sim.run} with the requested [kernel] (default
    {!Cell_sim.default_kernel}[ ()]).  [None] marks a sample whose
    simulation raised [Failure] (non-convergence).  The unplanned
    sampling primitive: it builds each sample from scratch ([arc_of],
    then [Arc.compile] inside {!Cell_sim.run}) where the plan layer
    refills a skeleton ({!Arc.fill}), and both run the same compiled
    kernel — so it is the reference the plan layer's construction is
    verified against.  Like every entry point here, the population is
    bit-identical on every executor backend. *)

val compact_nan : float array -> float array
(** Drop NaN sentinels (failed samples) from a plan-layer result buffer,
    preserving sample order; returns a fresh array even when nothing was
    dropped. *)

val fill_adaptive :
  exec:Nsigma_exec.Executor.t ->
  init:(unit -> 's) ->
  ('s -> int -> float) ->
  out:float array ->
  n:int ->
  rtol:float option ->
  min_batch:int ->
  who:string ->
  int * int
(** The sampling loop shared by the arc- and path-level samplers: write
    [task scratch i] into [out.(i)] and return [(drawn, batches)].
    Without [rtol] every [i < n] is drawn in one executor pass
    ({!Nsigma_exec.Executor.map_float_range}).  With [rtol] the draw
    proceeds in doubling batches from [max 2 min_batch] and stops once
    both ±3σ empirical quantiles of the population so far have a
    relative {!Nsigma_stats.Quantile.ci} half-width ≤ [rtol]
    ((hi − lo)/2 ≤ rtol·|q|, 95% order-statistic CI) — never below
    [min_batch] samples, always capped at [n].  Because [task] derives
    sample [i] from the index alone, an early-stopped population is a
    bitwise prefix of the full run.  Adaptive runs record their batches
    and samples saved under [sampling.batches] /
    [sampling.samples_saved], and emit one [sampling.batch] trace
    instant per convergence check (from copies; tracing never changes a
    stopping decision).
    @raise Invalid_argument (naming [who]) if [rtol <= 0]. *)

val min_adaptive_batch : int
(** Default minimum batch (256): adaptive sampling never tests
    convergence — hence never stops — below this many samples. *)

type sampled = {
  s_delays : float array;
      (** delays in sample order, length = samples actually drawn; NaN
          marks a non-convergent sample *)
  s_out_slews : float array;  (** matching output slews (NaN on failure) *)
  s_requested : int;  (** the [n] asked for (= length unless stopped early) *)
  s_batches : int;  (** executor passes taken (1 unless adaptive) *)
}

val arc_delays_sampled :
  ?exec:Nsigma_exec.Executor.t ->
  ?kernel:Cell_sim.kernel ->
  ?sampling:Nsigma_stats.Sampler.backend ->
  ?rtol:float ->
  ?min_batch:int ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  plan:(unit -> Arc.skeleton) ->
  input_slew:float ->
  load_cap:float ->
  sampled
(** The sampler-aware form of {!arc_delays_planned}: deviates come from
    an {!Nsigma_stats.Sampler} stream of the requested backend (default
    {!Nsigma_stats.Sampler.default_backend}[ ()], i.e. plain MC unless
    [NSIGMA_SAMPLING] says otherwise).  With the [Mc] backend and no
    [rtol] it delegates to {!arc_delays_planned} — bitwise-identical to
    the pre-sampler populations, as test_sampler asserts.

    The [Pcm] backend replaces sampling altogether: the kernel is
    simulated only at the [Sampler.Pcm.n_points ~dim] Hermite
    collocation points (counted under [sampling.pcm.collocations], with
    the [n − points] never-simulated samples under
    [sampling.samples_saved]), second-order surrogates are fitted for
    log-delay and log output slew — near-threshold delay is close to
    exponential in the vth corners, so the quadratic lives in log space
    where it fits — and the full plain-MC deviate population is
    replayed through them (exponentiated).  [rtol] is ignored for [Pcm]
    (surrogate samples are almost free).  If any collocation simulation
    fails or returns a non-positive response the call falls back to
    {!arc_delays_planned} with a warning — better honest sampling than
    a surrogate extrapolated over a hole.

    [rtol] enables adaptive stopping: sampling proceeds in doubling
    batches from [min_batch] (default {!min_adaptive_batch}) and stops
    as soon as both ±3σ quantile CIs are within [rtol] ({!fill_adaptive})
    — never below [min_batch] samples, always capped at [n].  Because
    sample [i] is a pure function of the index, the early-stopped
    population is a bitwise prefix of the full run.  Batches and samples
    saved are recorded under the [sampling.batches] /
    [sampling.samples_saved] counters.
    @raise Invalid_argument if [rtol <= 0]. *)

val arc_delays_planned :
  ?exec:Nsigma_exec.Executor.t ->
  ?kernel:Cell_sim.kernel ->
  Nsigma_process.Technology.t ->
  Nsigma_stats.Rng.t ->
  n:int ->
  plan:(unit -> Arc.skeleton) ->
  input_slew:float ->
  load_cap:float ->
  float array * float array
(** Planned counterpart of {!arc_results}: [plan ()] builds one arc
    skeleton per worker domain ({!Nsigma_exec.Executor.iter_scratch}),
    each sample refreshes it in place ({!Arc.fill}) and runs
    the compiled kernel ({!Cell_sim.run_compiled}).  Returns
    [(delays, output_slews)] in sample order as unboxed float arrays with
    NaN marking non-convergent samples (in both arrays).  Guaranteed
    bit-identical to {!arc_results} on the same (generator state, seed,
    kernel), for every executor backend — the RNG discipline and draw
    order are the same, and a filled skeleton is bit-identical to a
    freshly compiled arc. *)
