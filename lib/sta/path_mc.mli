(** Monte-Carlo "SPICE" simulation of an extracted timing path.

    This is the golden reference of Table III: for each variation sample
    the path is re-simulated stage by stage at transistor level — every
    gate's arc is rebuilt with fresh per-device mismatch, every wire's
    R/C is perturbed, the driver is simulated {e into its real RC tree}
    (so cell delay, wire delay and slew propagation all interact), and
    the stage delays are summed.  Nothing from the statistical models is
    used. *)

type sampling_info = {
  si_backend : Nsigma_stats.Sampler.backend;
      (** deviate stream the population was drawn from *)
  si_rtol : float option;  (** adaptive tolerance, [None] = fixed count *)
  si_requested : int;  (** samples asked for ([n]) *)
  si_drawn : int;  (** samples actually simulated (≤ requested) *)
  si_saved : int;  (** requested − drawn *)
  si_non_convergent : int;  (** simulator failures among the drawn *)
  si_batches : int;  (** executor passes (1 unless adaptive) *)
}
(** Per-run sampling metadata, carried in {!stats} so timing reports and
    the JSON run report can show how a population was produced. *)

type stats = {
  samples : float array;  (** sorted path-delay population (s) *)
  moments : Nsigma_stats.Moments.summary;
  quantile : int -> float;  (** sigma level −3 … +3 → delay (s) *)
  sampling : sampling_info;
}

val simulate_sample :
  ?steps:int ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  Nsigma_process.Technology.t ->
  Design.t ->
  Path.t ->
  Nsigma_process.Variation.t ->
  float
(** One fabrication outcome's path delay.  [kernel] defaults to [Rk4]:
    the golden reference co-simulates each driver into its varied RC
    tree ({!Nsigma_spice.Rc_sim}).  [Fast] swaps in the analytic hop
    model — driver into the lumped net capacitance with the fast cell
    kernel, D2M wire delay at the exit tap, PERI (root-sum-square) slew
    propagation — trading the cell/wire co-simulation for a large
    speedup.  [Auto] is conservative here and behaves like [Rk4],
    because the fast hop model approximates exactly the interaction this
    simulation exists to capture. *)

type plan
(** A precompiled sampling plan for one path: per hop, the driver cell's
    arc skeleton, a private copy of the net's RC tree with its refill
    scratch, the sink loads and the exit-tap position — everything
    sample-independent, resolved once.  Plans hold mutable scratch and
    must not be shared between domains; {!run} builds one per worker. *)

val plan_of : Nsigma_process.Technology.t -> Design.t -> Path.t -> plan
(** Compile a plan.  @raise Invalid_argument on an empty path or a hop
    whose exit tap is not a tap of its output net. *)

val deviate_dim : plan -> int
(** Standard-normal deviates one sample through the plan consumes: the
    three global corners plus, per hop, the cell skeleton's locals
    ({!Nsigma_spice.Arc.skeleton_local_dim}) and two per non-root wire
    node.  The vector dimension an {!Nsigma_stats.Sampler} stream must
    produce for this path. *)

val simulate_planned :
  ?steps:int ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  Nsigma_process.Technology.t ->
  plan ->
  Nsigma_process.Variation.t ->
  record_wire:(int -> float -> unit) ->
  float
(** One sample through a plan: fills each hop's skeleton and RC tree in
    place and runs the same hop arithmetic as {!simulate_sample} —
    bit-identical to it (same deviate draw order), without rebuilding
    arcs or trees.  [record_wire i d] is called with each hop's wire
    delay. *)

val run :
  ?steps:int ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  ?n:int ->
  ?seed:int ->
  ?exec:Nsigma_exec.Executor.t ->
  ?sampling:Nsigma_stats.Sampler.backend ->
  ?rtol:float ->
  Nsigma_process.Technology.t ->
  Design.t ->
  Path.t ->
  stats
(** [n] (default 1000) full-path samples, scheduled on [exec] (default
    [Executor.default ()]) through a per-worker {!plan} — sample [i]
    derives its variation stream from index [i], so the population is
    bit-identical on every backend and pool size (and to the
    rebuild-per-sample {!simulate_sample} reference).

    [sampling] selects the deviate stream (default
    {!Nsigma_stats.Sampler.default_backend}[ ()]): the [Mc] default
    replays the legacy population bit for bit; [Antithetic] / [Lhs] /
    [Sobol] draw their deviate vectors ({!deviate_dim} wide) from the
    variance-reduction stream instead.  [rtol] turns on adaptive
    stopping: sampling proceeds in doubling batches from
    {!Nsigma_spice.Monte_carlo.min_adaptive_batch} and stops once both
    ±3σ quantile CIs are within the relative tolerance, capped at [n];
    the early-stopped population is a bitwise prefix of the full run.
    The configuration and outcome are reported in [stats.sampling].

    @raise Invalid_argument if [rtol <= 0].
    @raise Failure if every sample is non-convergent, naming the path's
    end net. *)

val per_wire_quantiles :
  ?steps:int ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  ?n:int ->
  ?seed:int ->
  ?exec:Nsigma_exec.Executor.t ->
  Nsigma_process.Technology.t ->
  Design.t ->
  Path.t ->
  sigma:int ->
  float list
(** The per-wire-segment nσ delays along the path (the Fig. 11 series):
    each wire's sample population is collected during the same runs.
    Always drawn with the plain Mc stream — a deliberate scope choice:
    the Fig. 11 comparison is against the legacy reference population,
    and per-wire quantiles are diagnostics rather than a convergence
    target. *)
