(** Transient simulation of one cell switching arc — the two-tier kernel.

    Two interchangeable engines measure the same quantities (delay
    50%-input to 50%-output; output slew as the 20%–80% crossing interval
    rescaled to a full-swing equivalent ramp, the same convention as
    [input_slew]):

    - {!simulate} — the RK4 reference ("SPICE"): classical RK4 over the
      arc's nonlinear current under a linear input ramp, through the
      closure-free compiled arc ({!Arc.compile}), with fixed
      input-resolving steps during the ramp, travel-rate-adaptive steps
      after it, and early exit at the last threshold crossing.
    - {!simulate_fast} — the analytic effective-current path: the dead
      zone below threshold is skipped in closed form, a handful of Heun
      steps cover the ramp-active window, and once the input settles the
      remaining crossings are exact separable quadratures
      Δt = C·∫du/I(u) (3-point Gauss–Legendre per travel segment) —
      O(10) current evaluations per arc in total.

    The fast path is the default for Monte-Carlo sampling (it tracks the
    reference to ≪2% in delay and ≪1% in population mean); the reference
    remains the golden path that models are judged against. *)

type result = {
  delay : float;  (** 50%-to-50% propagation delay (s) *)
  output_slew : float;  (** full-swing-equivalent output ramp time (s) *)
}

type kernel =
  | Fast  (** analytic effective-current path ({!simulate_fast}) *)
  | Rk4  (** RK4 reference path ({!simulate}) *)
  | Auto
      (** {!simulate_fast}, falling back to {!simulate} when the 50%
          crossing lands inside the input ramp (the regime where the
          separable approximation is weakest) or the fast path fails *)

val kernel_name : kernel -> string
(** ["fast"], ["rk4"] or ["auto"] — the spelling used by [--kernel],
    [NSIGMA_KERNEL] and the .lvf cache header. *)

val kernel_of_string : string -> kernel
(** Inverse of {!kernel_name} (case-insensitive).
    @raise Failure on any other string. *)

val default_kernel : unit -> kernel
(** The kernel selected by the [NSIGMA_KERNEL] environment variable
    (read at call time, so a CLI flag can install itself); unset or
    empty means {!Fast}. *)

val simulate :
  ?steps_per_phase:int ->
  Nsigma_process.Technology.t ->
  Arc.t ->
  input_slew:float ->
  load_cap:float ->
  result
(** The RK4 reference.  [steps_per_phase] (default 16) controls
    integration resolution (the delay is converged to <0.01% at 15
    already): during the input ramp the step is
    min(ramp, output time-constant)/[steps_per_phase]; afterwards it
    adapts to the instantaneous slew rate so each step covers
    VDD/[steps_per_phase] of travel.  Threshold crossings are located
    with cubic-Hermite dense output and the integration stops at the
    last one.
    @raise Invalid_argument for non-positive slew or negative load.
    @raise Failure if the output cannot complete its transition — the
    message reports the slew, load and step count (a sign of a
    pathological variation sample; callers treat it as a timing
    failure). *)

val simulate_fast :
  Nsigma_process.Technology.t ->
  Arc.t ->
  input_slew:float ->
  load_cap:float ->
  result
(** The analytic effective-current path; same contract as {!simulate}
    (same exceptions, same measurement conventions), ~an order of
    magnitude fewer current evaluations. *)

val run :
  ?kernel:kernel ->
  Nsigma_process.Technology.t ->
  Arc.t ->
  input_slew:float ->
  load_cap:float ->
  result
(** Dispatch on [kernel] (default {!default_kernel}[ ()]). *)

val nominal_delay :
  ?kernel:kernel ->
  Nsigma_process.Technology.t ->
  Arc.t ->
  input_slew:float ->
  load_cap:float ->
  float
(** Convenience projection of {!run}. *)

val run_compiled :
  ?kernel:kernel ->
  Nsigma_process.Technology.t ->
  Arc.compiled ->
  input_slew:float ->
  load_cap:float ->
  result
(** {!run} taking the arc in precompiled form — the sampling hot path of
    the plan layer ({!Arc.skeleton}/{!Arc.fill}).  Bit-identical to {!run}
    on a compiled copy of the same arc, for every kernel: the loops hoist
    gate-invariant factors ([Arc.drive_settled], [Arc.set_gate]) and keep
    their state unboxed, but preserve the reference kernels' floating-
    point operation order exactly.  The Fast kernel allocates only its
    result record; RK4 adds one small scratch record per call (no
    per-step boxing in either). *)

(** {1 Batched fast kernel (SoA layer)}

    The fast kernel restructured sample-major → stage-major: a batch
    holds up to [capacity] samples' compiled constants column-wise
    ({!Arc.Batch}) plus all integration state in unboxed [float array]s,
    and {!Batch.eval} runs the three phases as fused loops over the
    whole population — one pass for the dead-zone skip, lockstep Heun
    rounds over a compacting active-index list for the ramp window
    (every active sample takes exactly one step per round, so the round
    index reproduces the scalar kernel's per-sample guard counter), one
    pass for the settled-phase quadrature.

    With [approx = false] each sample's floating-point operation
    sequence is the scalar {!run_compiled}[ ~kernel:Fast] path
    expression-for-expression, so results are {e bit-identical} to the
    per-sample loop (asserted by test_batch) — loop interchange alone
    never perturbs a sample's value path.  [approx = true] (the opt-in
    [--no-bit-identical] mode) swaps the libm transcendentals for
    {!Nsigma_stats.Fastmath}'s polynomial kernels (relative error
    ≤ 1e-7), which is where the batch layer's raw speedup comes from.

    Failed samples (ramp non-convergence, non-driving settled segment)
    are marked NaN instead of raising — matching how the planned
    per-sample loop maps [Failure] to NaN — with the same
    [kernel.fast.failed] accounting.  Batches are plain mutable scratch:
    not thread-safe, one per worker domain ([Executor.map_ranges]). *)

module Batch : sig
  type t

  val create : int -> t
  (** [create capacity] preallocates every column for [capacity] slots.
      @raise Invalid_argument if [capacity <= 0]. *)

  val capacity : t -> int

  val load :
    t -> int -> Arc.compiled -> input_slew:float -> load_cap:float -> unit
  (** Load one sample's operating point into a slot: snapshots the
      compiled constants (the record may be refilled afterwards) and the
      per-slot slew/load.
      @raise Invalid_argument for non-positive slew or negative load,
      with the scalar kernel's messages. *)

  val eval : ?approx:bool -> Nsigma_process.Technology.t -> t -> n:int -> unit
  (** Evaluate slots [0..n-1] with the staged kernel.  [approx] (default
      false) selects the polynomial transcendentals.  Results are read
      back with {!delay}/{!output_slew}; failed slots hold NaN.
      @raise Invalid_argument if [n] exceeds the batch capacity. *)

  val delay : t -> int -> float
  val output_slew : t -> int -> float

  val failed : t -> int -> bool
  (** Whether the slot's last {!eval} failed (its delay/slew are NaN). *)
end
