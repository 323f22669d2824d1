(** Transient simulation of one cell switching arc — the two-tier kernel.

    Two interchangeable engines measure the same quantities (delay
    50%-input to 50%-output; output slew as the 20%–80% crossing interval
    rescaled to a full-swing equivalent ramp, the same convention as
    [input_slew]):

    - {!simulate} — the RK4 reference ("SPICE"): classical RK4 over the
      arc's nonlinear current under a linear input ramp, with fixed
      input-resolving steps during the ramp, travel-rate-adaptive steps
      after it, and early exit at the last threshold crossing.
    - {!simulate_fast} — the analytic effective-current path: the dead
      zone below threshold is skipped in closed form, a handful of Heun
      steps cover the ramp-active window, and once the input settles the
      remaining crossings are exact separable quadratures
      Δt = C·∫du/I(u) (3-point Gauss–Legendre per travel segment) —
      O(10) current evaluations per arc in total.

    Each engine exists once, as a loop over the closure-free compiled
    arc ({!Arc.compiled}); the [Arc.t] entry points ({!simulate},
    {!simulate_fast}, {!run}) compile the arc and call it, and the
    plan layer calls {!run_compiled} on a refilled skeleton directly.

    The fast path is the default for Monte-Carlo sampling (it tracks the
    reference to ≪2% in delay and ≪1% in population mean); the reference
    remains the golden path that models are judged against. *)

type result = {
  delay : float;  (** 50%-to-50% propagation delay (s) *)
  output_slew : float;  (** full-swing-equivalent output ramp time (s) *)
}

type kernel =
  | Fast  (** analytic effective-current loop ({!simulate_fast}) *)
  | Rk4  (** RK4 reference loop ({!simulate}) *)
  | Auto
      (** the Fast loop, falling back to the RK4 loop when the 50%
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
(** Dispatch on [kernel] (default {!default_kernel}[ ()]): {!run_compiled}
    on the compiled arc. *)

val run_compiled :
  ?kernel:kernel ->
  Nsigma_process.Technology.t ->
  Arc.compiled ->
  input_slew:float ->
  load_cap:float ->
  result
(** {!run} taking the arc in precompiled form — the sampling hot path of
    the plan layer ({!Arc.skeleton}/{!Arc.fill}); {!run} is
    [run_compiled] on [Arc.compile tech arc], so the two agree bit for
    bit on every kernel.  The loops hoist gate-invariant factors
    ([Arc.drive_settled], [Arc.set_gate]) and keep their state unboxed.
    The Fast kernel allocates only its result record; RK4 adds one small
    scratch record per call (no per-step boxing in either). *)
