(** Switching arcs: the conducting transistor network of one cell
    transition.

    Cell delay in this library is always the delay of an {e arc} — e.g.
    "NAND2, input A rising, output falling" means the series NMOS stack
    conducts while the parallel PMOS network turns off.  An arc carries
    the series stack (with per-device variation), the parallel-stack
    multiplicity, the opposing network lumped as one device (for
    short-circuit current during slow input ramps), and the intrinsic
    drain capacitance at the output node.

    Stacks use the standard series approximation: internal stack nodes
    stay near the conducting rail, so devices keep full gate drive while
    the drain-source drop divides evenly across the stack; the total
    current is the harmonic combination of per-device currents.  This both divides drive by the
    stack depth and averages per-device mismatch — the √n Pelgrom
    averaging that eq. (5) of the paper builds on. *)

type pull = Pull_up | Pull_down

type t = {
  pull : pull;  (** direction of the {e output} transition *)
  devices : Device.t array;  (** series stack; index 0 at the supply rail *)
  parallel : int;  (** number of identical parallel stacks conducting *)
  switching : int;  (** index in [devices] of the switching transistor *)
  opposing : Device.t option;  (** lumped opposing network *)
  cap_intrinsic : float;  (** drain parasitics at the output (F) *)
}

val make :
  Nsigma_process.Technology.t ->
  Nsigma_process.Variation.t ->
  pull:pull ->
  depth:int ->
  strength:float ->
  ?parallel:int ->
  ?switching:int ->
  ?opposing_width_mult:float ->
  unit ->
  t
(** Build an arc with [depth] series devices of [strength] × unit width
    (stacked cells upsize their devices by the depth, as real libraries
    do, so a NAND2x1 has 2× width NMOS — pass the result through
    [strength]).  [switching] defaults to the rail-side device (index 0).
    [opposing_width_mult] (default 0: no short-circuit path) lumps the
    non-conducting network. *)

val current :
  Nsigma_process.Technology.t -> t -> vin:float -> vout:float -> float
(** Net current (A) moving the output in the arc's direction, given the
    input gate voltage [vin] and output voltage [vout] (both absolute,
    in [0, VDD]).  Short-circuit current of the opposing device is
    subtracted; the result is clamped at 0 (the output never moves
    backwards in this quasi-static model). *)

val input_cap : Nsigma_process.Technology.t -> t -> float
(** Gate capacitance presented to the driving net by the switching
    device (F). *)

type compiled
(** An arc with every bias-independent constant hoisted: device
    prefactors (β·W·I_spec), 1/(2nU_T), the harmonic weight of the
    fully-on stack devices, 1/U_T, 1/V_A.  The only form the simulation
    kernels run on ({!Cell_sim.run_compiled}); their [Arc.t] entry
    points compile the arc first. *)

val compile : Nsigma_process.Technology.t -> t -> compiled
(** Precompute the arc's constants.  The result is valid as long as the
    arc and technology are unchanged. *)

val cap_intrinsic_of : compiled -> float
(** The arc's intrinsic output capacitance (F), carried for callers that
    only hold the compiled form. *)

val drive : compiled -> gate:float -> travel:float -> float
(** Net output current (A) in unified coordinates: [gate] is the
    source-referred drive of the switching device (= vin for a falling
    output, VDD − vin for a rising one) and [travel] the distance the
    output has moved from its starting rail, both in [0, VDD].
    Algebraically equal to {!current} — the per-device saturation/CLM
    terms share one V_DS = (VDD − travel)/depth and factor out of the
    harmonic stack sum — but ~depth× cheaper, and identical for both
    pull directions. *)

val drive_settled : compiled -> travel:float -> float
(** [drive c ~gate:VDD ~travel], with the gate-dependent factors read
    from caches hoisted at compile time.  Bit-identical to [drive] (pure
    common-subexpression elimination); used by the settled phase of the
    sampling kernels, where it saves the two log1p_exp evaluations that
    dominate [drive]'s cost. *)

val set_gate : compiled -> gate:float -> unit
(** Cache the gate-dependent factors (switching-device denominator and
    opposing prefactor) for [gate] into the compiled record, so repeated
    {!drive_gated} calls at the same gate voltage — e.g. the k2/k3 stage
    evaluations of an RK4 step, or a step's endpoint reused as the next
    step's start — skip their recomputation. *)

val drive_gated : compiled -> travel:float -> float
(** [drive c ~gate ~travel] for the gate most recently passed to
    {!set_gate}; bit-identical to [drive] at that gate. *)

val vth_sw_of : compiled -> float
(** Threshold voltage of the switching device (V). *)

val nut_of : compiled -> float
(** n·U_T, the sub-threshold e-fold slope (V). *)

(** {1 Precompiled sampling plans}

    A Monte-Carlo study evaluates thousands of samples of the same arc
    structure; only the per-device Vth/β deltas change.  A [skeleton]
    compiles the variation-independent structure once; {!fill} then
    applies one sample's deltas into the skeleton's preallocated scratch
    (devices + compiled record) without allocating.  [fill] draws from
    the sample in exactly the order {!make} does, and recomputes exactly
    the expressions {!compile} does, so a filled skeleton is bit-identical
    to [make] + [compile] for the same sample. *)

type skeleton
(** Preallocated scratch for one arc: the mutable device array plus its
    compiled form.  NOT thread-safe — each worker domain must own its own
    skeleton (see [Executor.map_scratch]). *)

val skeleton :
  Nsigma_process.Technology.t ->
  pull:pull ->
  depth:int ->
  strength:float ->
  ?parallel:int ->
  ?switching:int ->
  ?opposing_width_mult:float ->
  unit ->
  skeleton
(** Compile the variation-independent structure: same signature and
    validation as {!make} minus the variation sample.  Draws nothing from
    any RNG (safe on worker domains).  Time is recorded under the
    [plan.compile.seconds] timer. *)

val fill : Nsigma_process.Technology.t -> skeleton -> Nsigma_process.Variation.t -> unit
(** Apply one sample's variation into the skeleton in place.  Allocation-
    free on the hot path; time under [plan.fill.seconds], count under
    [plan.fills]. *)

val skeleton_arc : skeleton -> t
(** The skeleton's arc view (valid for the most recent {!fill}); lets the
    RK4 wire co-simulation ({!Rc_sim.simulate}) reuse plan scratch. *)

val skeleton_compiled : skeleton -> compiled
(** The skeleton's compiled view (valid for the most recent {!fill}). *)

val skeleton_local_dim : skeleton -> int
(** Number of local (within-die) standard-normal deviates one {!fill}
    consumes: two per stack device plus two for the opposing device when
    present, in exactly that order.  Together with
    [Variation.global_deviate_dim] this fixes the deviate-vector
    dimension a [Sampler] stream must produce per sample. *)
