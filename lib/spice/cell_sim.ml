module Technology = Nsigma_process.Technology
module Log = Nsigma_obs.Log
module Metrics = Nsigma_obs.Metrics

(* Kernel telemetry.  Registered at module init so run reports always
   carry these keys; recording is a no-op while metrics are disabled
   and never touches sampled values. *)
let m_rk4_calls = Metrics.counter "kernel.rk4.calls"
let m_rk4_steps = Metrics.counter "kernel.rk4.steps"
let m_fast_calls = Metrics.counter "kernel.fast.calls"
let m_fast_ramp_limited = Metrics.counter "kernel.fast.ramp_limited"
let m_fast_failed = Metrics.counter "kernel.fast.failed"
let m_auto_calls = Metrics.counter "kernel.auto.calls"
let m_auto_fallback = Metrics.counter "kernel.auto.fallback"
let m_stuck = Metrics.counter "kernel.stuck"

(* The three rare kernel events also land on the trace as instants, so
   a fallback or stuck transient is attributable to the exact task and
   moment it happened.  Per-call spans would blow the tracing overhead
   budget (millions of kernel calls per run); rare events cost nothing
   when they don't fire. *)
module Trace = Nsigma_obs.Trace

let tr_stuck = Trace.instant_type ~cat:"kernel" "kernel.stuck"
let tr_fast_failed = Trace.instant_type ~cat:"kernel" "kernel.fast.failed"
let tr_auto_fallback = Trace.instant_type ~cat:"kernel" "kernel.auto.fallback"

let note_stuck () =
  Metrics.incr m_stuck;
  if Trace.enabled () then Trace.instant tr_stuck ()

let note_fast_failed () =
  Metrics.incr m_fast_failed;
  if Trace.enabled () then Trace.instant tr_fast_failed ()

let note_auto_fallback () =
  Metrics.incr m_auto_fallback;
  if Trace.enabled () then Trace.instant tr_auto_fallback ()

type result = { delay : float; output_slew : float }

type kernel = Fast | Rk4 | Auto

let kernel_name = function Fast -> "fast" | Rk4 -> "rk4" | Auto -> "auto"

let kernel_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fast" -> Fast
  | "rk4" -> Rk4
  | "auto" -> Auto
  | other ->
    failwith
      (Printf.sprintf
         "unknown simulation kernel %S (expected \"fast\", \"rk4\" or \"auto\")"
         other)

let default_kernel () =
  match Sys.getenv_opt "NSIGMA_KERNEL" with
  | None -> Fast
  | Some s when String.trim s = "" -> Fast
  | Some s -> kernel_of_string s

(* Cubic-Hermite time at which the trajectory crosses [level] inside one
   integration step: both endpoint values and endpoint slopes of the step
   are known, so the dense output is third-order accurate — the crossing
   does not limit the step size.  Solved by bisection in the step-local
   coordinate (the bracket is guaranteed: u0 < level <= u1).  Inlined,
   with the bracket in local float refs, so a crossing allocates
   nothing. *)
let[@inline] hermite_crossing ~t0 ~dt ~u0 ~u1 ~f0 ~f1 level =
  if u1 <= u0 then t0 +. dt
  else begin
    let d0 = dt *. f0 and d1 = dt *. f1 in
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 30 do
      let s = 0.5 *. (!lo +. !hi) in
      let s2 = s *. s in
      let s3 = s2 *. s in
      let v =
        (((2.0 *. s3) -. (3.0 *. s2) +. 1.0) *. u0)
        +. ((s3 -. (2.0 *. s2) +. s) *. d0)
        +. (((-2.0 *. s3) +. (3.0 *. s2)) *. u1)
        +. ((s3 -. s2) *. d1)
      in
      if v < level then lo := s else hi := s
    done;
    t0 +. (0.5 *. (!lo +. !hi) *. dt)
  end

(* ----- reference kernel: adaptive RK4 ----- *)

let simulate ?(steps_per_phase = 16) tech arc ~input_slew ~load_cap =
  if input_slew <= 0.0 then invalid_arg "Cell_sim.simulate: slew must be positive";
  if load_cap < 0.0 then invalid_arg "Cell_sim.simulate: negative load";
  let vdd = tech.Technology.vdd_nominal in
  let cap = load_cap +. arc.Arc.cap_intrinsic in
  let inv_cap = 1.0 /. cap in
  let c = Arc.compile tech arc in
  let inv_tau = 1.0 /. input_slew in
  (* Unified coordinates: the switching device's gate drive ramps 0 → vdd
     for either pull direction, and u is the distance the output has
     travelled from its starting rail (see {!Arc.drive}). *)
  let dudt t u =
    let gate = if t >= input_slew then vdd else vdd *. t *. inv_tau in
    Arc.drive c ~gate ~travel:u *. inv_cap
  in
  let spp = float_of_int steps_per_phase in
  (* Ramp-phase step: resolve both the input ramp and the output time
     scale (estimated from the fully-on current at half swing), exactly
     as the reference has always done — the ramp window is where the
     input/output interaction lives, so it keeps fixed resolution. *)
  let i_half = Arc.drive c ~gate:vdd ~travel:(vdd /. 2.0) in
  let t_out = cap *. vdd /. Float.max i_half 1e-12 in
  let dt_ramp = Float.min (input_slew /. spp) (t_out /. spp) in
  let du_step = vdd /. spp in
  let max_steps = 400 * steps_per_phase in
  let t50_in = input_slew /. 2.0 in
  let lvl20 = 0.2 *. vdd and lvl50 = 0.5 *. vdd and lvl80 = 0.8 *. vdd in
  let t20 = ref nan and t50 = ref nan and t80 = ref nan in
  let t = ref 0.0 and u = ref 0.0 in
  let steps = ref 0 in
  (* Non-convergence keeps its operating point in the exception (callers
     and tests rely on the message) and additionally surfaces through
     the logger and the [kernel.stuck] counter, so a Monte-Carlo sweep
     can account for stuck corners without catching anything. *)
  let stuck () =
    note_stuck ();
    Log.debug "rk4 output stuck%s"
      (Log.kv
         [
           ("swing_pct", Printf.sprintf "%.1f" (100.0 *. !u /. vdd));
           ("steps", string_of_int !steps);
           ("input_slew", Printf.sprintf "%.3g" input_slew);
           ("load_cap", Printf.sprintf "%.3g" load_cap);
         ]);
    failwith
      (Printf.sprintf
         "Cell_sim.simulate: output stuck at %.1f%% of swing after %d RK4 \
          steps (input_slew=%.3g s, load_cap=%.3g F)"
         (100.0 *. !u /. vdd) !steps input_slew load_cap)
  in
  Metrics.incr m_rk4_calls;
  (* The 20%-travel level is crossed last; the loop exits as soon as it is
     recorded (the remaining exponential tail to the far rail is never
     integrated). *)
  while Float.is_nan !t20 do
    if !steps >= max_steps then stuck ();
    incr steps;
    let t0 = !t and u0 = !u in
    let k1 = dudt t0 u0 in
    let dt =
      if t0 < input_slew then dt_ramp
      else if k1 > 0.0 then
        (* Input settled: step by travel at the instantaneous rate.  The
           post-ramp current is a decreasing function of u alone, so this
           never overshoots the du budget. *)
        du_step /. k1
      else
        (* Zero net current with the input settled can never recover
           (the current only falls with travel): fail now instead of
           spinning to the step budget. *)
        stuck ()
    in
    let h = dt /. 2.0 in
    let k2 = dudt (t0 +. h) (u0 +. (h *. k1)) in
    let k3 = dudt (t0 +. h) (u0 +. (h *. k2)) in
    let k4 = dudt (t0 +. dt) (u0 +. (dt *. k3)) in
    let u1 =
      Float.min vdd
        (u0 +. (dt /. 6.0 *. (k1 +. (2.0 *. k2) +. (2.0 *. k3) +. k4)))
    in
    let t1 = t0 +. dt in
    let record cell level =
      if Float.is_nan !cell && u0 < level && u1 >= level then
        cell := hermite_crossing ~t0 ~dt ~u0 ~u1 ~f0:k1 ~f1:k4 level
    in
    (* u counts distance from the starting rail, so 20% travelled is the
       80% voltage point on a falling edge; record in travel terms. *)
    record t80 lvl20;
    record t50 lvl50;
    record t20 lvl80;
    t := t1;
    u := u1
  done;
  Metrics.incr m_rk4_steps ~by:!steps;
  { delay = !t50 -. t50_in; output_slew = (!t20 -. !t80) /. 0.6 }

(* ----- fast kernel: analytic effective current ----- *)

(* 3-point Gauss–Legendre nodes and weights on [0, 1]. *)
let gl_x = [| 0.1127016653792583; 0.5; 0.8872983346207417 |]
let gl_w = [| 0.2777777777777778; 0.4444444444444444; 0.2777777777777778 |]

(* The fast path splits the transition into three analytically different
   regimes and spends O(10) current evaluations in total:

   1. Dead zone — while the gate drive is more than ~6nU_T below
      threshold the current is e-fold suppressed every nU_T, so the
      output provably has not moved: skip to t_start = τ·g_on/VDD in
      closed form, charging the node by the subthreshold leak
      I(g_on)·nU_T·τ/VDD (the integral of an exponential in the gate
      drive).

   2. Ramp-active window — from g_on to the end of the ramp the current
      depends on both t and u; a handful of Heun (trapezoidal) steps
      bounded in gate advance (≈ (VDD − g_on)/10) and in travel
      (≤ 8% of swing) integrate it, with cubic-Hermite crossing times.

   3. Settled input — du/dt = I(VDD, u)/C is separable, so each
      remaining threshold crossing is the exact quadrature
      Δt = C·∫ du/I(u), evaluated per segment with 3-point
      Gauss–Legendre.  This is the "effective current" in its exact
      form: 1/I averaged over the travel segment. *)
let simulate_fast_ext tech arc ~input_slew ~load_cap =
  if input_slew <= 0.0 then
    invalid_arg "Cell_sim.simulate_fast: slew must be positive";
  if load_cap < 0.0 then invalid_arg "Cell_sim.simulate_fast: negative load";
  Metrics.incr m_fast_calls;
  let vdd = tech.Technology.vdd_nominal in
  let cap = load_cap +. arc.Arc.cap_intrinsic in
  let inv_cap = 1.0 /. cap in
  let c = Arc.compile tech arc in
  let tau = input_slew in
  let nut = tech.Technology.subthreshold_n *. Technology.thermal_voltage tech in
  let vth = arc.Arc.devices.(arc.Arc.switching).Device.vth in
  let lvls = [| 0.2 *. vdd; 0.5 *. vdd; 0.8 *. vdd |] in
  let times = [| nan; nan; nan |] in
  (* 1. dead zone *)
  let g_on = Float.min vdd (Float.max 0.0 (vth -. (6.0 *. nut))) in
  let t_start = tau *. (g_on /. vdd) in
  let u_start =
    if t_start <= 0.0 then 0.0
    else
      Float.min (0.15 *. vdd)
        (Arc.drive c ~gate:g_on ~travel:0.0 *. nut *. (tau /. vdd) *. inv_cap)
  in
  let t = ref t_start and u = ref u_start in
  let next = ref 0 in
  let ramp_limited = ref false in
  (* 2. ramp-active window *)
  let dt_gate = (tau -. t_start) /. 9.0 in
  let du_max = 0.09 *. vdd in
  let guard = ref 0 in
  while !t < tau && !next < 3 && !guard < 64 do
    incr guard;
    let f0 = Arc.drive c ~gate:(vdd *. (!t /. tau)) ~travel:!u *. inv_cap in
    let dt0 = if f0 *. dt_gate > du_max then du_max /. f0 else dt_gate in
    let dt = Float.min dt0 (tau -. !t) in
    let t1 = !t +. dt in
    let g1 = vdd *. Float.min 1.0 (t1 /. tau) in
    let u_pred = Float.min vdd (!u +. (dt *. f0)) in
    let f1 = Arc.drive c ~gate:g1 ~travel:u_pred *. inv_cap in
    let u1 = Float.min vdd (!u +. (dt *. 0.5 *. (f0 +. f1))) in
    while !next < 3 && u1 >= lvls.(!next) do
      times.(!next) <- hermite_crossing ~t0:!t ~dt ~u0:!u ~u1 ~f0 ~f1 lvls.(!next);
      if !next = 1 then ramp_limited := true;
      incr next
    done;
    t := t1;
    u := u1
  done;
  if !next < 3 && !t < tau then begin
    note_fast_failed ();
    Log.debug "fast ramp stepping did not converge%s"
      (Log.kv
         [
           ("steps", string_of_int !guard);
           ("input_slew", Printf.sprintf "%.3g" input_slew);
           ("load_cap", Printf.sprintf "%.3g" load_cap);
         ]);
    failwith
      (Printf.sprintf
         "Cell_sim.simulate_fast: ramp stepping did not converge after %d \
          steps (input_slew=%.3g s, load_cap=%.3g F)"
         !guard input_slew load_cap)
  end;
  (* 3. settled input: exact segment quadrature *)
  if !next < 3 then begin
    let a = ref !u in
    while !next < 3 do
      let b = lvls.(!next) in
      let width = b -. !a in
      if width > 0.0 then begin
        let s = ref 0.0 in
        for i = 0 to 2 do
          let ui = !a +. (width *. gl_x.(i)) in
          let ii = Arc.drive c ~gate:vdd ~travel:ui in
          if ii <= 0.0 then begin
            note_fast_failed ();
            Log.debug "fast settled phase cannot reach %.1f%% of swing%s"
              (100.0 *. ui /. vdd)
              (Log.kv
                 [
                   ("input_slew", Printf.sprintf "%.3g" input_slew);
                   ("load_cap", Printf.sprintf "%.3g" load_cap);
                 ]);
            failwith
              (Printf.sprintf
                 "Cell_sim.simulate_fast: arc cannot drive the output past \
                  %.1f%% of swing (input_slew=%.3g s, load_cap=%.3g F)"
                 (100.0 *. ui /. vdd) input_slew load_cap)
          end;
          s := !s +. (gl_w.(i) /. ii)
        done;
        t := !t +. (cap *. width *. !s)
      end;
      times.(!next) <- !t;
      a := b;
      incr next
    done
  end;
  if !ramp_limited then Metrics.incr m_fast_ramp_limited;
  ( {
      delay = times.(1) -. (tau /. 2.0);
      output_slew = (times.(2) -. times.(0)) /. 0.6;
    },
    !ramp_limited )

let simulate_fast tech arc ~input_slew ~load_cap =
  fst (simulate_fast_ext tech arc ~input_slew ~load_cap)

let run ?kernel tech arc ~input_slew ~load_cap =
  let kernel = match kernel with Some k -> k | None -> default_kernel () in
  match kernel with
  | Rk4 -> simulate tech arc ~input_slew ~load_cap
  | Fast -> simulate_fast tech arc ~input_slew ~load_cap
  | Auto -> (
    (* The fast path's separable-quadrature step assumes the 50% crossing
       happens after the input settles; when the transition is
       ramp-limited (or the fast path fails outright) fall back to the
       RK4 reference. *)
    Metrics.incr m_auto_calls;
    match simulate_fast_ext tech arc ~input_slew ~load_cap with
    | r, false -> r
    | _, true ->
      note_auto_fallback ();
      simulate tech arc ~input_slew ~load_cap
    | exception Failure _ ->
      note_auto_fallback ();
      simulate tech arc ~input_slew ~load_cap)

let nominal_delay ?kernel tech arc ~input_slew ~load_cap =
  (run ?kernel tech arc ~input_slew ~load_cap).delay

(* ----- compiled-arc sampling kernels (plan layer) -----

   The same measurements as [simulate]/[simulate_fast], taking the arc in
   its precompiled form so a Monte-Carlo plan can refresh one scratch per
   sample ({!Arc.fill}) and skip per-sample construction.  The loops are
   restructured for speed — the full-drive and per-gate invariants are
   hoisted through [Arc.drive_settled] / [Arc.set_gate]+[Arc.drive_gated]
   (during the ramp a step's endpoint gate is the next step's start, so
   each RK4 step prepares only two new gate voltages instead of
   re-deriving four), and loop state stays unboxed: in one flat all-float
   record for RK4, whose [eval] closure shares it, and in local float
   refs for Fast, which has no closure — but every floating-point
   expression on the value path keeps the reference kernels' exact
   operation order and grouping, so results are bit-identical (asserted
   by test_plan). *)

type sim_scratch = {
  mutable s_t : float;
  mutable s_u : float;
  mutable s_t20 : float;
  mutable s_t50 : float;
  mutable s_t80 : float;
  mutable s_prep : float;  (* time whose gate factors [Arc.set_gate] cached *)
}

let fresh_scratch () =
  { s_t = 0.0; s_u = 0.0; s_t20 = nan; s_t50 = nan; s_t80 = nan; s_prep = nan }

let simulate_compiled ?(steps_per_phase = 16) tech c ~input_slew ~load_cap =
  if input_slew <= 0.0 then invalid_arg "Cell_sim.simulate: slew must be positive";
  if load_cap < 0.0 then invalid_arg "Cell_sim.simulate: negative load";
  let vdd = tech.Technology.vdd_nominal in
  let cap = load_cap +. Arc.cap_intrinsic_of c in
  let inv_cap = 1.0 /. cap in
  let inv_tau = 1.0 /. input_slew in
  let spp = float_of_int steps_per_phase in
  let i_half = Arc.drive_settled c ~travel:(vdd /. 2.0) in
  let t_out = cap *. vdd /. Float.max i_half 1e-12 in
  let dt_ramp = Float.min (input_slew /. spp) (t_out /. spp) in
  let du_step = vdd /. spp in
  let max_steps = 400 * steps_per_phase in
  let t50_in = input_slew /. 2.0 in
  let lvl20 = 0.2 *. vdd and lvl50 = 0.5 *. vdd and lvl80 = 0.8 *. vdd in
  let st = fresh_scratch () in
  let steps = ref 0 in
  let stuck () =
    note_stuck ();
    Log.debug "rk4 output stuck%s"
      (Log.kv
         [
           ("swing_pct", Printf.sprintf "%.1f" (100.0 *. st.s_u /. vdd));
           ("steps", string_of_int !steps);
           ("input_slew", Printf.sprintf "%.3g" input_slew);
           ("load_cap", Printf.sprintf "%.3g" load_cap);
         ]);
    failwith
      (Printf.sprintf
         "Cell_sim.simulate: output stuck at %.1f%% of swing after %d RK4 \
          steps (input_slew=%.3g s, load_cap=%.3g F)"
         (100.0 *. st.s_u /. vdd) !steps input_slew load_cap)
  in
  Metrics.incr m_rk4_calls;
  (* du/dt at (t, u): the settled gate reads the compile-time caches; a
     ramp gate is prepared once per distinct time point (k2/k3 share one,
     and a step's endpoint is reused as the next step's start). *)
  let[@inline] eval t u =
    if t >= input_slew then Arc.drive_settled c ~travel:u *. inv_cap
    else begin
      if t <> st.s_prep then begin
        Arc.set_gate c ~gate:(vdd *. t *. inv_tau);
        st.s_prep <- t
      end;
      Arc.drive_gated c ~travel:u *. inv_cap
    end
  in
  while Float.is_nan st.s_t20 do
    if !steps >= max_steps then stuck ();
    incr steps;
    let t0 = st.s_t and u0 = st.s_u in
    let k1 = eval t0 u0 in
    let dt =
      if t0 < input_slew then dt_ramp
      else if k1 > 0.0 then du_step /. k1
      else stuck ()
    in
    let h = dt /. 2.0 in
    let th = t0 +. h in
    let k2 = eval th (u0 +. (h *. k1)) in
    let k3 = eval th (u0 +. (h *. k2)) in
    let t1 = t0 +. dt in
    let k4 = eval t1 (u0 +. (dt *. k3)) in
    let u1 =
      Float.min vdd
        (u0 +. (dt /. 6.0 *. (k1 +. (2.0 *. k2) +. (2.0 *. k3) +. k4)))
    in
    if Float.is_nan st.s_t80 && u0 < lvl20 && u1 >= lvl20 then
      st.s_t80 <- hermite_crossing ~t0 ~dt ~u0 ~u1 ~f0:k1 ~f1:k4 lvl20;
    if Float.is_nan st.s_t50 && u0 < lvl50 && u1 >= lvl50 then
      st.s_t50 <- hermite_crossing ~t0 ~dt ~u0 ~u1 ~f0:k1 ~f1:k4 lvl50;
    if Float.is_nan st.s_t20 && u0 < lvl80 && u1 >= lvl80 then
      st.s_t20 <- hermite_crossing ~t0 ~dt ~u0 ~u1 ~f0:k1 ~f1:k4 lvl80;
    st.s_t <- t1;
    st.s_u <- u1
  done;
  Metrics.incr m_rk4_steps ~by:!steps;
  { delay = st.s_t50 -. t50_in; output_slew = (st.s_t20 -. st.s_t80) /. 0.6 }

(* Raised by [simulate_fast_compiled ~auto:true] in place of a ramp-
   limited result, so [run_compiled]'s Auto mode can fall back to RK4
   without the kernel returning a (result, flag) pair per call. *)
exception Ramp_limited

(* [pick k a b c] is the [k]-th of the three thresholds (or crossing
   times) kept in float lets; an indexed float array would be allocated
   per call. *)
let[@inline] pick k a b c = if k = 0 then a else if k = 1 then b else c

let simulate_fast_compiled ~auto tech c ~input_slew ~load_cap =
  if input_slew <= 0.0 then
    invalid_arg "Cell_sim.simulate_fast: slew must be positive";
  if load_cap < 0.0 then invalid_arg "Cell_sim.simulate_fast: negative load";
  Metrics.incr m_fast_calls;
  let vdd = tech.Technology.vdd_nominal in
  let cap = load_cap +. Arc.cap_intrinsic_of c in
  let inv_cap = 1.0 /. cap in
  let tau = input_slew in
  let nut = Arc.nut_of c in
  let vth = Arc.vth_sw_of c in
  let l20 = 0.2 *. vdd and l50 = 0.5 *. vdd and l80 = 0.8 *. vdd in
  let t20 = ref nan and t50 = ref nan and t80 = ref nan in
  (* 1. dead zone *)
  let g_on = Float.min vdd (Float.max 0.0 (vth -. (6.0 *. nut))) in
  let t_start = tau *. (g_on /. vdd) in
  let u_start =
    if t_start <= 0.0 then 0.0
    else
      Float.min (0.15 *. vdd)
        (Arc.drive c ~gate:g_on ~travel:0.0 *. nut *. (tau /. vdd) *. inv_cap)
  in
  let t = ref t_start and u = ref u_start in
  let next = ref 0 in
  let ramp_limited = ref false in
  (* 2. ramp-active window *)
  let dt_gate = (tau -. t_start) /. 9.0 in
  let du_max = 0.09 *. vdd in
  let guard = ref 0 in
  while !t < tau && !next < 3 && !guard < 64 do
    incr guard;
    let f0 = Arc.drive c ~gate:(vdd *. (!t /. tau)) ~travel:!u *. inv_cap in
    let dt0 = if f0 *. dt_gate > du_max then du_max /. f0 else dt_gate in
    let dt = Float.min dt0 (tau -. !t) in
    let t1 = !t +. dt in
    let g1 = vdd *. Float.min 1.0 (t1 /. tau) in
    let u_pred = Float.min vdd (!u +. (dt *. f0)) in
    let f1 = Arc.drive c ~gate:g1 ~travel:u_pred *. inv_cap in
    let u1 = Float.min vdd (!u +. (dt *. 0.5 *. (f0 +. f1))) in
    while !next < 3 && u1 >= pick !next l20 l50 l80 do
      let x =
        hermite_crossing ~t0:!t ~dt ~u0:!u ~u1 ~f0 ~f1 (pick !next l20 l50 l80)
      in
      if !next = 0 then t20 := x
      else if !next = 1 then begin
        t50 := x;
        ramp_limited := true
      end
      else t80 := x;
      incr next
    done;
    t := t1;
    u := u1
  done;
  if !next < 3 && !t < tau then begin
    note_fast_failed ();
    Log.debug "fast ramp stepping did not converge%s"
      (Log.kv
         [
           ("steps", string_of_int !guard);
           ("input_slew", Printf.sprintf "%.3g" input_slew);
           ("load_cap", Printf.sprintf "%.3g" load_cap);
         ]);
    failwith
      (Printf.sprintf
         "Cell_sim.simulate_fast: ramp stepping did not converge after %d \
          steps (input_slew=%.3g s, load_cap=%.3g F)"
         !guard input_slew load_cap)
  end;
  (* 3. settled input: exact segment quadrature *)
  if !next < 3 then begin
    let a = ref !u in
    while !next < 3 do
      let b = pick !next l20 l50 l80 in
      let width = b -. !a in
      if width > 0.0 then begin
        let s = ref 0.0 in
        for i = 0 to 2 do
          let ui = !a +. (width *. gl_x.(i)) in
          let ii = Arc.drive_settled c ~travel:ui in
          if ii <= 0.0 then begin
            note_fast_failed ();
            Log.debug "fast settled phase cannot reach %.1f%% of swing%s"
              (100.0 *. ui /. vdd)
              (Log.kv
                 [
                   ("input_slew", Printf.sprintf "%.3g" input_slew);
                   ("load_cap", Printf.sprintf "%.3g" load_cap);
                 ]);
            failwith
              (Printf.sprintf
                 "Cell_sim.simulate_fast: arc cannot drive the output past \
                  %.1f%% of swing (input_slew=%.3g s, load_cap=%.3g F)"
                 (100.0 *. ui /. vdd) input_slew load_cap)
          end;
          s := !s +. (gl_w.(i) /. ii)
        done;
        t := !t +. (cap *. width *. !s)
      end;
      if !next = 0 then t20 := !t else if !next = 1 then t50 := !t else t80 := !t;
      a := b;
      incr next
    done
  end;
  if !ramp_limited then begin
    Metrics.incr m_fast_ramp_limited;
    if auto then raise_notrace Ramp_limited
  end;
  { delay = !t50 -. (tau /. 2.0); output_slew = (!t80 -. !t20) /. 0.6 }

(* ----- batched fast kernel (SoA layer) -----

   [simulate_fast_compiled] restructured sample-major → stage-major:
   a batch holds N samples' compiled constants column-wise
   ({!Arc.Batch}) and the three phases run as fused loops over the whole
   population — one pass for the dead-zone skip, lockstep Heun rounds
   over a compacting active-index list for the ramp window, one pass for
   the settled-phase quadrature.  Interchanging the loops does not touch
   any sample's floating-point operation sequence: with the exact drive
   kernels every per-sample value path is the scalar kernel's
   expression-for-expression, so the batch is bit-identical to the
   per-sample loop (asserted by test_batch).  The one deliberate
   divergence is [~approx:true], which swaps the libm transcendentals
   for [Fastmath]'s polynomial kernels (≤1e-7 relative error) — that is
   what the opt-in --no-bit-identical mode enables.

   The ramp runs in lockstep rounds: every active sample takes exactly
   one Heun step per round, so the round index equals each sample's
   scalar [guard] counter and the 64-round bound reproduces the scalar
   guard exactly.  Failures (ramp non-convergence, a non-driving settled
   segment) mark the slot NaN instead of raising — the per-sample
   planned loop maps [Failure] to NaN, so populations still match —
   while keeping the same [kernel.fast.failed] accounting and debug
   logs. *)

let[@inline always] bdrive ~approx arcs i ~gate ~travel =
  if approx then Arc.Batch.drive_approx arcs i ~gate ~travel
  else Arc.Batch.drive arcs i ~gate ~travel

let[@inline always] bdrive_settled ~approx arcs i ~travel =
  if approx then Arc.Batch.drive_settled_approx arcs i ~travel
  else Arc.Batch.drive_settled arcs i ~travel

module Batch = struct
  type t = {
    arcs : Arc.Batch.batch;
    tau : float array;  (* per-slot input slew *)
    load : float array;  (* per-slot load cap (for diagnostics) *)
    cap : float array;
    inv_cap : float array;
    bt : float array;  (* integration time *)
    bu : float array;  (* output travel *)
    (* Per-round stage columns, indexed by position in [active] (not by
       slot): splitting each Heun round into four short passes keeps
       every pass's loop body small enough that the out-of-order window
       spans several samples, so the transcendental latency chains of
       independent samples overlap instead of serialising.  Per-sample
       arithmetic is unchanged — only the interleaving across samples
       moves, which cannot perturb a bit of any one sample's result. *)
    bf0 : float array;  (* predictor slope f0/cap *)
    bf1 : float array;  (* corrector slope f1/cap *)
    bdt : float array;  (* accepted step *)
    bg1 : float array;  (* gate voltage at t1 *)
    bup : float array;  (* predictor travel *)
    dt_gate : float array;
    times : float array;  (* crossing times, 3 per slot *)
    next : int array;  (* per-slot next threshold index *)
    ramp_limited : bool array;
    failed : bool array;
    active : int array;  (* compacting index list for the ramp rounds *)
    delays : float array;
    slews : float array;
    capacity : int;
  }

  let create capacity =
    if capacity <= 0 then
      invalid_arg "Cell_sim.Batch.create: capacity must be positive";
    {
      arcs = Arc.Batch.create capacity;
      tau = Array.make capacity 0.0;
      load = Array.make capacity 0.0;
      cap = Array.make capacity 0.0;
      inv_cap = Array.make capacity 0.0;
      bt = Array.make capacity 0.0;
      bu = Array.make capacity 0.0;
      bf0 = Array.make capacity 0.0;
      bf1 = Array.make capacity 0.0;
      bdt = Array.make capacity 0.0;
      bg1 = Array.make capacity 0.0;
      bup = Array.make capacity 0.0;
      dt_gate = Array.make capacity 0.0;
      times = Array.make (3 * capacity) nan;
      next = Array.make capacity 0;
      ramp_limited = Array.make capacity false;
      failed = Array.make capacity false;
      active = Array.make capacity 0;
      delays = Array.make capacity Float.nan;
      slews = Array.make capacity Float.nan;
      capacity;
    }

  let capacity b = b.capacity

  let load b i c ~input_slew ~load_cap =
    if input_slew <= 0.0 then
      invalid_arg "Cell_sim.simulate_fast: slew must be positive";
    if load_cap < 0.0 then invalid_arg "Cell_sim.simulate_fast: negative load";
    Arc.Batch.load b.arcs i c;
    Array.unsafe_set b.tau i input_slew;
    Array.unsafe_set b.load i load_cap

  let[@inline] delay b i = (Array.unsafe_get b.delays (i))
  let[@inline] output_slew b i = (Array.unsafe_get b.slews (i))
  let[@inline] failed b i = (Array.unsafe_get b.failed (i))

  let eval ?(approx = false) tech b ~n =
    if n < 0 || n > b.capacity then
      invalid_arg "Cell_sim.Batch.eval: sample count out of range";
    Metrics.incr m_fast_calls ~by:n;
    let vdd = tech.Technology.vdd_nominal in
    let lvls = [| 0.2 *. vdd; 0.5 *. vdd; 0.8 *. vdd |] in
    let du_max = 0.09 *. vdd in
    let arcs = b.arcs in
    (* 1. per-slot constants + dead-zone skip, one fused pass *)
    for i = 0 to n - 1 do
      let cap = (Array.unsafe_get b.load (i)) +. Arc.Batch.cap_intrinsic arcs i in
      Array.unsafe_set b.cap (i) cap;
      Array.unsafe_set b.inv_cap (i) (1.0 /. cap);
      Array.unsafe_set b.times (3 * i) nan;
      Array.unsafe_set b.times ((3 * i) + 1) nan;
      Array.unsafe_set b.times ((3 * i) + 2) nan;
      Array.unsafe_set b.next (i) 0;
      Array.unsafe_set b.ramp_limited (i) false;
      Array.unsafe_set b.failed (i) false;
      let tau = (Array.unsafe_get b.tau (i)) in
      let nut = Arc.Batch.nut arcs i in
      let vth = Arc.Batch.vth_sw arcs i in
      let g_on = Float.min vdd (Float.max 0.0 (vth -. (6.0 *. nut))) in
      let t_start = tau *. (g_on /. vdd) in
      let u_start =
        if t_start <= 0.0 then 0.0
        else
          Float.min (0.15 *. vdd)
            (bdrive ~approx arcs i ~gate:g_on ~travel:0.0
            *. nut *. (tau /. vdd) *. (Array.unsafe_get b.inv_cap (i)))
      in
      Array.unsafe_set b.bt (i) t_start;
      Array.unsafe_set b.bu (i) u_start;
      Array.unsafe_set b.dt_gate (i) ((tau -. t_start) /. 9.0)
    done;
    (* 2. ramp window: lockstep Heun rounds over the active samples *)
    let n_active = ref 0 in
    for i = 0 to n - 1 do
      if (Array.unsafe_get b.bt (i)) < (Array.unsafe_get b.tau (i)) then begin
        Array.unsafe_set b.active (!n_active) i;
        incr n_active
      end
    done;
    let round = ref 0 in
    while !n_active > 0 && !round < 64 do
      incr round;
      let m = !n_active in
      (* Stage A: predictor slope.  The drive evaluations of different
         samples are independent, so this short loop lets their
         transcendental chains pipeline. *)
      for k = 0 to m - 1 do
        let i = (Array.unsafe_get b.active (k)) in
        Array.unsafe_set b.bf0 k
          (bdrive ~approx arcs i
             ~gate:(vdd *. (Array.unsafe_get b.bt i /. Array.unsafe_get b.tau i))
             ~travel:(Array.unsafe_get b.bu i)
          *. Array.unsafe_get b.inv_cap i)
      done;
      (* Stage B: step-size control and predictor state. *)
      for k = 0 to m - 1 do
        let i = (Array.unsafe_get b.active (k)) in
        let tau = (Array.unsafe_get b.tau (i)) in
        let t = (Array.unsafe_get b.bt (i)) and u = (Array.unsafe_get b.bu (i)) in
        let f0 = (Array.unsafe_get b.bf0 (k)) in
        let dt0 =
          if f0 *. (Array.unsafe_get b.dt_gate (i)) > du_max then du_max /. f0
          else (Array.unsafe_get b.dt_gate (i))
        in
        let dt = Float.min dt0 (tau -. t) in
        Array.unsafe_set b.bdt (k) dt;
        Array.unsafe_set b.bg1 (k) (vdd *. Float.min 1.0 ((t +. dt) /. tau));
        Array.unsafe_set b.bup (k) (Float.min vdd (u +. (dt *. f0)))
      done;
      (* Stage C: corrector slope. *)
      for k = 0 to m - 1 do
        let i = (Array.unsafe_get b.active (k)) in
        Array.unsafe_set b.bf1 k
          (bdrive ~approx arcs i ~gate:(Array.unsafe_get b.bg1 k)
             ~travel:(Array.unsafe_get b.bup k)
          *. Array.unsafe_get b.inv_cap i)
      done;
      (* Stage D: Heun commit, threshold crossings, compaction. *)
      n_active := 0;
      for k = 0 to m - 1 do
        let i = (Array.unsafe_get b.active (k)) in
        let tau = (Array.unsafe_get b.tau (i)) in
        let t = (Array.unsafe_get b.bt (i)) and u = (Array.unsafe_get b.bu (i)) in
        let f0 = (Array.unsafe_get b.bf0 (k)) and f1 = (Array.unsafe_get b.bf1 (k)) and dt = (Array.unsafe_get b.bdt (k)) in
        let t1 = t +. dt in
        let u1 = Float.min vdd (u +. (dt *. 0.5 *. (f0 +. f1))) in
        let next = ref (Array.unsafe_get b.next (i)) in
        while !next < 3 && u1 >= (Array.unsafe_get lvls !next) do
          Array.unsafe_set b.times ((3 * i) + !next)
            (hermite_crossing ~t0:t ~dt ~u0:u ~u1 ~f0 ~f1
               (Array.unsafe_get lvls !next));
          if !next = 1 then Array.unsafe_set b.ramp_limited (i) true;
          incr next
        done;
        Array.unsafe_set b.next (i) !next;
        Array.unsafe_set b.bt (i) t1;
        Array.unsafe_set b.bu (i) u1;
        (* Writes trail reads (!n_active <= k), so compacting in place
           is safe. *)
        if t1 < tau && !next < 3 then begin
          Array.unsafe_set b.active (!n_active) i;
          incr n_active
        end
      done
    done;
    (* Samples still active after 64 rounds are the scalar kernel's
       guard-exhausted failures. *)
    for k = 0 to !n_active - 1 do
      let i = (Array.unsafe_get b.active (k)) in
      Array.unsafe_set b.failed (i) true;
      note_fast_failed ();
      Log.debug "fast ramp stepping did not converge%s"
        (Log.kv
           [
             ("steps", string_of_int !round);
             ("input_slew", Printf.sprintf "%.3g" (Array.unsafe_get b.tau (i)));
             ("load_cap", Printf.sprintf "%.3g" (Array.unsafe_get b.load (i)));
           ])
    done;
    (* 3. settled input: exact segment quadrature, one fused pass *)
    for i = 0 to n - 1 do
      if (not (Array.unsafe_get b.failed (i))) && (Array.unsafe_get b.next (i)) < 3 then begin
        let cap = (Array.unsafe_get b.cap (i)) in
        let a = ref (Array.unsafe_get b.bu (i)) in
        let t = ref (Array.unsafe_get b.bt (i)) in
        let next = ref (Array.unsafe_get b.next (i)) in
        (try
           while !next < 3 do
             let lvl = (Array.unsafe_get lvls !next) in
             let width = lvl -. !a in
             if width > 0.0 then begin
               let s = ref 0.0 in
               for q = 0 to 2 do
                 let ui = !a +. (width *. (Array.unsafe_get gl_x q)) in
                 let ii = bdrive_settled ~approx arcs i ~travel:ui in
                 if ii <= 0.0 then begin
                   note_fast_failed ();
                   Log.debug "fast settled phase cannot reach %.1f%% of swing%s"
                     (100.0 *. ui /. vdd)
                     (Log.kv
                        [
                          ("input_slew", Printf.sprintf "%.3g" (Array.unsafe_get b.tau (i)));
                          ("load_cap", Printf.sprintf "%.3g" (Array.unsafe_get b.load (i)));
                        ]);
                   Array.unsafe_set b.failed (i) true;
                   raise Exit
                 end;
                 s := !s +. ((Array.unsafe_get gl_w q) /. ii)
               done;
               t := !t +. (cap *. width *. !s)
             end;
             Array.unsafe_set b.times ((3 * i) + !next) !t;
             a := lvl;
             incr next
           done
         with Exit -> ());
        Array.unsafe_set b.next (i) !next
      end
    done;
    (* 4. results *)
    for i = 0 to n - 1 do
      if (Array.unsafe_get b.failed (i)) then begin
        Array.unsafe_set b.delays (i) Float.nan;
        Array.unsafe_set b.slews (i) Float.nan
      end
      else begin
        if (Array.unsafe_get b.ramp_limited (i)) then Metrics.incr m_fast_ramp_limited;
        Array.unsafe_set b.delays (i)
          (Array.unsafe_get b.times ((3 * i) + 1)
          -. (Array.unsafe_get b.tau (i) /. 2.0));
        Array.unsafe_set b.slews (i)
          ((Array.unsafe_get b.times ((3 * i) + 2)
           -. Array.unsafe_get b.times (3 * i))
          /. 0.6)
      end
    done
end

let run_compiled ?kernel tech c ~input_slew ~load_cap =
  let kernel = match kernel with Some k -> k | None -> default_kernel () in
  match kernel with
  | Rk4 -> simulate_compiled tech c ~input_slew ~load_cap
  | Fast -> simulate_fast_compiled ~auto:false tech c ~input_slew ~load_cap
  | Auto -> (
    Metrics.incr m_auto_calls;
    match simulate_fast_compiled ~auto:true tech c ~input_slew ~load_cap with
    | r -> r
    | exception (Failure _ | Ramp_limited) ->
      note_auto_fallback ();
      simulate_compiled tech c ~input_slew ~load_cap)
