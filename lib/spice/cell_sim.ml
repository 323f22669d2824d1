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

(* A fast-path failure is counted, traced, logged and raised as
   [Failure] with its operating point ([Auto] falls back to RK4 on it). *)
let fast_failed ~input_slew ~load_cap what =
  Metrics.incr m_fast_failed;
  if Trace.enabled () then Trace.instant tr_fast_failed ();
  let msg =
    Printf.sprintf
      "Cell_sim.simulate_fast: %s (input_slew=%.3g s, load_cap=%.3g F)" what
      input_slew load_cap
  in
  Log.debug "%s" msg;
  failwith msg

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

(* ----- reference kernel: adaptive RK4 -----

   Both kernels take the arc in its compiled form ({!Arc.compile}, or a
   plan skeleton refilled per sample by {!Arc.fill}), so a Monte-Carlo
   plan skips per-sample construction.  The full-drive and per-gate
   invariants are hoisted through [Arc.drive_settled] /
   [Arc.set_gate]+[Arc.drive_gated], each bit-identical to [Arc.drive]
   at its gate (asserted by test_spice), and loop state stays unboxed:
   in one flat all-float record for RK4, whose [eval] closure shares it,
   and in local float refs for Fast, which has no closure. *)

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
  (* Ramp-phase step: resolve both the input ramp and the output time
     scale (estimated from the fully-on current at half swing) — the
     ramp window is where the input/output interaction lives, so it
     keeps fixed resolution. *)
  let i_half = Arc.drive_settled c ~travel:(vdd /. 2.0) in
  let t_out = cap *. vdd /. Float.max i_half 1e-12 in
  let dt_ramp = Float.min (input_slew /. spp) (t_out /. spp) in
  let du_step = vdd /. spp in
  let max_steps = 400 * steps_per_phase in
  let t50_in = input_slew /. 2.0 in
  let lvl20 = 0.2 *. vdd and lvl50 = 0.5 *. vdd and lvl80 = 0.8 *. vdd in
  let st = fresh_scratch () in
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
  (* du/dt at (t, u) in unified coordinates: the switching device's gate
     drive ramps 0 → vdd for either pull direction, and u is the
     distance the output has travelled from its starting rail (see
     {!Arc.drive}).  The settled gate reads the compile-time caches; a
     ramp gate is prepared once per distinct time point (k2/k3 share
     one, and a step's endpoint is reused as the next step's start). *)
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
  (* The 20%-travel level is crossed last; the loop exits as soon as it is
     recorded (the remaining exponential tail to the far rail is never
     integrated). *)
  while Float.is_nan st.s_t20 do
    if !steps >= max_steps then stuck ();
    incr steps;
    let t0 = st.s_t and u0 = st.s_u in
    let k1 = eval t0 u0 in
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
    let th = t0 +. h in
    let k2 = eval th (u0 +. (h *. k1)) in
    let k3 = eval th (u0 +. (h *. k2)) in
    let t1 = t0 +. dt in
    let k4 = eval t1 (u0 +. (dt *. k3)) in
    let u1 =
      Float.min vdd
        (u0 +. (dt /. 6.0 *. (k1 +. (2.0 *. k2) +. (2.0 *. k3) +. k4)))
    in
    (* u counts distance from the starting rail, so 20% travelled is the
       80% voltage point on a falling edge; record in travel terms. *)
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

(* ----- fast kernel: analytic effective current ----- *)

(* 3-point Gauss–Legendre nodes and weights on [0, 1]. *)
let gl_x = [| 0.1127016653792583; 0.5; 0.8872983346207417 |]
let gl_w = [| 0.2777777777777778; 0.4444444444444444; 0.2777777777777778 |]

(* Raised by [simulate_fast_compiled ~auto:true] in place of a ramp-
   limited result, so [run_compiled]'s Auto mode can fall back to RK4
   without the kernel returning a (result, flag) pair per call. *)
exception Ramp_limited

(* [pick k a b c] is the [k]-th of the three thresholds (or crossing
   times) kept in float lets; an indexed float array would be allocated
   per call. *)
let[@inline] pick k a b c = if k = 0 then a else if k = 1 then b else c

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
  if !next < 3 && !t < tau then
    fast_failed ~input_slew ~load_cap
      (Printf.sprintf "ramp stepping did not converge after %d steps" !guard);
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
          if ii <= 0.0 then
            fast_failed ~input_slew ~load_cap
              (Printf.sprintf "arc cannot drive the output past %.1f%% of swing"
                 (100.0 *. ui /. vdd));
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

let run_compiled ?kernel tech c ~input_slew ~load_cap =
  let kernel = match kernel with Some k -> k | None -> default_kernel () in
  match kernel with
  | Rk4 -> simulate_compiled tech c ~input_slew ~load_cap
  | Fast -> simulate_fast_compiled ~auto:false tech c ~input_slew ~load_cap
  | Auto -> (
    (* The fast path's separable-quadrature step assumes the 50% crossing
       happens after the input settles; when the transition is
       ramp-limited (or the fast path fails outright) fall back to the
       RK4 reference. *)
    Metrics.incr m_auto_calls;
    match simulate_fast_compiled ~auto:true tech c ~input_slew ~load_cap with
    | r -> r
    | exception (Failure _ | Ramp_limited) ->
      note_auto_fallback ();
      simulate_compiled tech c ~input_slew ~load_cap)

(* The [Arc.t] entry points compile the arc and run the same loops. *)
let simulate ?steps_per_phase tech arc ~input_slew ~load_cap =
  simulate_compiled ?steps_per_phase tech (Arc.compile tech arc) ~input_slew
    ~load_cap

let simulate_fast tech arc ~input_slew ~load_cap =
  simulate_fast_compiled ~auto:false tech (Arc.compile tech arc) ~input_slew
    ~load_cap

let run ?kernel tech arc ~input_slew ~load_cap =
  run_compiled ?kernel tech (Arc.compile tech arc) ~input_slew ~load_cap
