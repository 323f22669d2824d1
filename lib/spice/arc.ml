module Technology = Nsigma_process.Technology
module Metrics = Nsigma_obs.Metrics

(* Plan-layer telemetry: skeleton compilation is the one-time cost, fill
   the per-sample cost.  Registered at module load so the keys appear
   (zero-valued) in every run report. *)
let t_plan_compile = Metrics.timer "plan.compile.seconds"
let t_plan_fill = Metrics.timer "plan.fill.seconds"
let m_plan_fills = Metrics.counter "plan.fills"

type pull = Pull_up | Pull_down

type t = {
  pull : pull;
  devices : Device.t array;
  parallel : int;
  switching : int;
  opposing : Device.t option;
  cap_intrinsic : float;
}

let make tech sample ~pull ~depth ~strength ?(parallel = 1) ?(switching = 0)
    ?(opposing_width_mult = 0.0) () =
  if depth <= 0 then invalid_arg "Arc.make: depth must be positive";
  if parallel <= 0 then invalid_arg "Arc.make: parallel must be positive";
  if switching < 0 || switching >= depth then
    invalid_arg "Arc.make: switching index out of range";
  let kind = match pull with Pull_up -> Device.Pmos | Pull_down -> Device.Nmos in
  let opposing_kind =
    match pull with Pull_up -> Device.Nmos | Pull_down -> Device.Pmos
  in
  let devices =
    Array.init depth (fun _ -> Device.make tech sample kind ~width_mult:strength)
  in
  let opposing =
    if opposing_width_mult > 0.0 then
      Some (Device.make tech sample opposing_kind ~width_mult:opposing_width_mult)
    else None
  in
  (* Drain parasitics: the output-side device of each parallel stack plus
     the opposing network's drains sit on the output node. *)
  let output_device = devices.(depth - 1) in
  let cap_intrinsic =
    (float_of_int parallel *. Device.drain_cap tech output_device)
    +. (match opposing with
       | Some d -> Device.drain_cap tech d
       | None -> 0.0)
  in
  { pull; devices; parallel; switching; opposing; cap_intrinsic }

(* Current of the series stack given the gate voltage of the switching
   device; the others are fully on.  [drop] is the total voltage across
   the stack; it divides evenly, and the source of device i sits i/n of
   the way up from the conducting rail. *)
let stack_current tech arc ~vswitch_gs ~vfull_gs ~drop =
  let n = Array.length arc.devices in
  let nf = float_of_int n in
  let vds = drop /. nf in
  if drop <= 0.0 then 0.0
  else begin
    let inv_sum = ref 0.0 in
    for i = 0 to n - 1 do
      (* Internal stack nodes stay near the conducting rail during the
         transition, so every device keeps its full gate drive; the
         drain-source drop is what divides across the stack. *)
      let vgs = if i = arc.switching then vswitch_gs else vfull_gs in
      let id = Device.current tech arc.devices.(i) ~vgs ~vds in
      inv_sum := !inv_sum +. (1.0 /. Float.max id 1e-15)
    done;
    float_of_int arc.parallel /. !inv_sum
  end

let current tech arc ~vin ~vout =
  let vdd = tech.Technology.vdd_nominal in
  let drive, short_circuit =
    match arc.pull with
    | Pull_down ->
      (* Output falls: NMOS stack conducts with gate at vin, drop = vout;
         the lumped PMOS (source at VDD, gate at vin) fights it. *)
      let drive =
        stack_current tech arc ~vswitch_gs:vin ~vfull_gs:vdd ~drop:vout
      in
      let sc =
        match arc.opposing with
        | Some p -> Device.current tech p ~vgs:(vdd -. vin) ~vds:(vdd -. vout)
        | None -> 0.0
      in
      (drive, sc)
    | Pull_up ->
      (* Output rises: PMOS stack conducts with source-referred gate drive
         VDD − vin, drop = VDD − vout; the lumped NMOS fights it. *)
      let drive =
        stack_current tech arc ~vswitch_gs:(vdd -. vin) ~vfull_gs:vdd
          ~drop:(vdd -. vout)
      in
      let sc =
        match arc.opposing with
        | Some n -> Device.current tech n ~vgs:vin ~vds:vout
        | None -> 0.0
      in
      (drive, sc)
  in
  Float.max 0.0 (drive -. short_circuit)

let input_cap tech arc = Device.gate_cap tech arc.devices.(arc.switching)

(* ----- compiled form ----- *)

(* Both pulls are the same ODE once expressed in (gate drive, travel):
   [gate] is the source-referred drive of the switching device (= vin for
   Pull_down, VDD − vin for Pull_up) and [travel] the distance the output
   has moved from its starting rail.  The stack drop is VDD − travel and
   divides evenly, so the per-device saturation and CLM terms factor out
   of the harmonic sum and the non-switching devices collapse into one
   precomputed constant [c_s_fixed] = Σ 1/(βWI_spec·f²) at full drive. *)
(* All-float record: stays flat (no per-field boxing), so refilling it in
   place per Monte-Carlo sample allocates nothing. *)
type compiled = {
  mutable c_vdd : float;
  mutable c_cap_intrinsic : float;
  mutable c_parallel : float;  (* parallel stack multiplicity *)
  mutable c_inv_depth : float;  (* 1/n: drop per series device *)
  mutable c_s_fixed : float;  (* harmonic weight of the fully-on devices *)
  mutable c_k_sw : float;  (* βWI_spec of the switching device *)
  mutable c_vth_sw : float;
  mutable c_inv_2nut : float;  (* 1/(2nU_T): inverse of twice the e-fold slope *)
  mutable c_nut : float;  (* nU_T *)
  mutable c_inv_ut : float;
  mutable c_inv_va : float;
  mutable c_k_opp : float;  (* βWI_spec of the opposing device; 0 when absent *)
  mutable c_vth_opp : float;
  (* Full-drive (gate = VDD) caches.  [c_den_on] is the settled harmonic
     denominator s_fixed + 1/max(k_sw·f_on², ·) and [c_kff_opp] the
     opposing prefactor k_opp·fo², both exactly the subexpressions
     [drive] evaluates at gate = VDD — hoisting them is a pure common-
     subexpression move, so [drive_settled] stays bit-identical. *)
  mutable c_den_on : float;
  mutable c_kff_opp : float;
  (* Per-gate caches written by [set_gate] and read by [drive_gated];
     invalidated (nan) whenever the compiled constants change. *)
  mutable c_g_den : float;
  mutable c_g_kff : float;
}

(* Recompute the constants of [arc] into [c] in place, allocating
   nothing.  [compile] is allocate-zeros + [compile_into] and [fill]
   refills through it, so a refilled record is bit-identical to a
   freshly compiled one. *)
let compile_into tech arc c =
  let vdd = tech.Technology.vdd_nominal in
  let ut = Technology.thermal_voltage tech in
  let nut = tech.Technology.subthreshold_n *. ut in
  let inv_2nut = 1.0 /. (2.0 *. nut) in
  let s_fixed = ref 0.0 in
  for i = 0 to Array.length arc.devices - 1 do
    if i <> arc.switching then begin
      let d = arc.devices.(i) in
      let f = Nsigma_stats.Special.log1p_exp ((vdd -. d.Device.vth) *. inv_2nut) in
      s_fixed := !s_fixed +. (1.0 /. Float.max (Device.i_factor tech d *. f *. f) 1e-30)
    end
  done;
  let sw = arc.devices.(arc.switching) in
  let k_opp, vth_opp =
    match arc.opposing with
    | Some d -> (Device.i_factor tech d, d.Device.vth)
    | None -> (0.0, 0.0)
  in
  let k_sw = Device.i_factor tech sw in
  let vth_sw = sw.Device.vth in
  c.c_vdd <- vdd;
  c.c_cap_intrinsic <- arc.cap_intrinsic;
  c.c_parallel <- float_of_int arc.parallel;
  c.c_inv_depth <- 1.0 /. float_of_int (Array.length arc.devices);
  c.c_s_fixed <- !s_fixed;
  c.c_k_sw <- k_sw;
  c.c_vth_sw <- vth_sw;
  c.c_inv_2nut <- inv_2nut;
  c.c_nut <- nut;
  c.c_inv_ut <- 1.0 /. ut;
  c.c_inv_va <- 1.0 /. tech.Technology.early_voltage;
  c.c_k_opp <- k_opp;
  c.c_vth_opp <- vth_opp;
  let f_on = Nsigma_stats.Special.log1p_exp ((vdd -. vth_sw) *. inv_2nut) in
  c.c_den_on <- !s_fixed +. (1.0 /. Float.max (k_sw *. f_on *. f_on) 1e-300);
  (if k_opp = 0.0 then c.c_kff_opp <- 0.0
   else begin
     let fo =
       Nsigma_stats.Special.log1p_exp ((vdd -. vdd -. vth_opp) *. inv_2nut)
     in
     c.c_kff_opp <- k_opp *. fo *. fo
   end);
  c.c_g_den <- Float.nan;
  c.c_g_kff <- Float.nan

let compile tech arc =
  let c =
    {
      c_vdd = 0.0;
      c_cap_intrinsic = 0.0;
      c_parallel = 0.0;
      c_inv_depth = 0.0;
      c_s_fixed = 0.0;
      c_k_sw = 0.0;
      c_vth_sw = 0.0;
      c_inv_2nut = 0.0;
      c_nut = 0.0;
      c_inv_ut = 0.0;
      c_inv_va = 0.0;
      c_k_opp = 0.0;
      c_vth_opp = 0.0;
      c_den_on = 0.0;
      c_kff_opp = 0.0;
      c_g_den = Float.nan;
      c_g_kff = Float.nan;
    }
  in
  compile_into tech arc c;
  c

let[@inline] vth_sw_of c = c.c_vth_sw
let[@inline] nut_of c = c.c_nut

let[@inline] cap_intrinsic_of c = c.c_cap_intrinsic

let[@inline] drive c ~gate ~travel =
  let drop = c.c_vdd -. travel in
  if drop <= 0.0 then 0.0
  else begin
    let vds = drop *. c.c_inv_depth in
    let sat = 1.0 -. exp (-.vds *. c.c_inv_ut) in
    let clm = 1.0 +. (vds *. c.c_inv_va) in
    let f = Nsigma_stats.Special.log1p_exp ((gate -. c.c_vth_sw) *. c.c_inv_2nut) in
    let stack =
      c.c_parallel *. sat *. clm
      /. (c.c_s_fixed +. (1.0 /. Float.max (c.c_k_sw *. f *. f) 1e-300))
    in
    let short_circuit =
      if c.c_k_opp = 0.0 || travel <= 0.0 then 0.0
      else begin
        let fo =
          Nsigma_stats.Special.log1p_exp
            ((c.c_vdd -. gate -. c.c_vth_opp) *. c.c_inv_2nut)
        in
        c.c_k_opp *. fo *. fo
        *. (1.0 -. exp (-.travel *. c.c_inv_ut))
        *. (1.0 +. (travel *. c.c_inv_va))
      end
    in
    Float.max 0.0 (stack -. short_circuit)
  end

(* [Stdlib.Float.max]/[min] route through [signbit] C calls to get the
   NaN and signed-zero cases right; at ~6 uses per RK4 step that is real
   time on the hot path.  The operands here are provably never NaN (all
   inputs are finite and no inf−inf or 0·inf form is reachable) and the
   literals are +0.0, so a plain comparison returns bit-identical
   values. *)
let[@inline] max_pos0 x = if x > 0.0 then x else 0.0
let[@inline] clamp_den x = if x >= 1e-300 then x else 1e-300

(* [drive c ~gate:c.c_vdd ~travel] with the gate-dependent factors taken
   from the caches [compile_into] fills.  The groupings mirror [drive]
   exactly — stack = ((parallel·sat)·clm)/den and short-circuit =
   ((((k·fo)·fo)·e1)·e2) — so the results are bit-identical. *)
let[@inline] drive_settled c ~travel =
  let drop = c.c_vdd -. travel in
  if drop <= 0.0 then 0.0
  else begin
    let vds = drop *. c.c_inv_depth in
    let sat = 1.0 -. exp (-.vds *. c.c_inv_ut) in
    let clm = 1.0 +. (vds *. c.c_inv_va) in
    let stack = c.c_parallel *. sat *. clm /. c.c_den_on in
    let short_circuit =
      if c.c_k_opp = 0.0 || travel <= 0.0 then 0.0
      else
        c.c_kff_opp
        *. (1.0 -. exp (-.travel *. c.c_inv_ut))
        *. (1.0 +. (travel *. c.c_inv_va))
    in
    max_pos0 (stack -. short_circuit)
  end

let[@inline] set_gate c ~gate =
  let f = Nsigma_stats.Special.log1p_exp ((gate -. c.c_vth_sw) *. c.c_inv_2nut) in
  c.c_g_den <- c.c_s_fixed +. (1.0 /. clamp_den (c.c_k_sw *. f *. f));
  if c.c_k_opp = 0.0 then c.c_g_kff <- 0.0
  else begin
    let fo =
      Nsigma_stats.Special.log1p_exp
        ((c.c_vdd -. gate -. c.c_vth_opp) *. c.c_inv_2nut)
    in
    c.c_g_kff <- c.c_k_opp *. fo *. fo
  end

let[@inline] drive_gated c ~travel =
  let drop = c.c_vdd -. travel in
  if drop <= 0.0 then 0.0
  else begin
    let vds = drop *. c.c_inv_depth in
    let sat = 1.0 -. exp (-.vds *. c.c_inv_ut) in
    let clm = 1.0 +. (vds *. c.c_inv_va) in
    let stack = c.c_parallel *. sat *. clm /. c.c_g_den in
    let short_circuit =
      if c.c_k_opp = 0.0 || travel <= 0.0 then 0.0
      else
        c.c_g_kff
        *. (1.0 -. exp (-.travel *. c.c_inv_ut))
        *. (1.0 +. (travel *. c.c_inv_va))
    in
    max_pos0 (stack -. short_circuit)
  end

(* ----- precompiled sampling plans ----- *)

type skeleton = { sk_arc : t; sk_compiled : compiled }

let skeleton tech ~pull ~depth ~strength ?(parallel = 1) ?(switching = 0)
    ?(opposing_width_mult = 0.0) () =
  if depth <= 0 then invalid_arg "Arc.skeleton: depth must be positive";
  if parallel <= 0 then invalid_arg "Arc.skeleton: parallel must be positive";
  if switching < 0 || switching >= depth then
    invalid_arg "Arc.skeleton: switching index out of range";
  let measuring = Metrics.enabled () in
  let t0 = if measuring then Metrics.now () else 0.0 in
  let kind = match pull with Pull_up -> Device.Pmos | Pull_down -> Device.Nmos in
  let opposing_kind =
    match pull with Pull_up -> Device.Nmos | Pull_down -> Device.Pmos
  in
  (* [Device.nominal] draws nothing, so building skeletons on worker
     domains cannot race on a shared RNG; [fill] supplies the variation. *)
  let devices =
    Array.init depth (fun _ -> Device.nominal tech kind ~width_mult:strength)
  in
  let opposing =
    if opposing_width_mult > 0.0 then
      Some (Device.nominal tech opposing_kind ~width_mult:opposing_width_mult)
    else None
  in
  let output_device = devices.(depth - 1) in
  (* Widths are variation-independent, so this matches [make] exactly. *)
  let cap_intrinsic =
    (float_of_int parallel *. Device.drain_cap tech output_device)
    +. (match opposing with
       | Some d -> Device.drain_cap tech d
       | None -> 0.0)
  in
  let arc = { pull; devices; parallel; switching; opposing; cap_intrinsic } in
  let sk = { sk_arc = arc; sk_compiled = compile tech arc } in
  if measuring then Metrics.add_time t_plan_compile (Metrics.now () -. t0);
  sk

let fill tech sk sample =
  let measuring = Metrics.enabled () in
  let t0 = if measuring then Metrics.now () else 0.0 in
  let arc = sk.sk_arc in
  let devices = arc.devices in
  (* Same draw order as [make]: stack devices rail-side first (ΔVth then
     Δβ each), then the opposing device. *)
  for i = 0 to Array.length devices - 1 do
    Device.refresh tech sample devices.(i)
  done;
  (match arc.opposing with
  | Some d -> Device.refresh tech sample d
  | None -> ());
  compile_into tech arc sk.sk_compiled;
  if measuring then begin
    Metrics.incr m_plan_fills;
    Metrics.add_time t_plan_fill (Metrics.now () -. t0)
  end

let skeleton_arc sk = sk.sk_arc
let skeleton_compiled sk = sk.sk_compiled

(* [fill] consumes exactly two local deviates per device (ΔVth, Δβ —
   [Device.refresh]), stack first then the opposing device. *)
let skeleton_local_dim sk =
  let arc = sk.sk_arc in
  2 * (Array.length arc.devices + (match arc.opposing with Some _ -> 1 | None -> 0))
