(* Tests for the transistor-level simulator: device physics sanity,
   arc/stack behaviour, transient convergence, RC engine vs. analytics. *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Rng = Nsigma_stats.Rng
module Moments = Nsigma_stats.Moments
module Device = Nsigma_spice.Device
module Arc = Nsigma_spice.Arc
module Cell_sim = Nsigma_spice.Cell_sim
module Rc_sim = Nsigma_spice.Rc_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6
let tech_nom = T.default_28nm

(* ---------- Device ---------- *)

let test_current_monotone_in_vgs () =
  let d = Device.nominal tech Device.Nmos ~width_mult:1.0 in
  let prev = ref 0.0 in
  List.iter
    (fun vgs ->
      let i = Device.current tech d ~vgs ~vds:0.3 in
      if i < !prev then Alcotest.failf "current decreased at vgs=%.2f" vgs;
      prev := i)
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ]

let test_current_zero_at_zero_vds () =
  let d = Device.nominal tech Device.Nmos ~width_mult:1.0 in
  check_close "no current at vds=0" 0.0 (Device.current tech d ~vgs:0.6 ~vds:0.0)

let test_current_scales_with_width () =
  let d1 = Device.nominal tech Device.Nmos ~width_mult:1.0 in
  let d4 = Device.nominal tech Device.Nmos ~width_mult:4.0 in
  let i1 = Device.current tech d1 ~vgs:0.6 ~vds:0.3 in
  let i4 = Device.current tech d4 ~vgs:0.6 ~vds:0.3 in
  check_close ~eps:1e-9 "4x width = 4x current" (4.0 *. i1) i4

let test_subthreshold_slope () =
  (* Below threshold the current should be ~exponential in Vgs:
     I(vgs + n·Ut·ln10) ≈ 10·I(vgs). *)
  let d = Device.nominal tech Device.Nmos ~width_mult:1.0 in
  let ut = T.thermal_voltage tech in
  let n = tech.T.subthreshold_n in
  let vgs = 0.10 in
  let i1 = Device.current tech d ~vgs ~vds:0.3 in
  let i2 = Device.current tech d ~vgs:(vgs +. (n *. ut *. log 10.0)) ~vds:0.3 in
  check_close ~eps:0.05 "decade per n·Ut·ln10" 10.0 (i2 /. i1)

let test_vth_shift_reduces_current () =
  let d = Device.nominal tech Device.Nmos ~width_mult:1.0 in
  let slow = { d with Device.vth = d.Device.vth +. 0.05 } in
  Alcotest.(check bool) "higher vth, less current" true
    (Device.current tech slow ~vgs:0.6 ~vds:0.3
    < Device.current tech d ~vgs:0.6 ~vds:0.3)

let test_caps_scale () =
  let d1 = Device.nominal tech Device.Nmos ~width_mult:1.0 in
  let d2 = Device.nominal tech Device.Nmos ~width_mult:2.0 in
  check_close "gate cap scales" (2.0 *. Device.gate_cap tech d1) (Device.gate_cap tech d2);
  check_close "drain cap scales" (2.0 *. Device.drain_cap tech d1)
    (Device.drain_cap tech d2)

(* ---------- Arc ---------- *)

let nominal_arc ?(pull = Arc.Pull_down) ?(depth = 1) ?(strength = 1.0) () =
  Arc.make tech Variation.nominal ~pull ~depth ~strength ()

let test_stack_depth_halves_current () =
  let a1 = nominal_arc () in
  let a2 = nominal_arc ~depth:2 () in
  let i1 = Arc.current tech a1 ~vin:0.6 ~vout:0.3 in
  let i2 = Arc.current tech a2 ~vin:0.6 ~vout:0.3 in
  Alcotest.(check bool) "stack of 2 drives roughly half" true
    (i2 < 0.75 *. i1 && i2 > 0.3 *. i1)

let test_arc_current_nonnegative () =
  let a = Arc.make tech Variation.nominal ~pull:Arc.Pull_down ~depth:1
      ~strength:1.0 ~opposing_width_mult:2.0 ()
  in
  (* Early in the input ramp the opposing PMOS dominates: clamped to 0. *)
  check_close "clamped" 0.0 (Arc.current tech a ~vin:0.05 ~vout:0.6)

let test_pull_up_symmetry () =
  let up = nominal_arc ~pull:Arc.Pull_up () in
  (* For a pull-up arc the output rises: current positive when vout<VDD
     and the input is low. *)
  Alcotest.(check bool) "pull-up drives" true
    (Arc.current tech up ~vin:0.0 ~vout:0.3 > 0.0);
  check_close "pull-up done at rail" 0.0 (Arc.current tech up ~vin:0.0 ~vout:0.6)

(* The sampling kernels evaluate the compiled arc through the hoisted
   forms only: [drive_settled] once the input has settled and
   [set_gate]+[drive_gated] during the ramp.  Both must reproduce
   [drive] bit for bit, for every library arc under variation and over
   the whole travel/gate range, rails included. *)
let test_hoisted_drive_bitwise () =
  let module Cell = Nsigma_liberty.Cell in
  let vdd = tech.T.vdd_nominal in
  let sweep = List.map (fun f -> f *. vdd) [ 0.0; 0.05; 0.2; 0.37; 0.5; 0.81; 0.95; 1.0 ] in
  let bits x = Int64.bits_of_float x in
  let same what expected actual =
    if not (Int64.equal (bits expected) (bits actual)) then
      Alcotest.failf "%s: %h vs %h" what expected actual
  in
  let base = Rng.create ~seed:23 in
  List.iter
    (fun kind ->
      List.iter
        (fun strength ->
          let cell = Cell.make kind ~strength in
          List.iter
            (fun edge ->
              let sk = Cell.plan tech cell ~output_edge:edge in
              for s = 0 to 3 do
                Arc.fill tech sk (Variation.draw tech (Rng.derive base ~index:s));
                let c = Arc.skeleton_compiled sk in
                let where = Printf.sprintf "%s %s sample %d" (Cell.name cell)
                    (match edge with `Rise -> "rise" | `Fall -> "fall") s
                in
                List.iter
                  (fun travel ->
                    same
                      (Printf.sprintf "%s drive_settled travel=%g" where travel)
                      (Arc.drive c ~gate:vdd ~travel)
                      (Arc.drive_settled c ~travel))
                  sweep;
                List.iter
                  (fun gate ->
                    Arc.set_gate c ~gate;
                    List.iter
                      (fun travel ->
                        same
                          (Printf.sprintf "%s drive_gated gate=%g travel=%g" where
                             gate travel)
                          (Arc.drive c ~gate ~travel)
                          (Arc.drive_gated c ~travel))
                      sweep)
                  sweep
              done)
            [ `Rise; `Fall ])
        Cell.standard_strengths)
    Cell.all_kinds

(* ---------- Cell_sim ---------- *)

let fo4_load = 4.0 *. (tech.T.width_n +. tech.T.width_p) *. tech.T.cap_gate_per_width

let test_delay_positive_and_finite () =
  let r = Cell_sim.simulate tech (nominal_arc ()) ~input_slew:10e-12 ~load_cap:fo4_load in
  Alcotest.(check bool) "delay positive" true (r.Cell_sim.delay > 0.0);
  Alcotest.(check bool) "plausible ps range" true
    (r.Cell_sim.delay > 1e-12 && r.Cell_sim.delay < 1e-9)

let test_delay_increases_with_load () =
  let arc = nominal_arc () in
  let d c = (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:c).Cell_sim.delay in
  Alcotest.(check bool) "monotone in load" true
    (d 0.5e-15 < d 2e-15 && d 2e-15 < d 8e-15)

let test_delay_increases_with_slew () =
  let arc = nominal_arc () in
  let d s = (Cell_sim.simulate tech arc ~input_slew:s ~load_cap:fo4_load).Cell_sim.delay in
  Alcotest.(check bool) "monotone in slew" true
    (d 10e-12 < d 100e-12 && d 100e-12 < d 300e-12)

let test_delay_decreases_with_vdd () =
  let d vdd =
    let t = T.with_vdd T.default_28nm vdd in
    let arc = Arc.make t Variation.nominal ~pull:Arc.Pull_down ~depth:1 ~strength:1.0 () in
    (Cell_sim.simulate t arc ~input_slew:10e-12 ~load_cap:fo4_load).Cell_sim.delay
  in
  Alcotest.(check bool) "faster at higher vdd" true (d 0.9 < d 0.7 && d 0.7 < d 0.5)

let test_step_convergence () =
  let arc = nominal_arc () in
  let d steps =
    (Cell_sim.simulate ~steps_per_phase:steps tech arc ~input_slew:25e-12
       ~load_cap:fo4_load).Cell_sim.delay
  in
  check_close ~eps:2e-3 "16 vs 128 steps" (d 128) (d 16)

let test_strength_speeds_up () =
  let d s =
    let arc = nominal_arc ~strength:s () in
    (* Load fixed: stronger arc must be faster. *)
    (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:4e-15).Cell_sim.delay
  in
  Alcotest.(check bool) "x4 faster than x1" true (d 4.0 < 0.5 *. d 1.0)

let test_rejects_bad_args () =
  let arc = nominal_arc () in
  Alcotest.check_raises "negative slew"
    (Invalid_argument "Cell_sim.simulate: slew must be positive") (fun () ->
      ignore (Cell_sim.simulate tech arc ~input_slew:(-1.0) ~load_cap:1e-15))

let test_stuck_failure_is_descriptive () =
  (* An opposing network far stronger than the stack clamps the net
     current to zero for almost the whole (very slow) input ramp: the
     step budget runs out with the output still at the rail, and the
     simulator must say so with the operating point, not a bare "did not
     converge". *)
  let arc =
    Arc.make tech Variation.nominal ~pull:Arc.Pull_down ~depth:1 ~strength:1.0
      ~opposing_width_mult:500.0 ()
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  match Cell_sim.simulate tech arc ~input_slew:1e-6 ~load_cap:fo4_load with
  | _ -> Alcotest.fail "expected the stuck output to raise"
  | exception Failure msg ->
      Alcotest.(check bool) "names the phase" true (contains msg "output stuck");
      Alcotest.(check bool) "reports the slew" true (contains msg "input_slew=");
      Alcotest.(check bool) "reports the load" true (contains msg "load_cap=")

let test_near_threshold_skew () =
  (* The motivating observation of the paper: at 0.6 V the delay
     distribution is right-skewed with a heavy tail. *)
  let g = Rng.create ~seed:71 in
  let delays =
    Monte_carlo.delays tech g ~n:2000 (fun sample ->
        let arc =
          Arc.make tech sample ~pull:Arc.Pull_down ~depth:1 ~strength:1.0 ()
        in
        (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:fo4_load).Cell_sim.delay)
  in
  let s = Moments.summary_of_array delays in
  Alcotest.(check bool) "positive skew" true (s.Moments.skewness > 0.3);
  Alcotest.(check bool) "heavier than gaussian tail" true (s.Moments.kurtosis > 3.2);
  Alcotest.(check bool) "sizable variability" true
    (s.Moments.std /. s.Moments.mean > 0.08)

let test_nominal_voltage_less_skewed () =
  let g = Rng.create ~seed:72 in
  let run t =
    let delays =
      Monte_carlo.delays t g ~n:2000 (fun sample ->
          let arc = Arc.make t sample ~pull:Arc.Pull_down ~depth:1 ~strength:1.0 () in
          (Cell_sim.simulate t arc ~input_slew:10e-12 ~load_cap:fo4_load).Cell_sim.delay)
    in
    Moments.summary_of_array delays
  in
  let near = run tech and nominal = run tech_nom in
  Alcotest.(check bool) "skew grows as vdd drops" true
    (near.Moments.skewness > nominal.Moments.skewness);
  Alcotest.(check bool) "cv grows as vdd drops" true
    (near.Moments.std /. near.Moments.mean
    > nominal.Moments.std /. nominal.Moments.mean)

let test_stack_averaging () =
  (* Pelgrom averaging: a depth-2 stack (with 2x-width devices) must show
     lower relative variability than the single device. *)
  let g = Rng.create ~seed:73 in
  let cv depth strength =
    let delays =
      Monte_carlo.delays tech g ~n:1500 (fun sample ->
          let arc = Arc.make tech sample ~pull:Arc.Pull_down ~depth ~strength () in
          (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:fo4_load).Cell_sim.delay)
    in
    let s = Moments.summary_of_array delays in
    s.Moments.std /. s.Moments.mean
  in
  Alcotest.(check bool) "stacked+wider averages mismatch" true
    (cv 2 2.0 < cv 1 1.0)

(* ---------- Rc_sim ---------- *)

let test_rc_matches_analytic_single_pole () =
  (* A single RC driven by a very strong driver: 50% step response at
     t = RC·ln2 after the root.  With an enormous driver the root rises
     almost instantly, so tap delay ≈ 0.69·RC. *)
  let r = 2000.0 and c = 20e-15 in
  let tree =
    Rctree.create
      ~nodes:
        [|
          { Rctree.name = "root"; parent = -1; res = 0.0; cap = 1e-18 };
          { Rctree.name = "tap"; parent = 0; res = r; cap = c };
        |]
      ~taps:[| 1 |]
  in
  let driver =
    Arc.make tech Variation.nominal ~pull:Arc.Pull_up ~depth:1 ~strength:64.0 ()
  in
  let result =
    Rc_sim.simulate ~steps:3000 tech ~driver ~tree ~load_caps:[] ~input_slew:1e-12
  in
  let wire = snd result.Rc_sim.tap_delays.(0) in
  check_close ~eps:0.08 "RC ln2" (r *. c *. log 2.0) wire

let test_rc_wire_delay_positive_and_ordered () =
  let tree = Rctree.ladder ~segments:6 ~res_per_seg:300.0 ~cap_per_seg:2e-15 in
  let driver =
    Arc.make tech Variation.nominal ~pull:Arc.Pull_up ~depth:1 ~strength:2.0 ()
  in
  let r = Rc_sim.simulate tech ~driver ~tree ~load_caps:[] ~input_slew:10e-12 in
  Alcotest.(check bool) "root crossing positive" true (r.Rc_sim.root_crossing > 0.0);
  Alcotest.(check bool) "tap delay positive" true (snd r.Rc_sim.tap_delays.(0) > 0.0);
  Alcotest.(check bool) "driver delay positive" true (r.Rc_sim.driver_delay > 0.0)

let test_rc_elmore_correlation () =
  (* The transient tap delay should be within a factor ~[0.4, 1.4] of
     Elmore (Elmore is an upper-ish bound for step response, and the
     driver adds source delay). *)
  let tree = Rctree.ladder ~segments:8 ~res_per_seg:500.0 ~cap_per_seg:3e-15 in
  let driver =
    Arc.make tech Variation.nominal ~pull:Arc.Pull_up ~depth:1 ~strength:8.0 ()
  in
  let wire =
    Rc_sim.wire_delay ~steps:1200 tech ~driver ~tree ~load_caps:[] ~input_slew:10e-12
  in
  let elmore = Elmore.delay_to_tap tree in
  let ratio = wire /. elmore in
  Alcotest.(check bool) "transient within Elmore band" true
    (ratio > 0.3 && ratio < 1.5)

let test_rc_driver_strength_effect () =
  let tree = Rctree.ladder ~segments:5 ~res_per_seg:400.0 ~cap_per_seg:2e-15 in
  let total tree_strength =
    let driver =
      Arc.make tech Variation.nominal ~pull:Arc.Pull_up ~depth:1
        ~strength:tree_strength ()
    in
    let r = Rc_sim.simulate tech ~driver ~tree ~load_caps:[] ~input_slew:10e-12 in
    r.Rc_sim.root_crossing +. snd r.Rc_sim.tap_delays.(0)
  in
  Alcotest.(check bool) "stronger driver, earlier tap arrival" true
    (total 8.0 < total 1.0)

let test_rc_load_slows_tap () =
  let tree = Rctree.ladder ~segments:5 ~res_per_seg:400.0 ~cap_per_seg:2e-15 in
  let driver =
    Arc.make tech Variation.nominal ~pull:Arc.Pull_up ~depth:1 ~strength:4.0 ()
  in
  let wire load =
    Rc_sim.wire_delay tech ~driver ~tree ~load_caps:[ (5, load) ] ~input_slew:10e-12
  in
  Alcotest.(check bool) "loaded tap slower" true (wire 4e-15 > wire 0.0)

let test_rc_tap_slew_reported () =
  let tree = Rctree.ladder ~segments:4 ~res_per_seg:300.0 ~cap_per_seg:2e-15 in
  let driver =
    Arc.make tech Variation.nominal ~pull:Arc.Pull_up ~depth:1 ~strength:2.0 ()
  in
  let r = Rc_sim.simulate tech ~driver ~tree ~load_caps:[] ~input_slew:10e-12 in
  Alcotest.(check bool) "tap slew positive" true (snd r.Rc_sim.tap_slews.(0) > 0.0)

(* ---------- Monte_carlo ---------- *)

let test_mc_reproducible () =
  let run () =
    let g = Rng.create ~seed:80 in
    Monte_carlo.delays tech g ~n:50 (fun sample ->
        let arc = Arc.make tech sample ~pull:Arc.Pull_down ~depth:1 ~strength:1.0 () in
        (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:fo4_load).Cell_sim.delay)
  in
  Alcotest.(check bool) "same seeds, same delays" true (run () = run ())

let test_mc_study_sorted () =
  let g = Rng.create ~seed:81 in
  let _, sorted =
    Monte_carlo.study tech g ~n:200 (fun sample ->
        let arc = Arc.make tech sample ~pull:Arc.Pull_down ~depth:1 ~strength:1.0 () in
        (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:fo4_load).Cell_sim.delay)
  in
  let ok = ref true in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) < sorted.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "study returns sorted samples" true !ok

let () =
  Alcotest.run "nsigma_spice"
    [
      ( "device",
        [
          Alcotest.test_case "monotone vgs" `Quick test_current_monotone_in_vgs;
          Alcotest.test_case "zero at vds=0" `Quick test_current_zero_at_zero_vds;
          Alcotest.test_case "width scaling" `Quick test_current_scales_with_width;
          Alcotest.test_case "subthreshold slope" `Quick test_subthreshold_slope;
          Alcotest.test_case "vth sensitivity" `Quick test_vth_shift_reduces_current;
          Alcotest.test_case "cap scaling" `Quick test_caps_scale;
        ] );
      ( "arc",
        [
          Alcotest.test_case "stack divides drive" `Quick test_stack_depth_halves_current;
          Alcotest.test_case "non-negative" `Quick test_arc_current_nonnegative;
          Alcotest.test_case "pull-up" `Quick test_pull_up_symmetry;
          Alcotest.test_case "hoisted drive = drive (bitwise)" `Quick
            test_hoisted_drive_bitwise;
        ] );
      ( "cell_sim",
        [
          Alcotest.test_case "positive finite" `Quick test_delay_positive_and_finite;
          Alcotest.test_case "monotone load" `Quick test_delay_increases_with_load;
          Alcotest.test_case "monotone slew" `Quick test_delay_increases_with_slew;
          Alcotest.test_case "vdd speedup" `Quick test_delay_decreases_with_vdd;
          Alcotest.test_case "step convergence" `Quick test_step_convergence;
          Alcotest.test_case "strength speedup" `Quick test_strength_speeds_up;
          Alcotest.test_case "argument checks" `Quick test_rejects_bad_args;
          Alcotest.test_case "stuck failure is descriptive" `Quick
            test_stuck_failure_is_descriptive;
          Alcotest.test_case "near-threshold skew" `Slow test_near_threshold_skew;
          Alcotest.test_case "vdd vs skew" `Slow test_nominal_voltage_less_skewed;
          Alcotest.test_case "stack averaging" `Slow test_stack_averaging;
        ] );
      ( "rc_sim",
        [
          Alcotest.test_case "single-pole RC" `Quick test_rc_matches_analytic_single_pole;
          Alcotest.test_case "positive delays" `Quick test_rc_wire_delay_positive_and_ordered;
          Alcotest.test_case "elmore band" `Quick test_rc_elmore_correlation;
          Alcotest.test_case "driver strength" `Quick test_rc_driver_strength_effect;
          Alcotest.test_case "load slows tap" `Quick test_rc_load_slows_tap;
          Alcotest.test_case "tap slew" `Quick test_rc_tap_slew_reported;
        ] );
      ( "monte_carlo",
        [
          Alcotest.test_case "reproducible" `Quick test_mc_reproducible;
          Alcotest.test_case "study sorted" `Quick test_mc_study_sorted;
        ] );
    ]
