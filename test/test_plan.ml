(* Plan layer: precompiled sampling plans must be *bit-identical* to the
   unplanned per-sample-rebuild path — same RNG discipline, same draw
   order, same floating-point evaluation order — on every kernel and on
   every executor backend.  Plus the allocation contract: a per-sample
   fill+run must stay under a fixed minor-heap word budget, and filling
   a plan must allocate less than rebuilding the arc. *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Rng = Nsigma_stats.Rng
module Arc = Nsigma_spice.Arc
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Executor = Nsigma_exec.Executor
module Cell = Nsigma_liberty.Cell
module Characterize = Nsigma_liberty.Characterize
module Library = Nsigma_liberty.Library
module Netlist = Nsigma_netlist.Netlist
module Design = Nsigma_sta.Design
module Path = Nsigma_sta.Path
module Path_mc = Nsigma_sta.Path_mc

let tech = T.with_vdd T.default_28nm 0.6

let kernel_name = Cell_sim.kernel_name

let execs () =
  [ ("seq", Executor.sequential); ("pool2", Executor.domain_pool ~jobs:2 ()) ]

(* ---------- arc sampling: planned vs unplanned, bitwise ---------- *)

let check_bits ~what expected actual =
  Alcotest.(check int)
    (what ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      let a = actual.(i) in
      let same =
        (Float.is_nan e && Float.is_nan a)
        || Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float a)
      in
      if not same then
        Alcotest.failf "%s: sample %d differs: %h vs %h" what i e a)
    expected;
  ignore actual

let unplanned_delays ?kernel ~exec cell edge ~seed ~n ~input_slew ~load_cap () =
  let g = Rng.create ~seed in
  let results =
    Monte_carlo.arc_results ~exec ?kernel tech g ~n
      ~arc_of:(fun sample -> Cell.arc tech sample cell ~output_edge:edge)
      ~input_slew ~load_cap
  in
  Array.map
    (function
      | Some r -> r.Cell_sim.delay
      | None -> Float.nan)
    results

let test_arc_bit_identity () =
  let cells = [ Cell.make Inv ~strength:1; Cell.make Nand2 ~strength:2 ] in
  List.iter
    (fun kernel ->
      List.iter
        (fun (ename, exec) ->
          List.iter
            (fun cell ->
              List.iter
                (fun edge ->
                  let input_slew = 40e-12 in
                  let load_cap = Cell.fo4_load tech cell in
                  let expected =
                    unplanned_delays ~kernel ~exec:Executor.sequential cell edge
                      ~seed:42 ~n:200 ~input_slew ~load_cap ()
                  in
                  let g = Rng.create ~seed:42 in
                  let planned, slews =
                    Monte_carlo.arc_delays_planned ~exec ~kernel tech g ~n:200
                      ~plan:(fun () -> Cell.plan tech cell ~output_edge:edge)
                      ~input_slew ~load_cap
                  in
                  Alcotest.(check int) "slew buffer length" 200
                    (Array.length slews);
                  check_bits
                    ~what:
                      (Printf.sprintf "%s %s %s/%s" (Cell.name cell)
                         (match edge with `Rise -> "rise" | `Fall -> "fall")
                         (kernel_name kernel) ename)
                    expected planned)
                [ `Rise; `Fall ])
            cells)
        (execs ()))
    [ Cell_sim.Fast; Cell_sim.Rk4; Cell_sim.Auto ]

(* ---------- characterised tables across backends ---------- *)

let test_table_identity () =
  List.iter
    (fun kernel ->
      let table exec =
        Characterize.characterize ~n_mc:40 ~seed:5
          ~slews:[| 10e-12; 60e-12 |] ~loads:[| 0.5e-15; 2e-15 |] ~exec ~kernel
          tech
          (Cell.make Nand2 ~strength:1)
          ~edge:`Fall
      in
      let reference = table Executor.sequential in
      List.iter
        (fun (ename, exec) ->
          Alcotest.(check bool)
            (Printf.sprintf "table identical %s/%s" (kernel_name kernel) ename)
            true
            ((table exec).Characterize.points = reference.Characterize.points))
        (execs ()))
    [ Cell_sim.Fast; Cell_sim.Rk4 ]

(* ---------- path populations: planned vs rebuild-per-sample ---------- *)

let small_design () =
  let module Bm = Nsigma_netlist.Benchmarks in
  let module Engine = Nsigma_sta.Engine in
  let module Provider = Nsigma_sta.Provider in
  let bm = List.hd Bm.small_variants in
  let nl = bm.Bm.generate () in
  let design = Design.attach_parasitics tech nl in
  let used_cells =
    Array.to_list nl.Netlist.gates
    |> List.map (fun g -> g.Netlist.cell)
    |> List.sort_uniq compare
  in
  let lib = Nsigma_liberty.Library.characterize_all ~n_mc:60 tech used_cells in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  (design, Engine.critical_path report)

(* The rebuild-per-sample reference: exactly the loop [Path_mc.run] ran
   before the plan layer existed. *)
let unplanned_path_samples ~kernel ~steps ~n ~seed tech design path =
  let g = Rng.create ~seed in
  let out =
    Array.init n (fun i ->
        let sample = Variation.draw tech (Rng.derive g ~index:i) in
        match Path_mc.simulate_sample ~steps ~kernel tech design path sample with
        | d -> d
        | exception Failure _ -> Float.nan)
  in
  let kept = Array.to_list out |> List.filter (fun d -> not (Float.is_nan d)) in
  let arr = Array.of_list kept in
  Array.sort Float.compare arr;
  arr

let test_path_bit_identity () =
  let design, path = small_design () in
  List.iter
    (fun kernel ->
      let expected =
        unplanned_path_samples ~kernel ~steps:80 ~n:30 ~seed:11 tech design path
      in
      List.iter
        (fun (ename, exec) ->
          let r =
            Path_mc.run ~kernel ~steps:80 ~n:30 ~seed:11 ~exec tech design path
          in
          check_bits
            ~what:
              (Printf.sprintf "path population %s/%s" (kernel_name kernel) ename)
            expected r.Path_mc.samples)
        (execs ()))
    [ Cell_sim.Fast; Cell_sim.Rk4 ]

let test_per_wire_identity () =
  let design, path = small_design () in
  let quantiles exec =
    Path_mc.per_wire_quantiles ~kernel:Cell_sim.Fast ~n:25 ~seed:11 ~exec tech
      design path ~sigma:3
  in
  let reference = quantiles Executor.sequential in
  List.iter
    (fun (ename, exec) ->
      Alcotest.(check bool)
        (Printf.sprintf "per-wire quantiles identical on %s" ename)
        true
        (quantiles exec = reference))
    (execs ())

(* ---------- empty population: descriptive failure ---------- *)

let contains_substring msg sub =
  let lm = String.length msg and ls = String.length sub in
  ls > 0
  &&
  let rec scan i =
    if i + ls > lm then false
    else String.sub msg i ls = sub || scan (i + 1)
  in
  scan 0

let test_empty_population_failure () =
  let design, path = small_design () in
  match Path_mc.run ~n:0 ~exec:Executor.sequential tech design path with
  | (_ : Path_mc.stats) ->
    Alcotest.fail "expected Failure on an empty population"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S names some net of the design" msg)
      true
      (Array.exists (contains_substring msg)
         design.Design.netlist.Netlist.net_names)

(* ---------- allocation budget ---------- *)

let words_per_sample ~n f =
  let mw0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. mw0) /. float_of_int n

let check_budget what words budget =
  if words > budget then
    Alcotest.failf "%s allocates %.0f words/sample (budget %.0f)" what words
      budget

(* What the plan saves per sample is construction: [Arc.fill] refreshes
   the skeleton in place where the rebuild path builds a fresh arc and
   compiles it ([Cell.arc] + [Arc.compile]); both paths then run the
   same compiled loop.  That saving is checked directly, with the draw
   on both sides (dev profile: 76 vs 140 words/sample).  The planned RK4
   path gets an absolute ceiling ~2x above its dev-profile measurement
   (891 words/sample; the release profile is far lower), so a
   reintroduced per-step allocation trips it without wall-clock
   flakiness. *)
let test_allocation_budget () =
  let cell = Cell.make Nand2 ~strength:2 in
  let n = 200 in
  let input_slew = 40e-12 and load_cap = Cell.fo4_load tech cell in
  let base = Rng.create ~seed:4 in
  let draw i = Variation.draw tech (Rng.derive base ~index:i) in
  let sk = Cell.plan tech cell ~output_edge:`Rise in
  let filled =
    words_per_sample ~n (fun () ->
        for i = 0 to n - 1 do
          Arc.fill tech sk (draw i)
        done)
  in
  let rebuilt =
    words_per_sample ~n (fun () ->
        for i = 0 to n - 1 do
          ignore
            (Sys.opaque_identity
               (Arc.compile tech (Cell.arc tech (draw i) cell ~output_edge:`Rise)))
        done)
  in
  if filled >= rebuilt then
    Alcotest.failf
      "draw + Arc.fill allocates %.0f words/sample vs %.0f for draw + \
       Cell.arc + Arc.compile — the plan must save construction"
      filled rebuilt;
  let planned =
    words_per_sample ~n (fun () ->
        ignore
          (Monte_carlo.arc_delays_planned ~exec:Executor.sequential
             ~kernel:Cell_sim.Rk4 tech (Rng.create ~seed:9) ~n
             ~plan:(fun () -> Cell.plan tech cell ~output_edge:`Rise)
             ~input_slew ~load_cap))
  in
  check_budget "planned RK4 path" planned 1800.0

(* The per-sample path the characterisation workload runs: derive,
   draw, fill, then the Fast kernel on the filled plan.  Draw+fill is
   budgeted on its own so a regression is attributed to its layer.
   Ceilings sit ~2x above the dev-profile measurement (draw+fill 98,
   Fast planned path 413 words/sample), where [-opaque] keeps
   cross-module float calls boxed; the release profile allocates far
   less.  A generator with boxed int64 state words and a [float option]
   spare put draw+fill at 534 and the whole path at 878, so either
   regression trips these ceilings. *)
let fast_cell = Cell.make Aoi21 ~strength:2
let fast_plan () = Cell.plan tech fast_cell ~output_edge:`Fall
let fast_n = 400

let test_draw_fill_allocation_budget () =
  let sk = fast_plan () in
  let base = Rng.create ~seed:4 in
  check_budget "Variation.draw + Arc.fill"
    (words_per_sample ~n:fast_n (fun () ->
         for i = 0 to fast_n - 1 do
           Arc.fill tech sk (Variation.draw tech (Rng.derive base ~index:i))
         done))
    200.0

let test_fast_allocation_budget () =
  check_budget "Fast planned path"
    (words_per_sample ~n:fast_n (fun () ->
         ignore
           (Monte_carlo.arc_delays_planned ~exec:Executor.sequential
              ~kernel:Cell_sim.Fast tech (Rng.create ~seed:9) ~n:fast_n
              ~plan:fast_plan ~input_slew:40e-12
              ~load_cap:(Cell.fo4_load tech fast_cell))))
    800.0

let () =
  Alcotest.run "plan"
    [
      ( "arc",
        [
          Alcotest.test_case "planned = unplanned (bitwise)" `Quick
            test_arc_bit_identity;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
          Alcotest.test_case "draw+fill allocation budget" `Quick
            test_draw_fill_allocation_budget;
          Alcotest.test_case "fast allocation budget" `Quick
            test_fast_allocation_budget;
        ] );
      ( "table",
        [ Alcotest.test_case "identical across backends" `Quick
            test_table_identity ] );
      ( "path",
        [
          Alcotest.test_case "planned = unplanned (bitwise)" `Quick
            test_path_bit_identity;
          Alcotest.test_case "per-wire quantiles identical" `Quick
            test_per_wire_identity;
          Alcotest.test_case "empty population fails descriptively" `Quick
            test_empty_population_failure;
        ] );
    ]
