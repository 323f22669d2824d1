(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (DATE 2023, "A Novel Delay Calibration Method
   Considering Interaction between Cells and Wires").

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- table2       # one experiment
     dune exec bench/main.exe -- table3 c432 c1355

   Environment knobs:
     NSIGMA_BENCH_MC       library characterisation samples/point (default 3000)
     NSIGMA_BENCH_PATH_MC  path Monte-Carlo samples (default 500)
     NSIGMA_BENCH_CELL_MC  per-cell verification samples (default 8000)

   Performance is measured end to end by bench/e2e (bash bench/e2e/run.sh);
   this harness only regenerates the paper's evaluation.

   The library characterisation is cached in ./bench_cache_*.lvf; delete
   it to re-characterise.  Absolute numbers depend on the synthetic
   open28 technology; the comparisons against the paper check *shape*:
   who wins, by what rough factor, and where the errors sit. *)

module T = Nsigma_process.Technology
module Rng = Nsigma_stats.Rng
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Histogram = Nsigma_stats.Histogram
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Ch = Nsigma_liberty.Characterize
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Wire_gen = Nsigma_rcnet.Wire_gen
module N = Nsigma_netlist.Netlist
module Bm = Nsigma_netlist.Benchmarks
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Provider = Nsigma_sta.Provider
module Path = Nsigma_sta.Path
module Path_mc = Nsigma_sta.Path_mc
module Model = Nsigma.Model
module Cell_model = Nsigma.Cell_model
module Wire_model = Nsigma.Wire_model
module Wire_lab = Nsigma.Wire_lab
module Calibration = Nsigma.Calibration
module Executor = Nsigma_exec.Executor
module Obs_report = Nsigma_obs.Report
module Lsn = Nsigma_baselines.Lsn_model
module Burr = Nsigma_baselines.Burr_model
module Pt = Nsigma_baselines.Primetime_like
module Correction = Nsigma_baselines.Correction_model
module Ml = Nsigma_baselines.Ml_model

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with _ -> default)
  | None -> default

let lib_mc = env_int "NSIGMA_BENCH_MC" 3000
let path_mc_n = env_int "NSIGMA_BENCH_PATH_MC" 500
let cell_mc_n = env_int "NSIGMA_BENCH_CELL_MC" 8000

let tech = T.with_vdd T.default_28nm 0.6

let ps x = x *. 1e12
let pct x = 100.0 *. x
let err est ref_v = pct ((est -. ref_v) /. ref_v)

let header title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n%!"

let all_cells =
  List.concat_map
    (fun k -> List.map (fun s -> Cell.make k ~strength:s) Cell.standard_strengths)
    Cell.all_kinds

let the_library = ref None

let library () =
  match !the_library with
  | Some lib -> lib
  | None ->
    let path =
      Printf.sprintf "bench_cache_%.2fV_mc%d.lvf" tech.T.vdd_nominal lib_mc
    in
    Printf.printf "[library] loading or characterising %d cells x 2 edges (mc=%d)\n"
      (List.length all_cells) lib_mc;
    Printf.printf "[library] cache: %s (delete to re-characterise)\n%!" path;
    let t0 = Unix.gettimeofday () in
    let lib = Library.load_or_characterize ~n_mc:lib_mc ~path tech all_cells in
    Printf.printf "[library] ready in %.1fs\n%!" (Unix.gettimeofday () -. t0);
    the_library := Some lib;
    lib

let the_model = ref None

let model () =
  match !the_model with
  | Some m -> m
  | None ->
    let t0 = Unix.gettimeofday () in
    let m = Model.build (library ()) in
    Printf.printf
      "[model] N-sigma model fitted in %.1fs (wire scales a=%.3f b=%.3f)\n%!"
      (Unix.gettimeofday () -. t0)
      m.Model.wire.Wire_model.scale_fi m.Model.wire.Wire_model.scale_fo;
    the_model := Some m;
    m

(* MC population of one cell's worst falling arc at a given condition. *)
let cell_mc ?(n = cell_mc_n) ~seed cell ~slew ~load =
  let g = Rng.create ~seed in
  let delays =
    Monte_carlo.delays tech g ~n (fun sample ->
        let arc = Cell.arc tech sample cell ~output_edge:`Fall in
        (Cell_sim.simulate tech arc ~input_slew:slew ~load_cap:load).Cell_sim.delay)
  in
  Array.sort Float.compare delays;
  delays

let empirical delays sigma =
  Quantile.of_sorted delays (Quantile.probability_of_sigma (float_of_int sigma))

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* ------------------------------------------------------------------ *)
(* Fig. 2: inverter delay distribution vs supply voltage.              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Fig. 2 — INVX1 delay distribution vs VDD (paper: 0.5-0.8 V, 25 C)";
  let inv = Cell.make Cell.Inv ~strength:1 in
  Printf.printf "%6s %9s %9s %7s %7s %9s %9s\n" "VDD" "mu(ps)" "sig(ps)" "skew"
    "kurt" "-3s(ps)" "+3s(ps)";
  let results =
    List.map
      (fun vdd ->
        let t = T.with_vdd T.default_28nm vdd in
        let load = Cell.fo4_load t inv in
        let g = Rng.create ~seed:2 in
        let delays =
          Monte_carlo.delays t g ~n:4000 (fun sample ->
              let arc = Cell.arc t sample inv ~output_edge:`Fall in
              (Cell_sim.simulate t arc ~input_slew:10e-12 ~load_cap:load)
                .Cell_sim.delay)
        in
        Array.sort Float.compare delays;
        let s = Moments.summary_of_array delays in
        Printf.printf "%5.2fV %9.2f %9.2f %7.3f %7.3f %9.2f %9.2f\n%!" vdd
          (ps s.Moments.mean) (ps s.Moments.std) s.Moments.skewness
          s.Moments.kurtosis
          (ps (empirical delays (-3)))
          (ps (empirical delays 3));
        (vdd, s, delays))
      [ 0.8; 0.7; 0.6; 0.5 ]
  in
  List.iter
    (fun (vdd, _, delays) ->
      let h = Histogram.create ~bins:60 delays in
      Printf.printf "%.2fV |%s|\n" vdd (Histogram.sparkline ~width:60 h))
    results;
  let cvs =
    List.map (fun (_, s, _) -> s.Moments.std /. s.Moments.mean) results
  in
  let monotone =
    let rec go = function a :: (b :: _ as r) -> a <= b && go r | _ -> true in
    go cvs
  in
  let skew_at i = (fun (_, s, _) -> s.Moments.skewness) (List.nth results i) in
  Printf.printf
    "shape checks vs paper: sigma/mu grows monotonically as VDD drops: %b;\n\
     near-threshold (0.5 V) more skewed than nominal-ish (0.8 V): %b\n"
    monotone
    (skew_at 3 > skew_at 0)

(* ------------------------------------------------------------------ *)
(* Fig. 3: effect of skewness and kurtosis on the sigma levels.        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Fig. 3 — effect of gamma and kappa on the n-sigma quantiles";
  let m = model () in
  let base ~gamma ~kappa =
    {
      Moments.n = 10000;
      mean = 50e-12;
      std = 10e-12;
      skewness = gamma;
      kurtosis = kappa;
    }
  in
  let print_sweep label values make_moments =
    Printf.printf "%s\n%7s |" label "param";
    List.iter
      (fun n -> Printf.printf " %8s" (Printf.sprintf "T(%+ds)" n))
      Quantile.sigma_levels;
    Printf.printf "\n";
    List.iter
      (fun v ->
        Printf.printf "%7.2f |" v;
        List.iter
          (fun n ->
            Printf.printf " %8.2f"
              (ps (Cell_model.predict m.Model.cell_model (make_moments v) ~sigma:n)))
          Quantile.sigma_levels;
        Printf.printf "\n")
      values
  in
  print_sweep "(a) sweep skewness at kappa=4 (mu=50ps sigma=10ps)"
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ]
    (fun gamma -> base ~gamma ~kappa:4.0);
  Printf.printf "\n";
  print_sweep "(b) sweep kurtosis at gamma=0.8" [ 3.0; 4.0; 6.0; 8.0 ]
    (fun kappa -> base ~gamma:0.8 ~kappa);
  Printf.printf
    "\nshape check vs paper: gamma moves the inner levels, kappa spreads +/-3s.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4: moments of INVX1 vs input slew and output load.             *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Fig. 4 — INVX1 delay moments vs operating condition";
  let table =
    Library.find (library ()) (Cell.make Cell.Inv ~strength:1) ~edge:`Fall
  in
  Printf.printf "load fixed at C_ref=0.4fF, slew sweep (paper: purple curves):\n";
  Printf.printf "%9s %9s %9s %8s %8s\n" "slew(ps)" "mu(ps)" "sig(ps)" "gamma" "kappa";
  Array.iter
    (fun slew ->
      let m = Ch.moments_at table ~slew ~load:Ch.reference_load in
      Printf.printf "%9.0f %9.2f %9.2f %8.3f %8.3f\n" (ps slew) (ps m.Moments.mean)
        (ps m.Moments.std) m.Moments.skewness m.Moments.kurtosis)
    table.Ch.slews;
  Printf.printf "\nslew fixed at S_ref=10ps, load sweep (paper: blue curves):\n";
  Printf.printf "%9s %9s %9s %8s %8s\n" "load(fF)" "mu(ps)" "sig(ps)" "gamma" "kappa";
  Array.iter
    (fun load ->
      let m = Ch.moments_at table ~slew:Ch.reference_slew ~load in
      Printf.printf "%9.2f %9.2f %9.2f %8.3f %8.3f\n" (load *. 1e15)
        (ps m.Moments.mean) (ps m.Moments.std) m.Moments.skewness
        m.Moments.kurtosis)
    table.Ch.loads;
  Printf.printf
    "\nshape check vs paper: mu,sigma rise ~linearly; gamma,kappa vary non-monotonically.\n"

(* ------------------------------------------------------------------ *)
(* Table I: the fitted quantile-model coefficients.                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I — fitted N-sigma quantile model";
  Format.printf "%a@." Cell_model.pp (model ()).Model.cell_model

(* ------------------------------------------------------------------ *)
(* Table II: +/-3 sigma cell delay accuracy, ours vs LSN vs Burr.      *)
(* ------------------------------------------------------------------ *)

let table2_cells =
  List.concat_map
    (fun kind -> List.map (fun s -> Cell.make kind ~strength:s) [ 1; 2; 4; 8 ])
    [ Cell.Nor2; Cell.Nand2; Cell.Aoi21 ]

let table2 () =
  header "Table II — accuracy of estimating the +/-3s cell delay (FO4, 0.6 V)";
  let lib = library () in
  let m = model () in
  Printf.printf
    "every model is deployed from the characterised library (as in a real\n\
     flow) and verified against fresh %d-sample SPICE MC per cell.\n" cell_mc_n;
  Printf.printf "%-9s | %6s %6s | %6s %6s | %6s %6s   (all errors %%)\n" "cell"
    "LSN-3" "LSN+3" "Burr-3" "Burr+3" "ours-3" "ours+3";
  let sums = Array.make 6 0.0 in
  let count = ref 0 in
  List.iter
    (fun cell ->
      let load = Cell.fo4_load tech cell in
      let delays =
        cell_mc ~seed:(Hashtbl.hash (Cell.name cell)) cell ~slew:Ch.reference_slew
          ~load
      in
      let mc_m3 = empirical delays (-3) and mc_p3 = empirical delays 3 in
      (* Deployment forms: LSN from the characterised linear moments,
         Burr from the characterised quantiles, ours from moments + the
         fitted Table-I coefficients. *)
      let table = Library.find lib cell ~edge:`Fall in
      let point = Ch.point_at table ~slew:Ch.reference_slew ~load in
      let lsn = Lsn.fit_moments point.Ch.moments in
      let probs =
        List.map
          (fun n -> Quantile.probability_of_sigma (float_of_int n))
          Quantile.sigma_levels
      in
      let burr =
        Burr.fit_quantiles
          (List.mapi (fun i p -> (p, point.Ch.quantiles.(i))) probs)
      in
      let ours sigma =
        Model.cell_quantile m cell ~edge:`Fall ~input_slew:Ch.reference_slew
          ~load_cap:load ~sigma
      in
      let e =
        [|
          Float.abs (err (Lsn.quantile lsn ~sigma:(-3)) mc_m3);
          Float.abs (err (Lsn.quantile lsn ~sigma:3) mc_p3);
          Float.abs (err (Burr.quantile burr ~sigma:(-3)) mc_m3);
          Float.abs (err (Burr.quantile burr ~sigma:3) mc_p3);
          Float.abs (err (ours (-3)) mc_m3);
          Float.abs (err (ours 3) mc_p3);
        |]
      in
      Array.iteri (fun i v -> sums.(i) <- sums.(i) +. v) e;
      incr count;
      Printf.printf "%-9s | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f\n%!"
        (Cell.name cell) e.(0) e.(1) e.(2) e.(3) e.(4) e.(5))
    table2_cells;
  let n = float_of_int !count in
  Printf.printf "%-9s | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f\n" "Avg."
    (sums.(0) /. n) (sums.(1) /. n)
    (sums.(2) /. n)
    (sums.(3) /. n)
    (sums.(4) /. n)
    (sums.(5) /. n);
  Printf.printf "paper Avg. |   5.50   7.67 |  12.42  10.55 |   2.03   2.73\n";
  Printf.printf "shape checks: ours beats Burr on both tails: %b; ours +3s under 3%%: %b\n"
    (sums.(4) < sums.(2) && sums.(5) < sums.(3))
    (sums.(5) /. n < 3.0);
  Printf.printf
    "note: LSN outperforms its paper numbers here because the open28 delay\n\
     population is close to exactly log-skew-normal (see EXPERIMENTS.md).\n"

(* ------------------------------------------------------------------ *)
(* Fig. 7: Elmore vs transient MC wire delay distribution.             *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Fig. 7 — Elmore delay vs the wire delay distribution";
  let tree = Wire_gen.point_to_point tech ~length_um:150.0 ~segments:10 in
  let driver = Cell.make Cell.Inv ~strength:4 in
  let load = Cell.make Cell.Inv ~strength:4 in
  let meas = Wire_lab.measure ~n:3000 ~seed:7 tech ~tree ~driver ~load () in
  let s = meas.Wire_lab.moments in
  Printf.printf "150um route, INVX4 driver and load:\n";
  Printf.printf "  Elmore          : %7.2f ps\n" (ps meas.Wire_lab.elmore);
  Printf.printf "  MC mean         : %7.2f ps\n" (ps s.Moments.mean);
  Printf.printf "  MC sigma        : %7.2f ps  (sig/mu = %.1f%%)\n"
    (ps s.Moments.std)
    (pct (Wire_lab.variability meas));
  Printf.printf "  MC +3s quantile : %7.2f ps\n"
    (ps (Wire_lab.quantile meas ~sigma:3));
  Printf.printf "  Elmore error vs +3s: %.1f%%\n"
    (err meas.Wire_lab.elmore (Wire_lab.quantile meas ~sigma:3));
  let h = Histogram.create ~bins:60 meas.Wire_lab.samples in
  Printf.printf "  PDF |%s|\n" (Histogram.sparkline ~width:60 h);
  Printf.printf
    "shape check vs paper: Elmore sits well below +3s (paper: 22.19 vs 31.65 ps).\n"

(* ------------------------------------------------------------------ *)
(* Fig. 8: wire delay distribution vs driver/load strengths.           *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "Fig. 8 — wire delay distribution vs driver/load strength (1, 2, 4)";
  let tree = Wire_gen.point_to_point tech ~length_um:120.0 ~segments:8 in
  Printf.printf "%8s %8s | %9s %9s %10s\n" "driver" "load" "mu(ps)" "sig(ps)"
    "sig/mu(%)";
  let rows =
    List.map
      (fun (ds, ls) ->
        let driver = Cell.make Cell.Inv ~strength:ds in
        let load = Cell.make Cell.Inv ~strength:ls in
        let meas =
          Wire_lab.measure ~n:1200 ~seed:(8 + ds + (10 * ls)) tech ~tree ~driver
            ~load ()
        in
        let s = meas.Wire_lab.moments in
        Printf.printf "%8s %8s | %9.2f %9.2f %10.2f\n%!"
          (Printf.sprintf "INVX%d" ds)
          (Printf.sprintf "INVX%d" ls)
          (ps s.Moments.mean) (ps s.Moments.std)
          (pct (Wire_lab.variability meas));
        ((ds, ls), Wire_lab.variability meas))
      [ (1, 1); (2, 1); (4, 1); (1, 2); (1, 4); (2, 2); (4, 4) ]
  in
  let v d l = List.assoc (d, l) rows in
  Printf.printf
    "shape check vs paper: variability falls with driver strength (%b) and\n"
    (v 4 1 < v 1 1);
  Printf.printf "rises with load strength (%b).\n" (v 1 4 > v 1 1)

(* ------------------------------------------------------------------ *)
(* Fig. 9: errors in estimating X_FI and X_FO.                         *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Fig. 9 — X_FI / X_FO estimation errors (FO1/FO2/FO4/FO8)";
  let m = model () in
  let wm = m.Model.wire in
  let g = Rng.create ~seed:9 in
  let trees =
    List.init 5 (fun _ -> Wire_gen.random_tree tech Wire_gen.default_spec (Rng.split g))
  in
  let fo4 = Cell.make Cell.Inv ~strength:4 in
  let r4 = wm.Wire_model.ratio_fo4 in
  (* Measure the mean wire variability with the cell under test as driver
     (load fixed FO4) or as load (driver fixed FO4), then invert eq. (7)
     to recover the implied X; compare with the library-calibrated X. *)
  let recover_x ~as_driver strength =
    let cell = Cell.make Cell.Inv ~strength in
    let vs =
      List.mapi
        (fun k tree ->
          let driver = if as_driver then cell else fo4 in
          let load = if as_driver then fo4 else cell in
          let meas =
            Wire_lab.measure ~n:800 ~seed:(90 + k + strength) tech ~tree ~driver
              ~load ()
          in
          Wire_lab.variability meas)
        trees
    in
    let mean_v = avg vs in
    let x4 = Wire_model.x_of wm fo4 in
    let fixed_term =
      if as_driver then wm.Wire_model.scale_fo *. x4 *. x4 *. r4
      else wm.Wire_model.scale_fi *. x4 *. x4 *. r4
    in
    let scale =
      if as_driver then wm.Wire_model.scale_fi else wm.Wire_model.scale_fo
    in
    let x2 = Float.max 0.0 ((mean_v -. fixed_term) /. (scale *. r4)) in
    sqrt x2
  in
  Printf.printf "%9s | %8s %8s %7s | %8s %8s %7s\n" "strength" "X_FI.lib"
    "X_FI.mc" "err%" "X_FO.lib" "X_FO.mc" "err%";
  let e_fi = ref [] and e_fo = ref [] in
  List.iter
    (fun s ->
      let cell = Cell.make Cell.Inv ~strength:s in
      let x_lib = Wire_model.x_of wm cell in
      let x_fi_mc = recover_x ~as_driver:true s in
      let x_fo_mc = recover_x ~as_driver:false s in
      let efi = Float.abs (err x_lib x_fi_mc) in
      let efo = Float.abs (err x_lib x_fo_mc) in
      e_fi := efi :: !e_fi;
      e_fo := efo :: !e_fo;
      Printf.printf "%9s | %8.3f %8.3f %7.2f | %8.3f %8.3f %7.2f\n%!"
        (Printf.sprintf "INVX%d" s)
        x_lib x_fi_mc efi x_lib x_fo_mc efo)
    [ 1; 2; 4; 8 ];
  Printf.printf "avg X_FI err %.2f%%  X_FO err %.2f%%  (paper: 1.92%% / 3.31%%)\n"
    (avg !e_fi) (avg !e_fo)

(* ------------------------------------------------------------------ *)
(* Fig. 10: accuracy of the +/-3s wire delay model on random nets.     *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Fig. 10 — +/-3s wire delay accuracy of the N-sigma wire model";
  let m = model () in
  let g = Rng.create ~seed:10 in
  let strengths = [ 1; 2; 4; 8 ] in
  let trees =
    List.init 5 (fun _ -> Wire_gen.random_tree tech Wire_gen.default_spec (Rng.split g))
  in
  let errors_m3 = ref [] and errors_p3 = ref [] and errors_elmore = ref [] in
  Printf.printf "%5s %6s %6s | %8s %8s %8s | %7s %7s\n" "net" "drv" "load"
    "MC+3s" "ours+3s" "elmore" "e+3s%" "e-3s%";
  List.iteri
    (fun ti tree ->
      List.iter
        (fun (ds, ls) ->
          let driver = Cell.make Cell.Inv ~strength:ds in
          let load = Cell.make Cell.Inv ~strength:ls in
          let meas =
            Wire_lab.measure ~n:800 ~seed:(100 + ti + ds + (3 * ls)) tech ~tree
              ~driver ~load ()
          in
          let tap = tree.Rctree.taps.(0) in
          let loaded = Rctree.add_cap tree tap (Cell.input_cap tech load) in
          let elmore = Elmore.delay_at loaded tap in
          let ours sigma =
            Wire_model.quantile m.Model.wire ~elmore ~driver ~load:(Some load)
              ~sigma
          in
          let mc_p3 = Wire_lab.quantile meas ~sigma:3 in
          let mc_m3 = Wire_lab.quantile meas ~sigma:(-3) in
          let ep3 = Float.abs (err (ours 3) mc_p3) in
          let em3 = Float.abs (err (ours (-3)) mc_m3) in
          errors_p3 := ep3 :: !errors_p3;
          errors_m3 := em3 :: !errors_m3;
          errors_elmore := Float.abs (err elmore mc_p3) :: !errors_elmore;
          if ds = ls then
            Printf.printf "%5d %6d %6d | %8.2f %8.2f %8.2f | %7.2f %7.2f\n%!" ti
              ds ls (ps mc_p3)
              (ps (ours 3))
              (ps elmore) ep3 em3)
        (List.concat_map (fun a -> List.map (fun b -> (a, b)) strengths) strengths))
    trees;
  Printf.printf
    "\navg |err|: ours -3s %.2f%%  ours +3s %.2f%%  (paper: 1.61%% / 2.39%%)\n"
    (avg !errors_m3) (avg !errors_p3);
  Printf.printf
    "avg |err| of raw Elmore vs MC +3s: %.2f%% (ours should be far lower)\n"
    (avg !errors_elmore)

(* ------------------------------------------------------------------ *)
(* Fig. 11: per-wire +3s delay along the c432 critical path.           *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Fig. 11 — +3s delay of each wire on the c432 critical path";
  let lib = library () in
  let m = model () in
  let nl = (Bm.find "c432").Bm.generate () in
  (* The paper's Fig. 11 wires carry 5-30 ps (post-layout routes); use a
     sparser floorplan than the default local-net lengths so per-wire
     relative errors are about measurable delays, not sub-ps noise. *)
  let design =
    Design.attach_parasitics ~backbone_um:(40.0, 160.0) ~stub_um:(5.0, 15.0)
      tech nl
  in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  let path = Engine.critical_path report in
  Printf.printf "critical path: %d stages\n" (Path.n_stages path);
  let n_mc = min 400 path_mc_n in
  Printf.printf "MC per-wire quantiles (%d samples)...\n%!" n_mc;
  let mc_wires =
    Path_mc.per_wire_quantiles ~n:n_mc ~steps:160 tech design path ~sigma:3
  in
  let nlg = design.Design.netlist in
  let hops = Array.of_list path.Path.hops in
  let model_wire i =
    let hop = hops.(i) in
    let driver = nlg.N.gates.(hop.Path.gate).N.cell in
    let tap, load =
      if i + 1 < Array.length hops then
        (hops.(i + 1).Path.tap, Some nlg.N.gates.(hops.(i + 1).Path.gate).N.cell)
      else (path.Path.end_tap, None)
    in
    let tree = Design.loaded_parasitic tech design ~net:hop.Path.out_net in
    let elmore = Elmore.delay_at tree tap in
    (Wire_model.quantile m.Model.wire ~elmore ~driver ~load ~sigma:3, elmore)
  in
  Printf.printf "%6s | %9s %9s %9s | %7s %7s\n" "wire" "MC+3s" "ours" "elmore"
    "ours%" "elm%";
  let e_ours = ref [] and e_elm = ref [] in
  List.iteri
    (fun i mc ->
      let ours, elmore = model_wire i in
      let eo = err ours mc and ee = err elmore mc in
      e_ours := Float.abs eo :: !e_ours;
      e_elm := Float.abs ee :: !e_elm;
      if i < 12 then
        Printf.printf "%6d | %9.3f %9.3f %9.3f | %7.1f %7.1f\n" i (ps mc) (ps ours)
          (ps elmore) eo ee)
    mc_wires;
  Printf.printf "avg |err| over %d wires: ours %.1f%%, Elmore %.1f%%\n"
    (List.length mc_wires) (avg !e_ours) (avg !e_elm);
  Printf.printf "shape check vs paper: ours tracks MC far closer than Elmore: %b\n"
    (avg !e_ours < avg !e_elm)

(* ------------------------------------------------------------------ *)
(* Table III: path delay analysis across the benchmark suite.          *)
(* ------------------------------------------------------------------ *)

let table3 ?(circuits = List.map (fun b -> b.Bm.name) Bm.all) () =
  header "Table III — path delay analysis (ISCAS85 + PULPino units)";
  let lib = library () in
  let m = model () in
  Printf.printf "[ml] training the ML wire baseline...\n%!";
  let ml3, ml_stats = Ml.train ~n_configs:80 ~mc_per_config:120 tech ~sigma:3 in
  Printf.printf "[ml] %d configs, %.1fs training, final loss %.4f\n%!"
    ml_stats.Ml.n_configs ml_stats.Ml.train_seconds ml_stats.Ml.final_loss;
  let corr = Correction.calibrate ~n_reference:20 tech lib in
  Printf.printf
    "\n%-6s %6s %6s | %8s %8s | %7s %7s %7s %7s %7s | %8s %8s | %6s\n" "path"
    "#nets" "#cells" "MC-3s" "MC+3s" "PT%" "ML%" "Corr%" "our-3%" "our+3%"
    "MCtime" "ourtime" "spdup";
  let agg = Array.make 5 0.0 in
  let agg_n = ref 0 in
  let total_mc_time = ref 0.0 and total_our_time = ref 0.0 in
  List.iter
    (fun name ->
      match Bm.find name with
      | exception Not_found ->
        Printf.printf "%-6s unknown circuit, skipped\n" name
      | bm ->
        let nl = bm.Bm.generate () in
        let design = Design.attach_parasitics tech nl in
        let report = Engine.analyze tech (Provider.nominal lib) design in
        let path = Engine.critical_path report in
        let t0 = Unix.gettimeofday () in
        let mc = Path_mc.run ~n:path_mc_n ~steps:160 tech design path in
        let mc_time = Unix.gettimeofday () -. t0 in
        let mc_m3 = mc.Path_mc.quantile (-3) and mc_p3 = mc.Path_mc.quantile 3 in
        let t1 = Unix.gettimeofday () in
        let our_m3 = Model.path_quantile_of_path m design path ~sigma:(-3) in
        let our_p3 = Model.path_quantile_of_path m design path ~sigma:3 in
        let our_time = Unix.gettimeofday () -. t1 in
        let pt3 =
          Engine.circuit_delay
            (Engine.analyze tech (Pt.provider lib ~sigma:3 ()) design)
        in
        let mlq =
          Engine.circuit_delay
            (Engine.analyze tech (Ml.provider ml3 lib ~sigma:3) design)
        in
        let corr3 =
          Engine.circuit_delay
            (Engine.analyze tech (Correction.provider corr lib ~sigma:3) design)
        in
        let e =
          [|
            err pt3 mc_p3; err mlq mc_p3; err corr3 mc_p3; err our_m3 mc_m3;
            err our_p3 mc_p3;
          |]
        in
        Array.iteri (fun i v -> agg.(i) <- agg.(i) +. Float.abs v) e;
        incr agg_n;
        total_mc_time := !total_mc_time +. mc_time;
        total_our_time := !total_our_time +. our_time;
        Printf.printf
          "%-6s %6d %6d | %8.0f %8.0f | %7.1f %7.1f %7.1f %7.1f %7.1f | %7.1fs %7.3fs | %5.0fx\n"
          bm.Bm.name nl.N.n_nets (N.n_cells nl) (ps mc_m3) (ps mc_p3) e.(0) e.(1)
          e.(2) e.(3) e.(4) mc_time our_time
          (mc_time /. Float.max 1e-6 our_time);
        Printf.printf
          "        paper: MC %.0f/%.0f ps, our errors %.1f%%/%.1f%%\n%!"
          bm.Bm.paper.Bm.p_mc_m3 bm.Bm.paper.Bm.p_mc_p3
          bm.Bm.paper.Bm.p_err_ours_m3 bm.Bm.paper.Bm.p_err_ours_p3)
    circuits;
  if !agg_n > 0 then begin
    let n = float_of_int !agg_n in
    Printf.printf
      "\nAvg |err|: PT %.1f%%  ML %.1f%%  Corr %.1f%%  ours -3s %.1f%% +3s %.1f%%\n"
      (agg.(0) /. n) (agg.(1) /. n) (agg.(2) /. n) (agg.(3) /. n) (agg.(4) /. n);
    Printf.printf "paper Avg: PT 31.4%%  ML 18.3%%  Corr 11.7%%  ours 5.6%% / 3.6%%\n";
    Printf.printf
      "ordering check (ours best, flat-derate corner worst): %b\n"
      (agg.(4) < Float.min agg.(1) agg.(2)
      && Float.max agg.(1) agg.(2) < agg.(0));
    Printf.printf "aggregate speedup over path MC: %.0fx (paper: 103x)\n"
      (!total_mc_time /. Float.max 1e-6 !total_our_time)
  end

(* ------------------------------------------------------------------ *)
(* Speedup: the 103x headline on one circuit.                          *)
(* ------------------------------------------------------------------ *)

let speedup () =
  header "Speedup — N-sigma model vs path Monte-Carlo (c432)";
  let lib = library () in
  let m = model () in
  let nl = (Bm.find "c432").Bm.generate () in
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  let path = Engine.critical_path report in
  let t0 = Unix.gettimeofday () in
  let _ = Path_mc.run ~n:path_mc_n ~steps:160 tech design path in
  let mc_time = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let reps = 20 in
  for _ = 1 to reps do
    ignore (Model.path_quantile_of_path m design path ~sigma:3);
    ignore (Model.path_quantile_of_path m design path ~sigma:(-3))
  done;
  let our_time = (Unix.gettimeofday () -. t1) /. float_of_int reps in
  Printf.printf
    "path MC (%d samples): %.2fs;  model (+/-3s): %.4fs;  speedup %.0fx\n"
    path_mc_n mc_time our_time
    (mc_time /. Float.max 1e-9 our_time);
  Printf.printf "(paper reports 103x over its SPICE MC)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices called out in DESIGN.md.            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablations";
  let lib = library () in
  let m = model () in
  let observations =
    List.concat_map
      (fun (cell, edge) ->
        let table = Library.find lib cell ~edge in
        Array.to_list table.Ch.points
        |> List.concat_map (fun row ->
               Array.to_list row
               |> List.map (fun (p : Ch.point) ->
                      {
                        Cell_model.moments = p.Ch.moments;
                        quantiles = p.Ch.quantiles;
                      })))
      (Library.cells lib)
  in
  let eval_model name cm =
    let conditions =
      [
        (Cell.make Cell.Nand2 ~strength:1, 60e-12, 1.5e-15);
        (Cell.make Cell.Nor2 ~strength:2, 30e-12, 2.5e-15);
        (Cell.make Cell.Aoi21 ~strength:4, 120e-12, 8e-15);
      ]
    in
    let errs_m3 = ref [] and errs_p3 = ref [] in
    List.iter
      (fun (cell, slew, load) ->
        let delays =
          cell_mc ~n:5000 ~seed:(Hashtbl.hash (name, Cell.name cell)) cell ~slew
            ~load
        in
        let calib = Model.calibration m cell ~edge:`Fall in
        let moments = Calibration.moments_at calib ~slew ~load in
        let q sigma = Cell_model.predict cm moments ~sigma in
        errs_m3 := Float.abs (err (q (-3)) (empirical delays (-3))) :: !errs_m3;
        errs_p3 := Float.abs (err (q 3) (empirical delays 3)) :: !errs_p3)
      conditions;
    Printf.printf "  %-28s  -3s %.2f%%  +3s %.2f%%\n%!" name (avg !errs_m3)
      (avg !errs_p3)
  in
  Printf.printf "(a) Table-I feature sets (held-out cell quantile error):\n";
  eval_model "paper Table I" m.Model.cell_model;
  let no_cross n =
    List.filter (fun t -> t <> Cell_model.Gamma_kappa) (Cell_model.terms_for_level n)
  in
  eval_model "without gamma*kappa term"
    (Cell_model.fit ~terms_for:no_cross observations);
  let extended n =
    let base = Cell_model.terms_for_level n in
    if abs n = 3 && not (List.mem Cell_model.Sigma_gamma base) then
      Cell_model.Sigma_gamma :: base
    else base
  in
  eval_model "extended (+ sg at +/-3s)"
    (Cell_model.fit ~terms_for:extended observations);
  let gaussian_only (_ : int) = [] in
  eval_model "gaussian mu+n*sigma"
    (Cell_model.fit ~terms_for:gaussian_only observations);

  Printf.printf "\n(b) moment calibration: local LUT vs global eq.(2)/(3) surfaces:\n";
  let cell = Cell.make Cell.Nand2 ~strength:1 in
  let calib = Model.calibration m cell ~edge:`Fall in
  let delays = cell_mc ~n:5000 ~seed:77 cell ~slew:60e-12 ~load:1.5e-15 in
  let q_with moments sigma = Cell_model.predict m.Model.cell_model moments ~sigma in
  let m_grid = Calibration.moments_at calib ~slew:60e-12 ~load:1.5e-15 in
  let m_surf = Calibration.moments_at_surface calib ~slew:60e-12 ~load:1.5e-15 in
  Printf.printf "  %-28s  +3s err %.2f%%\n" "local LUT interpolation"
    (Float.abs (err (q_with m_grid 3) (empirical delays 3)));
  Printf.printf "  %-28s  +3s err %.2f%%\n" "eq.(2)/(3) global surfaces"
    (Float.abs (err (q_with m_surf 3) (empirical delays 3)));

  Printf.printf "\n(c) wire variability: driver+load (eq. 7) vs driver-only:\n";
  let g = Rng.create ~seed:55 in
  let tree = Wire_gen.random_tree tech Wire_gen.default_spec (Rng.split g) in
  let driver = Cell.make Cell.Inv ~strength:1 in
  let load = Cell.make Cell.Inv ~strength:8 in
  let meas = Wire_lab.measure ~n:1500 ~seed:56 tech ~tree ~driver ~load () in
  let tap = tree.Rctree.taps.(0) in
  let elmore =
    Elmore.delay_at (Rctree.add_cap tree tap (Cell.input_cap tech load)) tap
  in
  let full =
    Wire_model.quantile m.Model.wire ~elmore ~driver ~load:(Some load) ~sigma:3
  in
  let wm_no_fo = { m.Model.wire with Wire_model.scale_fo = 0.0 } in
  let drv_only =
    Wire_model.quantile wm_no_fo ~elmore ~driver ~load:(Some load) ~sigma:3
  in
  let mc3 = Wire_lab.quantile meas ~sigma:3 in
  Printf.printf "  driver+load: %.2f%%   driver-only: %.2f%%  (MC +3s = %.2f ps)\n"
    (Float.abs (err full mc3))
    (Float.abs (err drv_only mc3))
    (ps mc3)

(* ------------------------------------------------------------------ *)
(* High-sigma extension: the paper's "extended to +/-6s" remark.        *)
(* ------------------------------------------------------------------ *)

let highsigma () =
  header "High-sigma extension — quantiles to +/-6s (paper: Section III)";
  let m = model () in
  let cells =
    [ Cell.make Cell.Inv ~strength:1; Cell.make Cell.Nand2 ~strength:2;
      Cell.make Cell.Aoi21 ~strength:4 ]
  in
  Printf.printf "%-10s |" "cell";
  List.iter
    (fun l -> Printf.printf " %8s" (Printf.sprintf "%+.0fs" l))
    [ -6.; -4.5; -3.; 0.; 3.; 4.5; 6. ];
  Printf.printf "   (ps at S_ref, FO4)
";
  List.iter
    (fun cell ->
      Printf.printf "%-10s |" (Cell.name cell);
      List.iter
        (fun level ->
          let q =
            Nsigma.Sigma_ext.cell_quantile m cell ~edge:`Fall
              ~input_slew:Ch.reference_slew
              ~load_cap:(Cell.fo4_load tech cell) ~level
          in
          Printf.printf " %8.2f" (ps q))
        [ -6.; -4.5; -3.; 0.; 3.; 4.5; 6. ];
      Printf.printf "
%!")
    cells;
  Printf.printf
    "
Inside +/-3s the values are the fitted Table-I quantiles; beyond,
     a moment-matched log-skew-normal tail is spliced at the +/-3s anchor
     (P(+6s) ~ 1e-9 is unobservable by characterisation MC).
"

(* Every experiment the dispatch below accepts, in menu order — the
   single source for both the usage line and the unknown-name error. *)
let experiments =
  [ "fig2"; "fig3"; "fig4"; "table1"; "table2"; "fig7"; "fig8"; "fig9";
    "fig10"; "fig11"; "table3"; "speedup"; "ablation"; "highsigma"; "all" ]

let usage () =
  Printf.printf
    "usage: main.exe [--jobs N] [--metrics FILE] [%s] [circuits...]\n"
    (String.concat "|" experiments)

let unknown_experiment name =
  Printf.eprintf
    "bench: unknown experiment %S\nvalid experiments: %s\n(run with no \
     argument or \"all\" for the full paper sweep)\n"
    name
    (String.concat ", " experiments);
  exit 2

(* [--jobs N] (or [-j N]) installs itself as NSIGMA_JOBS so every
   sampling loop — characterisation, path MC, wire lab — picks it up
   through [Executor.default] without further plumbing. *)
let rec extract_jobs acc = function
  | [] -> (List.rev acc, None)
  | ("--jobs" | "-j") :: v :: rest -> (List.rev_append acc rest, Some v)
  | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
    (List.rev_append acc rest, Some (String.sub a 7 (String.length a - 7)))
  | a :: rest -> extract_jobs (a :: acc) rest

(* [--metrics FILE] enables the metrics registry and writes the JSON run
   report at exit (FILE = "-" prints a summary table to stderr). *)
let rec extract_metrics acc = function
  | [] -> (List.rev acc, None)
  | "--metrics" :: v :: rest -> (List.rev_append acc rest, Some v)
  | a :: rest when String.starts_with ~prefix:"--metrics=" a ->
    (List.rev_append acc rest, Some (String.sub a 10 (String.length a - 10)))
  | a :: rest -> extract_metrics (a :: acc) rest

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args, jobs = extract_jobs [] args in
  let args, metrics = extract_metrics [] args in
  Option.iter (Unix.putenv "NSIGMA_JOBS") jobs;
  (match metrics with
  | Some spec -> Obs_report.install spec
  | None -> Obs_report.install_from_env ());
  Printf.printf "[exec] %d worker domain(s)\n%!"
    (Executor.jobs (Executor.default ()));
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] | [ "all" ] ->
    fig2 ();
    fig3 ();
    fig4 ();
    table1 ();
    table2 ();
    fig7 ();
    fig8 ();
    fig9 ();
    fig10 ();
    fig11 ();
    table3 ();
    speedup ();
    ablation ();
    highsigma ()
  | "fig2" :: _ -> fig2 ()
  | "fig3" :: _ -> fig3 ()
  | "fig4" :: _ -> fig4 ()
  | "table1" :: _ -> table1 ()
  | "table2" :: _ -> table2 ()
  | "fig7" :: _ -> fig7 ()
  | "fig8" :: _ -> fig8 ()
  | "fig9" :: _ -> fig9 ()
  | "fig10" :: _ -> fig10 ()
  | "fig11" :: _ -> fig11 ()
  | "table3" :: [] -> table3 ()
  | "table3" :: circuits -> table3 ~circuits ()
  | "speedup" :: _ -> speedup ()
  | "ablation" :: _ -> ablation ()
  | "highsigma" :: _ -> highsigma ()
  | ("--help" | "-h" | "help") :: _ -> usage ()
  | name :: _ -> unknown_experiment name);
  Printf.printf "\n[bench] total wall time %.1fs\n" (Unix.gettimeofday () -. t0)
