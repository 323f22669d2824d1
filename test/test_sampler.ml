(* Sampling layer: the variance-reduction deviate streams and the
   adaptive quantile-CI stopping built on them.

   The load-bearing invariant is bit-exact replay: the Mc backend (the
   default) must reproduce the pre-sampler populations bit for bit — at
   the arc, table and path level, on both kernels and both executor
   backends — so enabling the sampling layer by default changes nothing.
   On top of that, each variance-reduction backend must satisfy its
   defining structural property (antithetic negation, LHS stratification,
   Sobol' net structure) and basic uniformity, and the adaptive stopper
   must honour rtol, never stop below the minimum batch, and produce a
   bitwise prefix of the fixed-count run. *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Rng = Nsigma_stats.Rng
module Sampler = Nsigma_stats.Sampler
module Special = Nsigma_stats.Special
module Quantile = Nsigma_stats.Quantile
module Arc = Nsigma_spice.Arc
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Executor = Nsigma_exec.Executor
module Cell = Nsigma_liberty.Cell
module Characterize = Nsigma_liberty.Characterize
module Netlist = Nsigma_netlist.Netlist
module Design = Nsigma_sta.Design
module Path = Nsigma_sta.Path
module Path_mc = Nsigma_sta.Path_mc

let tech = T.with_vdd T.default_28nm 0.6
let kernel_name = Cell_sim.kernel_name

let execs () =
  [ ("seq", Executor.sequential); ("pool2", Executor.domain_pool ~jobs:2 ()) ]

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
    expected

(* ---------- backend naming and selection ---------- *)

let test_backend_names () =
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Sampler.backend_name b ^ " round-trips")
        true
        (Sampler.backend_of_string (Sampler.backend_name b) = b))
    [ Sampler.Mc; Sampler.Antithetic; Sampler.Lhs; Sampler.Sobol;
      Sampler.Pcm ];
  Alcotest.(check bool)
    "anti alias" true
    (Sampler.backend_of_string "anti" = Sampler.Antithetic);
  Alcotest.(check bool)
    "qmc alias" true
    (Sampler.backend_of_string "qmc" = Sampler.Sobol);
  (match Sampler.backend_of_string "nope" with
  | (_ : Sampler.backend) -> Alcotest.fail "expected Failure on unknown name"
  | exception Failure msg ->
    Alcotest.(check bool) "message lists valid names" true
      (String.length msg > 0))

(* ---------- Mc backend: bit-exact replay of Variation.draw ---------- *)

(* The Mc stream plus [Variation.of_deviates] must reproduce the legacy
   [Variation.draw] samples exactly — same globals, same locals in the
   same order — which is the property that lets samplers feed the plan
   layer without perturbing golden populations. *)
let test_mc_replays_draw () =
  let cell = Cell.make Nand2 ~strength:2 in
  let sk_probe = Cell.plan tech cell ~output_edge:`Fall in
  let dim = Variation.global_deviate_dim + Arc.skeleton_local_dim sk_probe in
  let n = 64 in
  let base = Rng.create ~seed:77 in
  let s = Sampler.create Sampler.Mc base ~dim ~n in
  let z = Array.make dim 0.0 in
  let sk_a = Cell.plan tech cell ~output_edge:`Fall in
  let sk_b = Cell.plan tech cell ~output_edge:`Fall in
  let input_slew = 40e-12 and load_cap = Cell.fo4_load tech cell in
  for i = 0 to n - 1 do
    let legacy = Variation.draw tech (Rng.derive base ~index:i) in
    Arc.fill tech sk_a legacy;
    Sampler.fill s ~index:i z;
    Arc.fill tech sk_b (Variation.of_deviates tech z);
    let run sk =
      (Cell_sim.run_compiled ~kernel:Cell_sim.Fast tech
         (Arc.skeleton_compiled sk) ~input_slew ~load_cap)
        .Cell_sim.delay
    in
    let da = run sk_a and db = run sk_b in
    if not (Int64.equal (Int64.bits_of_float da) (Int64.bits_of_float db)) then
      Alcotest.failf "sample %d: draw %h vs of_deviates %h" i da db
  done

(* [arc_delays_sampled] with the Mc default must be bitwise-identical to
   the pre-sampler [arc_delays_planned] loop — both kernels, both
   executors, with and without going through the delegation. *)
let test_arc_mc_identity () =
  let cell = Cell.make Inv ~strength:1 in
  let input_slew = 40e-12 and load_cap = Cell.fo4_load tech cell in
  List.iter
    (fun kernel ->
      let g = Rng.create ~seed:42 in
      let expected, expected_slews =
        Monte_carlo.arc_delays_planned ~exec:Executor.sequential ~kernel tech g
          ~n:200
          ~plan:(fun () -> Cell.plan tech cell ~output_edge:`Rise)
          ~input_slew ~load_cap
      in
      List.iter
        (fun (ename, exec) ->
          let r =
            Monte_carlo.arc_delays_sampled ~exec ~kernel
              ~sampling:Sampler.Mc tech (Rng.create ~seed:42) ~n:200
              ~plan:(fun () -> Cell.plan tech cell ~output_edge:`Rise)
              ~input_slew ~load_cap
          in
          let what =
            Printf.sprintf "arc mc %s/%s" (kernel_name kernel) ename
          in
          check_bits ~what expected r.Monte_carlo.s_delays;
          check_bits ~what:(what ^ " slews") expected_slews
            r.Monte_carlo.s_out_slews;
          Alcotest.(check int) (what ^ " requested") 200
            r.Monte_carlo.s_requested;
          Alcotest.(check int) (what ^ " batches") 1 r.Monte_carlo.s_batches)
        (execs ()))
    [ Cell_sim.Fast; Cell_sim.Rk4 ]

(* Characterised tables: the default (Mc, no rtol) table must equal the
   pre-sampler per-point loop replicated here verbatim. *)
let test_table_mc_identity () =
  let cell = Cell.make Nand2 ~strength:1 in
  let slews = [| 10e-12; 60e-12 |] and loads = [| 0.5e-15; 2e-15 |] in
  let n_mc = 40 and seed = 5 in
  let kernel = Cell_sim.Fast in
  (* Pre-PR reference: the exact measure_point loop before the sampler. *)
  let g = Rng.create ~seed in
  let legacy_point ~index slew load =
    let gp = Rng.derive g ~index in
    let delays_all, _ =
      Monte_carlo.arc_delays_planned ~exec:Executor.sequential ~kernel tech gp
        ~n:n_mc
        ~plan:(fun () -> Cell.plan tech cell ~output_edge:`Fall)
        ~input_slew:slew ~load_cap:load
    in
    Monte_carlo.compact_nan delays_all
  in
  let table =
    Characterize.characterize ~n_mc ~seed ~slews ~loads
      ~exec:Executor.sequential ~kernel ~sampling:Sampler.Mc tech cell
      ~edge:`Fall
  in
  Alcotest.(check bool) "table records mc" true
    (table.Characterize.sampling = Sampler.Mc);
  Alcotest.(check bool) "table records rtol off" true
    (table.Characterize.rtol = None);
  Array.iteri
    (fun si row ->
      Array.iteri
        (fun li (p : Characterize.point) ->
          let expected = legacy_point ~index:((si * 2) + li) slews.(si) loads.(li) in
          Array.sort Float.compare expected;
          let mean = (Nsigma_stats.Moments.summary_of_array expected).mean in
          if
            not
              (Int64.equal
                 (Int64.bits_of_float mean)
                 (Int64.bits_of_float p.Characterize.moments.mean))
          then
            Alcotest.failf "point (%d,%d): mean %h vs legacy %h" si li
              p.Characterize.moments.mean mean)
        row)
    table.Characterize.points

(* Path populations: [Path_mc.run ~sampling:Mc] must equal the
   rebuild-per-sample reference, both kernels, both executors. *)
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

let test_path_mc_identity () =
  let design, path = small_design () in
  List.iter
    (fun kernel ->
      let expected =
        unplanned_path_samples ~kernel ~steps:80 ~n:30 ~seed:11 tech design path
      in
      List.iter
        (fun (ename, exec) ->
          let r =
            Path_mc.run ~kernel ~steps:80 ~n:30 ~seed:11 ~exec
              ~sampling:Sampler.Mc tech design path
          in
          check_bits
            ~what:(Printf.sprintf "path mc %s/%s" (kernel_name kernel) ename)
            expected r.Path_mc.samples;
          let si = r.Path_mc.sampling in
          Alcotest.(check bool) "sampling info backend" true
            (si.Path_mc.si_backend = Sampler.Mc);
          Alcotest.(check int) "sampling info drawn" 30 si.Path_mc.si_drawn;
          Alcotest.(check int) "sampling info saved" 0 si.Path_mc.si_saved)
        (execs ()))
    [ Cell_sim.Fast; Cell_sim.Rk4 ]

(* ---------- antithetic pairing ---------- *)

let test_antithetic_pairing () =
  let dim = 9 and n = 64 in
  let g = Rng.create ~seed:3 in
  let s = Sampler.create Sampler.Antithetic g ~dim ~n in
  let mc = Sampler.create Sampler.Mc g ~dim ~n in
  let ze = Array.make dim 0.0
  and zo = Array.make dim 0.0
  and zm = Array.make dim 0.0 in
  for k = 0 to (n / 2) - 1 do
    Sampler.fill s ~index:(2 * k) ze;
    Sampler.fill s ~index:((2 * k) + 1) zo;
    Sampler.fill mc ~index:k zm;
    for j = 0 to dim - 1 do
      if
        not
          (Int64.equal (Int64.bits_of_float ze.(j)) (Int64.bits_of_float zm.(j)))
      then
        Alcotest.failf "pair %d dim %d: even member %h is not the mc draw %h" k
          j ze.(j) zm.(j);
      if
        not
          (Int64.equal
             (Int64.bits_of_float zo.(j))
             (Int64.bits_of_float (-.ze.(j))))
      then
        Alcotest.failf "pair %d dim %d: %h is not the exact negation of %h" k j
          zo.(j) ze.(j)
    done
  done

(* ---------- LHS stratification ---------- *)

let test_lhs_stratification () =
  let dim = 5 and n = 64 in
  let g = Rng.create ~seed:17 in
  let s = Sampler.create Sampler.Lhs g ~dim ~n in
  let u = Array.make dim 0.0 in
  let hits = Array.make_matrix dim n 0 in
  for i = 0 to n - 1 do
    Sampler.fill_uniform s ~index:i u;
    for j = 0 to dim - 1 do
      if u.(j) <= 0.0 || u.(j) >= 1.0 then
        Alcotest.failf "u out of (0,1): %h" u.(j);
      let stratum = int_of_float (Float.of_int n *. u.(j)) in
      hits.(j).(min stratum (n - 1)) <- hits.(j).(min stratum (n - 1)) + 1
    done
  done;
  Array.iteri
    (fun j row ->
      Array.iteri
        (fun k c ->
          if c <> 1 then
            Alcotest.failf "dim %d stratum %d hit %d times (want exactly 1)" j k
              c)
        row)
    hits;
  (* Out-of-population index must be rejected: strata are only defined
     for the n the stream was created for. *)
  (match Sampler.fill s ~index:n (Array.make dim 0.0) with
  | () -> Alcotest.fail "expected Invalid_argument for index >= n"
  | exception Invalid_argument _ -> ())

(* ---------- Sobol': golden values, net structure, scramble ---------- *)

(* First eight points of the canonical (unscrambled) Sobol' sequence
   under the gray-code construction with the (x+1/2)/2^32 offset. *)
let test_sobol_golden () =
  let expect =
    [
      (0, [| 0.0; 0.5; 0.75; 0.25; 0.375; 0.875; 0.625; 0.125 |]);
      (1, [| 0.0; 0.5; 0.25; 0.75; 0.375; 0.875; 0.125; 0.625 |]);
      (2, [| 0.0; 0.5; 0.25; 0.75; 0.625; 0.125; 0.875; 0.375 |]);
    ]
  in
  List.iter
    (fun (d, xs) ->
      Array.iteri
        (fun i x ->
          let u = Sampler.sobol_raw_u01 ~dim:d ~index:i in
          (* The construction adds the half-cell offset 2^-33. *)
          let got = u -. (0.5 /. 4294967296.0) in
          if Float.abs (got -. x) > 1e-12 then
            Alcotest.failf "sobol dim %d point %d: %.17g, want %.17g" d i got x)
        xs)
    expect

(* Owen-style scrambling must act as a nested dyadic permutation: the
   top k bits of the output are a bijective function of the top k bits
   of the input.  Checked at depth 8 for several seeds. *)
let test_owen_nested_permutation () =
  List.iter
    (fun seed ->
      let seen = Array.make 256 false in
      for j = 0 to 255 do
        let y = Sampler.owen_scramble ~seed (j lsl 24) in
        let top = (y lsr 24) land 0xFF in
        if seen.(top) then
          Alcotest.failf "seed %d: top byte %d hit twice (not a permutation)"
            seed top;
        seen.(top) <- true
      done)
    [ 0; 1; 0x9E3779B9; 12345 ]

(* The scrambled stream keeps the one-per-stratum (0, m, 1)-net property
   in every 1-D projection — including sieve-generated dimensions well
   beyond the embedded direction-number table. *)
let test_sobol_stratification () =
  let dim = 40 and n = 64 in
  let g = Rng.create ~seed:29 in
  let s = Sampler.create Sampler.Sobol g ~dim ~n in
  let u = Array.make dim 0.0 in
  let hits = Array.make_matrix dim n 0 in
  for i = 0 to n - 1 do
    Sampler.fill_uniform s ~index:i u;
    for j = 0 to dim - 1 do
      let stratum = min (n - 1) (int_of_float (Float.of_int n *. u.(j))) in
      hits.(j).(stratum) <- hits.(j).(stratum) + 1
    done
  done;
  Array.iteri
    (fun j row ->
      Array.iteri
        (fun k c ->
          if c <> 1 then
            Alcotest.failf "dim %d stratum %d hit %d times (want exactly 1)" j k
              c)
        row)
    hits

(* ---------- uniformity (KS) per backend ---------- *)

let ks_statistic u =
  let n = Array.length u in
  let s = Array.copy u in
  Array.sort Float.compare s;
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let hi = (float_of_int (i + 1) /. float_of_int n) -. x in
      let lo = x -. (float_of_int i /. float_of_int n) in
      d := Float.max !d (Float.max hi lo))
    s;
  !d

let test_uniformity () =
  let n = 4096 and dim = 7 in
  List.iter
    (fun (backend, threshold_scaled) ->
      let g = Rng.create ~seed:101 in
      let s = Sampler.create backend g ~dim ~n in
      let u = Array.make dim 0.0 in
      let cols = Array.init dim (fun _ -> Array.make n 0.0) in
      for i = 0 to n - 1 do
        Sampler.fill_uniform s ~index:i u;
        for j = 0 to dim - 1 do
          cols.(j).(i) <- u.(j)
        done
      done;
      Array.iteri
        (fun j col ->
          let d = ks_statistic col in
          let scaled =
            match backend with
            | Sampler.Mc | Sampler.Antithetic | Sampler.Pcm ->
              sqrt (float_of_int n) *. d
            | Sampler.Lhs | Sampler.Sobol -> d
          in
          if scaled > threshold_scaled then
            Alcotest.failf "%s dim %d: KS %.4g exceeds %.4g"
              (Sampler.backend_name backend)
              j scaled threshold_scaled)
        cols)
    [
      (* √n·D for the pseudo-random streams (Kolmogorov 99.99% ≈ 1.95);
         raw D for the stratified streams, whose discrepancy is O(1/n). *)
      (Sampler.Mc, 2.2);
      (Sampler.Antithetic, 2.2);
      (Sampler.Lhs, 0.01);
      (Sampler.Sobol, 0.01);
    ]

(* ---------- Quantile hardening: of_sorted / ci edges ---------- *)

let test_quantile_edges () =
  (match Quantile.of_sorted [||] 0.5 with
  | (_ : float) -> Alcotest.fail "expected Invalid_argument on empty"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "of_sorted_opt empty" true
    (Quantile.of_sorted_opt [||] 0.5 = None);
  let one = [| 42.0 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "singleton at p=%g" p)
        42.0 (Quantile.of_sorted one p))
    [ 0.0; 0.25; 0.5; 1.0 ];
  Alcotest.(check bool) "singleton ci collapses" true
    (Quantile.ci one 0.99865 = (42.0, 42.0));
  (match Quantile.ci [||] 0.5 with
  | (_ : float * float) -> Alcotest.fail "expected Invalid_argument on empty ci"
  | exception Invalid_argument _ -> ());
  (match Quantile.ci ~confidence:1.5 one 0.5 with
  | (_ : float * float) ->
    Alcotest.fail "expected Invalid_argument on confidence > 1"
  | exception Invalid_argument _ -> ());
  (* CI brackets the point estimate and narrows with more data. *)
  let sample n = Array.init n (fun i -> float_of_int i /. float_of_int n) in
  let xs = sample 1000 in
  let p = Quantile.probability_of_sigma 3.0 in
  let q = Quantile.of_sorted xs p in
  let lo, hi = Quantile.ci xs p in
  Alcotest.(check bool) "lo <= q <= hi" true (lo <= q && q <= hi);
  let lo2, hi2 = Quantile.ci (sample 100000) p in
  Alcotest.(check bool) "wider sample narrows the ci" true
    (hi2 -. lo2 < hi -. lo)

(* ---------- adaptive stopping ---------- *)

let arc_sampled ?rtol ~n ~sampling ~seed () =
  let cell = Cell.make Inv ~strength:1 in
  Monte_carlo.arc_delays_sampled ~exec:Executor.sequential
    ~kernel:Cell_sim.Fast ~sampling ?rtol tech (Rng.create ~seed) ~n
    ~plan:(fun () -> Cell.plan tech cell ~output_edge:`Rise)
    ~input_slew:40e-12
    ~load_cap:(Cell.fo4_load tech (Cell.make Inv ~strength:1))

let test_adaptive_stopping () =
  (* A loose tolerance stops well before n; the result must be a bitwise
     prefix of the fixed-count run and never shorter than the minimum
     batch. *)
  let n = 4096 in
  List.iter
    (fun sampling ->
      let full = arc_sampled ~n ~sampling ~seed:7 () in
      let adaptive = arc_sampled ~rtol:0.5 ~n ~sampling ~seed:7 () in
      let drawn = Array.length adaptive.Monte_carlo.s_delays in
      let name = Sampler.backend_name sampling in
      Alcotest.(check bool)
        (name ^ ": stopped before n") true (drawn < n);
      Alcotest.(check bool)
        (name ^ ": at least the minimum batch")
        true
        (drawn >= Monte_carlo.min_adaptive_batch);
      Alcotest.(check bool)
        (name ^ ": more than one batch accounted")
        true
        (adaptive.Monte_carlo.s_batches >= 1);
      check_bits
        ~what:(name ^ ": adaptive prefix")
        adaptive.Monte_carlo.s_delays
        (Array.sub full.Monte_carlo.s_delays 0 drawn))
    [ Sampler.Mc; Sampler.Sobol ];
  (* An unattainable tolerance draws every sample. *)
  let exhausted = arc_sampled ~rtol:1e-9 ~n:512 ~sampling:Sampler.Mc ~seed:7 () in
  Alcotest.(check int) "tiny rtol draws all of n" 512
    (Array.length exhausted.Monte_carlo.s_delays);
  (match arc_sampled ~rtol:(-0.1) ~n:64 ~sampling:Sampler.Mc ~seed:7 () with
  | (_ : Monte_carlo.sampled) ->
    Alcotest.fail "expected Invalid_argument for rtol <= 0"
  | exception Invalid_argument _ -> ())

let test_adaptive_path () =
  let design, path = small_design () in
  let full =
    Path_mc.run ~kernel:Cell_sim.Fast ~n:600 ~seed:11
      ~exec:Executor.sequential ~sampling:Sampler.Lhs tech design path
  in
  let adaptive =
    Path_mc.run ~kernel:Cell_sim.Fast ~n:600 ~seed:11
      ~exec:Executor.sequential ~sampling:Sampler.Lhs ~rtol:0.5 tech design
      path
  in
  let si = adaptive.Path_mc.sampling in
  Alcotest.(check bool) "stopped early" true
    (si.Path_mc.si_drawn < si.Path_mc.si_requested);
  Alcotest.(check int) "saved accounts the gap"
    (si.Path_mc.si_requested - si.Path_mc.si_drawn)
    si.Path_mc.si_saved;
  Alcotest.(check bool) "at least the minimum batch" true
    (si.Path_mc.si_drawn >= Monte_carlo.min_adaptive_batch);
  (* The early-stopped sorted population is a subset prefix in sample
     space: every adaptive sample appears in the full run's population. *)
  let full_set =
    Array.to_list full.Path_mc.samples |> List.map Int64.bits_of_float
  in
  Array.iter
    (fun d ->
      if not (List.mem (Int64.bits_of_float d) full_set) then
        Alcotest.failf "adaptive sample %h missing from the full population" d)
    adaptive.Path_mc.samples

(* ---------- variance reduction actually reduces variance ---------- *)

(* Cheap sanity check (the bench gates the real ≥2x reduction): the ±3σ
   quantile spread across independent LHS replicates should not exceed
   the plain-MC spread.  Uses the raw deviate streams through a smooth
   monotone response, not the simulator, to stay fast. *)
let test_variance_reduction_smoke () =
  let dim = 4 and n = 256 and reps = 24 in
  let p = Quantile.probability_of_sigma 3.0 in
  let spread backend =
    let qs =
      List.init reps (fun r ->
          let g = Rng.create ~seed:(1000 + r) in
          let s = Sampler.create backend g ~dim ~n in
          let z = Array.make dim 0.0 in
          let ys =
            Array.init n (fun i ->
                Sampler.fill s ~index:i z;
                (* Smooth response with curvature, like a delay model. *)
                Array.fold_left (fun acc zj -> acc +. zj +. (0.1 *. zj *. zj))
                  0.0 z)
          in
          Array.sort Float.compare ys;
          Quantile.of_sorted ys p)
    in
    let mean = List.fold_left ( +. ) 0.0 qs /. float_of_int reps in
    List.fold_left (fun acc q -> acc +. ((q -. mean) *. (q -. mean))) 0.0 qs
    /. float_of_int reps
  in
  let v_mc = spread Sampler.Mc and v_lhs = spread Sampler.Lhs in
  if v_lhs > v_mc then
    Alcotest.failf "LHS ±3σ variance %.4g exceeds MC %.4g" v_lhs v_mc

(* ---------- probabilistic collocation (Pcm) ---------- *)

let test_pcm_geometry () =
  Alcotest.(check bool) "node is sqrt 3" true
    (Float.abs ((Sampler.Pcm.node *. Sampler.Pcm.node) -. 3.0) < 1e-12);
  Alcotest.(check int) "points dim 1" 3 (Sampler.Pcm.n_points ~dim:1);
  Alcotest.(check int) "points dim 4" 33 (Sampler.Pcm.n_points ~dim:4);
  (match Sampler.Pcm.n_points ~dim:0 with
  | (_ : int) -> Alcotest.fail "expected Invalid_argument on dim 0"
  | exception Invalid_argument _ -> ());
  let dim = 3 in
  let n_pts = Sampler.Pcm.n_points ~dim in
  let z = Array.make dim Float.nan in
  Sampler.Pcm.fill_point ~dim 0 z;
  Array.iter (fun v -> Alcotest.(check (float 0.0)) "origin" 0.0 v) z;
  for p = 1 to n_pts - 1 do
    Sampler.Pcm.fill_point ~dim p z;
    let active =
      Array.fold_left (fun acc v -> if v <> 0.0 then acc + 1 else acc) 0 z
    in
    Alcotest.(check bool)
      (Printf.sprintf "point %d touches 1 or 2 axes" p)
      true
      (active = 1 || active = 2);
    Array.iter
      (fun v ->
        Alcotest.(check bool) "coordinate in {0, ±√3}" true
          (v = 0.0 || Float.abs (Float.abs v -. Sampler.Pcm.node) < 1e-15))
      z
  done

(* The closed-form fit must recover any quadratic exactly: collocate an
   arbitrary second-order polynomial-chaos expansion and check the
   surrogate reproduces it at random points (to roundoff). *)
let test_pcm_quadratic_exact () =
  let dim = 4 in
  let a = [| 0.7; -1.3; 0.25; 2.0 |]
  and b = [| 0.4; -0.6; 1.1; -0.05 |] in
  let c = Array.make_matrix dim dim 0.0 in
  c.(0).(1) <- 0.8;
  c.(0).(3) <- -0.3;
  c.(1).(2) <- 1.7;
  c.(2).(3) <- 0.12;
  let f z =
    let acc = ref 3.25 in
    for j = 0 to dim - 1 do
      acc :=
        !acc +. (a.(j) *. z.(j)) +. (b.(j) *. ((z.(j) *. z.(j)) -. 1.0));
      for k = j + 1 to dim - 1 do
        acc := !acc +. (c.(j).(k) *. z.(j) *. z.(k))
      done
    done;
    !acc
  in
  let n_pts = Sampler.Pcm.n_points ~dim in
  let zbuf = Array.make dim 0.0 in
  let values =
    Array.init n_pts (fun p ->
        Sampler.Pcm.fill_point ~dim p zbuf;
        f zbuf)
  in
  let s = Sampler.Pcm.fit ~dim ~values in
  Alcotest.(check int) "dim_of" dim (Sampler.Pcm.dim_of s);
  Alcotest.(check bool) "mean is the constant term" true
    (Float.abs (Sampler.Pcm.mean s -. 3.25) < 1e-10);
  let g = Rng.create ~seed:19 in
  for i = 0 to 199 do
    let gi = Rng.derive g ~index:i in
    let z = Array.init dim (fun _ -> Rng.gaussian gi) in
    let want = f z and got = Sampler.Pcm.eval s z in
    if Float.abs (got -. want) > 1e-9 *. (1.0 +. Float.abs want) then
      Alcotest.failf "point %d: surrogate %.17g vs quadratic %.17g" i got want
  done

(* End to end: the Pcm backend must be deterministic (same seed, same
   bits), actually skip kernel work, and land its ±3σ quantiles near
   the plain-MC population it replaces. *)
let test_pcm_arc_surrogate () =
  let n = 2048 in
  let r1 = arc_sampled ~n ~sampling:Sampler.Pcm ~seed:7 ()
  and r2 = arc_sampled ~n ~sampling:Sampler.Pcm ~seed:7 () in
  check_bits ~what:"pcm same seed" r1.Monte_carlo.s_delays
    r2.Monte_carlo.s_delays;
  Alcotest.(check int) "full population" n
    (Array.length r1.Monte_carlo.s_delays);
  Array.iter
    (fun d ->
      if not (Float.is_nan d) && d <= 0.0 then
        Alcotest.failf "non-positive surrogate delay %.3e" d)
    r1.Monte_carlo.s_delays;
  let mc = arc_sampled ~n ~sampling:Sampler.Mc ~seed:7 () in
  let q pop p =
    let a = Monte_carlo.compact_nan pop in
    Array.sort Float.compare a;
    Quantile.of_sorted a p
  in
  List.iter
    (fun sigma ->
      let p = Quantile.probability_of_sigma sigma in
      let qp = q r1.Monte_carlo.s_delays p
      and qm = q mc.Monte_carlo.s_delays p in
      let rel = Float.abs (qp -. qm) /. qm in
      if rel > 0.10 then
        Alcotest.failf "pcm %+gσ quantile off by %.1f%% (pcm %.4e mc %.4e)"
          sigma (100.0 *. rel) qp qm)
    [ -3.0; 3.0 ]

(* The PCM acceptance workload: four arcs spanning single-device,
   wide, stacked and complex-gate drive, each at its FO4 load. *)
let pcm_workload () =
  [ (Cell.make Inv ~strength:1, `Rise);
    (Cell.make Inv ~strength:8, `Fall);
    (Cell.make Nand2 ~strength:2, `Rise);
    (Cell.make Aoi21 ~strength:1, `Fall) ]
  |> List.map (fun (cell, edge) -> (cell, edge, Cell.fo4_load tech cell))

(* PCM's point is kernel work: at a 4096-sample study it must simulate
   at least 8x fewer arcs than plain MC, even on the widest arc.  The
   collocation count is a pure function of the deviate dimension, so
   this costs no simulation. *)
let test_pcm_kernel_reduction () =
  let n = 4096 in
  let evals =
    List.fold_left
      (fun acc (cell, edge, _) ->
        let sk = Cell.plan tech cell ~output_edge:edge in
        let dim = Variation.global_deviate_dim + Arc.skeleton_local_dim sk in
        max acc (Sampler.Pcm.n_points ~dim))
      0 (pcm_workload ())
  in
  let reduction = float_of_int n /. float_of_int evals in
  if reduction < 8.0 then
    Alcotest.failf "pcm reduction %.2fx at n=%d (%d collocations), need >= 8x"
      reduction n evals

(* Relative RMSE of the ±3σ quantiles at [n] samples, pooled over
   [workload] and [reps] replicate seeds, against a plain-MC reference
   of [n_ref] samples per arc.  Partially applied to its reference, it
   scores any backend at any sample count against the same target. *)
let tail_rmse ~n_ref ~reps workload =
  let tails =
    [ Quantile.probability_of_sigma (-3.0); Quantile.probability_of_sigma 3.0 ]
  in
  let sorted_delays sampling ~seed ~n (cell, edge, load) =
    let s =
      Monte_carlo.arc_delays_sampled ~exec:Executor.sequential
        ~kernel:Cell_sim.Fast ~sampling tech (Rng.create ~seed) ~n
        ~plan:(fun () -> Cell.plan tech cell ~output_edge:edge)
        ~input_slew:40e-12 ~load_cap:load
    in
    let d = Monte_carlo.compact_nan s.Monte_carlo.s_delays in
    Array.sort Float.compare d;
    d
  in
  let refs =
    List.map
      (fun arc ->
        let sorted = sorted_delays Sampler.Mc ~seed:424242 ~n:n_ref arc in
        List.map (Quantile.of_sorted sorted) tails)
      workload
  in
  fun sampling n ->
    let acc = ref 0.0 and cnt = ref 0 in
    for rep = 1 to reps do
      List.iter2
        (fun arc q_refs ->
          let sorted = sorted_delays sampling ~seed:(1000 + rep) ~n arc in
          List.iter2
            (fun p q_ref ->
              let e = (Quantile.of_sorted sorted p -. q_ref) /. q_ref in
              acc := !acc +. (e *. e);
              incr cnt)
            tails q_refs)
        workload refs
    done;
    sqrt (!acc /. float_of_int !cnt)

(* PCM's surrogate bias must stay within [slack] of plain MC's sampling
   error at the same sample count. *)
let test_pcm_tail_rmse () =
  let n = 512 and slack = 4.0 in
  let rmse = tail_rmse ~n_ref:8192 ~reps:2 (pcm_workload ()) in
  let mc = rmse Sampler.Mc n and pcm = rmse Sampler.Pcm n in
  if pcm > slack *. mc then
    Alcotest.failf "pcm ±3σ rmse %.4f%% exceeds %.1f x mc rmse %.4f%%"
      (100.0 *. pcm) slack (100.0 *. mc)

(* The stratified backends' acceptance gate: LHS and Sobol' must reach
   the ±3σ RMSE plain MC has at [base] samples with at least 2x fewer
   samples.  Strength-8 drivers are the regime where stratification
   pays: wide devices shrink the Pelgrom local mismatch, so the shared
   global deviates, the dimensions LHS and Sobol' balance hardest,
   carry most of the delay variance (at unit strength the gain falls
   towards 1x).  The ladder stops at base/2, so any match is a >= 2x
   reduction. *)
let test_stratified_sample_reduction () =
  let base = 4096 and ladder = [ 512; 1024; 2048 ] in
  let workload =
    [ (Cell.make Inv ~strength:8, `Rise);
      (Cell.make Inv ~strength:8, `Fall);
      (Cell.make Nand2 ~strength:8, `Rise);
      (Cell.make Nand2 ~strength:8, `Fall) ]
    |> List.map (fun (cell, edge) -> (cell, edge, Cell.fo4_load tech cell))
  in
  let rmse = tail_rmse ~n_ref:131072 ~reps:8 workload in
  let target = rmse Sampler.Mc base in
  List.iter
    (fun backend ->
      let scores = List.map (fun n -> (n, rmse backend n)) ladder in
      if not (List.exists (fun (_, r) -> r <= target) scores) then
        Alcotest.failf
          "%s misses mc's ±3σ rmse %.4f%% (n=%d) at every n <= %d: %s"
          (Sampler.backend_name backend) (100.0 *. target) base (base / 2)
          (String.concat ", "
             (List.map
                (fun (n, r) -> Printf.sprintf "n=%d %.4f%%" n (100.0 *. r))
                scores)))
    [ Sampler.Lhs; Sampler.Sobol ]

let () =
  Alcotest.run "sampler"
    [
      ( "backend",
        [
          Alcotest.test_case "names round-trip" `Quick test_backend_names;
          Alcotest.test_case "mc replays Variation.draw" `Quick
            test_mc_replays_draw;
        ] );
      ( "bit_identity",
        [
          Alcotest.test_case "arc mc = planned (bitwise)" `Quick
            test_arc_mc_identity;
          Alcotest.test_case "table mc = legacy loop (bitwise)" `Quick
            test_table_mc_identity;
          Alcotest.test_case "path mc = unplanned (bitwise)" `Quick
            test_path_mc_identity;
        ] );
      ( "structure",
        [
          Alcotest.test_case "antithetic exact pairing" `Quick
            test_antithetic_pairing;
          Alcotest.test_case "lhs one per stratum" `Quick
            test_lhs_stratification;
          Alcotest.test_case "sobol golden first points" `Quick
            test_sobol_golden;
          Alcotest.test_case "owen nested permutation" `Quick
            test_owen_nested_permutation;
          Alcotest.test_case "scrambled sobol one per stratum" `Quick
            test_sobol_stratification;
          Alcotest.test_case "uniformity (KS) per backend" `Quick
            test_uniformity;
        ] );
      ( "pcm",
        [
          Alcotest.test_case "collocation geometry" `Quick test_pcm_geometry;
          Alcotest.test_case "quadratic exactness" `Quick
            test_pcm_quadratic_exact;
          Alcotest.test_case "arc surrogate determinism + accuracy" `Quick
            test_pcm_arc_surrogate;
          Alcotest.test_case "kernel-eval reduction >= 8x" `Quick
            test_pcm_kernel_reduction;
          Alcotest.test_case "±3σ rmse within slack of mc" `Quick
            test_pcm_tail_rmse;
        ] );
      ( "quantile",
        [ Alcotest.test_case "of_sorted/ci edge cases" `Quick
            test_quantile_edges ] );
      ( "adaptive",
        [
          Alcotest.test_case "arc stopping honours rtol" `Quick
            test_adaptive_stopping;
          Alcotest.test_case "path stopping + metadata" `Quick
            test_adaptive_path;
          Alcotest.test_case "variance reduction smoke" `Quick
            test_variance_reduction_smoke;
          Alcotest.test_case "lhs and sobol reach mc ±3σ rmse at n/2" `Slow
            test_stratified_sample_reduction;
        ] );
    ]
