(* Tests for the block-based SSTA engine: the distribution algebra on
   hand-analysable circuits (chain sums, diamond reconvergence against
   Clark's closed form), degenerate agreement with the scalar engine,
   report rendering, and a validate smoke against per-path MC on a real
   characterised library. *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module N = Nsigma_netlist.Netlist
module B = Nsigma_netlist.Builder
module Bm = Nsigma_netlist.Benchmarks
module Design = Nsigma_sta.Design
module Provider = Nsigma_sta.Provider
module Engine = Nsigma_sta.Engine
module Engine_core = Nsigma_sta.Engine_core
module Ssta = Nsigma_sta.Ssta
module Incremental = Nsigma_sta.Incremental
module Timing_report = Nsigma_sta.Timing_report
module Moments = Nsigma_stats.Moments
module Stat_max = Nsigma_stats.Stat_max
module Rng = Nsigma_stats.Rng
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Wire_gen = Nsigma_rcnet.Wire_gen
module Executor = Nsigma_exec.Executor

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6
let ng = Variation.global_deviate_dim

(* A Gaussian delay distribution with purely local (independent)
   variance: mean [m], standard deviation [s]. *)
let local_dist m s =
  {
    Ssta.d_mean = m;
    d_a = Array.make ng 0.0;
    d_b = Array.make ng 0.0;
    d_var_l = s *. s;
    d_m3_l = 0.0;
    d_m4_l = 3.0 *. (s ** 4.0);
  }

(* Constant-distribution provider: every cell arc contributes [d], wires
   are free, slews pass through — the SSTA counterpart of test_sta's
   unit provider. *)
let const_provider d =
  {
    Engine_core.m_label = "const-dist";
    m_cell_delay =
      (fun _ ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew:_ ~load_cap:_ ->
        { Ssta.dd = d; d_slew_tc = 0.0 });
    m_cell_out_slew =
      (fun _ ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew ~load_cap:_ -> input_slew);
    m_wire_delay =
      (fun ~net:_ ~driver:_ ~sink:_ ~tree:_ ~tap:_ ->
        { Ssta.dd = Ssta.zero_dist; d_slew_tc = 0.0 });
    m_wire_slew_degrade = (fun ~wire_delay:_ ~slew_at_root -> slew_at_root);
  }

let chain n =
  let b = B.create ~name:"chain" in
  let a = B.input b "a" in
  let net = ref a in
  for _ = 1 to n do
    net := B.inv b !net
  done;
  B.output b !net;
  B.finish b

(* a fans out to two inverters whose outputs reconverge on a NAND. *)
let diamond () =
  let b = B.create ~name:"diamond" in
  let a = B.input b "a" in
  let n1 = B.inv b a in
  let n2 = B.inv b a in
  B.output b (B.nand2 b n1 n2);
  B.finish b

(* ---- algebra on hand-analysable circuits ---- *)

let test_chain_sums_moments () =
  let nl = chain 4 in
  let design = Design.attach_parasitics tech nl in
  let d = local_dist 10e-12 1e-12 in
  let report = Ssta.analyze tech (const_provider d) design in
  let out = Ssta.circuit_dist report in
  (* 4 independent Gaussian stages: means and variances add, no joins on
     a chain so the result is exact. *)
  check_close "chain mean" 40e-12 out.Ssta.d_mean;
  check_close "chain var" 4e-24 (Ssta.variance out);
  let s = Ssta.to_summary out in
  check_close ~eps:1e-9 "chain skew 0" 1.0 (1.0 +. s.Moments.skewness);
  check_close ~eps:1e-9 "chain kurt 3" 3.0 s.Moments.kurtosis;
  (* Cornish-Fisher quantile of a Gaussian is mu + n*sigma exactly. *)
  check_close "chain +3s" (40e-12 +. (3.0 *. 2e-12))
    (Ssta.quantile out ~sigma:3.0)

let test_diamond_clark_join () =
  let nl = diamond () in
  let design = Design.attach_parasitics tech nl in
  let d = local_dist 10e-12 1e-12 in
  let report = Ssta.analyze tech (const_provider d) design in
  let out = Ssta.circuit_dist report in
  (* The two NAND input candidates are iid Gaussians (inv + nand, mean
     20 ps, var 2 ps^2, all variance local so Tracked correlation sees
     rho = 0).  Clark: E[max] = mu + sigma_delta * phi(0)
     = mu + sqrt(2 var) / sqrt(2 pi) = mu + sigma / sqrt(pi). *)
  let mu = 20e-12 and var = 2e-24 in
  let expected = mu +. (sqrt var /. sqrt Float.pi) in
  check_close ~eps:1e-9 "diamond mean = Clark closed form" expected
    out.Ssta.d_mean;
  (* Var(max) = mu^2 + var - E[max]^2 for iid zero-rho inputs:
     E[max^2] = mu^2 + var (even power symmetry). *)
  let evar = (mu *. mu) +. var -. (expected *. expected) in
  check_close ~eps:1e-6 "diamond variance" evar (Ssta.variance out)

let test_degenerate_matches_scalar () =
  (* With sigma = 0 every max is a plain max: the statistical engine
     must reproduce the scalar engine's arrival exactly. *)
  let scalar_provider =
    {
      Provider.label = "unit";
      cell_delay = (fun _ ~edge:_ ~input_slew:_ ~load_cap:_ -> 10e-12);
      cell_out_slew = (fun _ ~edge:_ ~input_slew ~load_cap:_ -> input_slew);
      wire_delay = (fun ~net:_ ~driver:_ ~sink:_ ~tree:_ ~tap:_ -> 0.0);
      wire_slew_degrade = (fun ~wire_delay:_ ~slew_at_root -> slew_at_root);
    }
  in
  List.iter
    (fun nl ->
      let design = Design.attach_parasitics tech nl in
      let scalar = Engine.analyze tech scalar_provider design in
      let d = local_dist 10e-12 0.0 in
      let stat = Ssta.analyze tech (const_provider d) design in
      let out = Ssta.circuit_dist stat in
      check_close ~eps:1e-12 "degenerate mean = scalar delay"
        (Engine.circuit_delay scalar) out.Ssta.d_mean;
      check_close ~eps:1e-12 "degenerate std 0" 1.0 (1.0 +. Ssta.std out))
    [ chain 5; diamond () ]

let test_dist_summary_roundtrip () =
  let s =
    {
      Moments.n = 1000;
      mean = 50e-12;
      std = 8e-12;
      skewness = 0.45;
      kurtosis = 3.6;
    }
  in
  List.iter
    (fun frac ->
      let d = Ssta.of_summary ~global_frac:frac s in
      let back = Ssta.to_summary d in
      check_close ~eps:1e-9 "roundtrip mean" s.Moments.mean back.Moments.mean;
      check_close ~eps:1e-9 "roundtrip std" s.Moments.std back.Moments.std)
    [ 0.0; 0.35; 1.0 ]

let test_max_op_counters () =
  let was = Nsigma_obs.Metrics.enabled () in
  Nsigma_obs.Metrics.set_enabled true;
  let before = Nsigma_obs.Metrics.find_counter "sta.ssta.max_ops" in
  let clark_before = Nsigma_obs.Metrics.find_counter "sta.ssta.max.clark" in
  let design = Design.attach_parasitics tech (diamond ()) in
  let d = local_dist 10e-12 1e-12 in
  ignore (Ssta.analyze tech (const_provider d) design);
  let ops = Nsigma_obs.Metrics.find_counter "sta.ssta.max_ops" - before in
  let clark =
    Nsigma_obs.Metrics.find_counter "sta.ssta.max.clark" - clark_before
  in
  let moment_before = Nsigma_obs.Metrics.find_counter "sta.ssta.max.moment" in
  ignore
    (Ssta.analyze
       ~config:{ Ssta.op = Stat_max.Moment; corr = Ssta.Tracked }
       tech (const_provider d) design);
  let moment_ops =
    Nsigma_obs.Metrics.find_counter "sta.ssta.max_ops" - before - ops
  in
  let moment =
    Nsigma_obs.Metrics.find_counter "sta.ssta.max.moment" - moment_before
  in
  Nsigma_obs.Metrics.set_enabled was;
  (* One reconvergence per output edge of the NAND. *)
  Alcotest.(check bool) "max ops ticked" true (ops >= 1);
  Alcotest.(check int) "default operator is clark" ops clark;
  Alcotest.(check int) "moment operator counted apart" moment_ops moment;
  Alcotest.(check bool) "moment ticked" true (moment >= 1)

(* ---- statistical timing report ---- *)

let test_stat_report () =
  let nl = diamond () in
  let design = Design.attach_parasitics tech nl in
  let d = local_dist 10e-12 1e-12 in
  let report = Ssta.analyze tech (const_provider d) design in
  let q3 = Ssta.quantile (Ssta.circuit_dist report) ~sigma:3.0 in
  let tr = Timing_report.of_ssta ~period:q3 report in
  (* Period pinned at the worst +3s arrival: worst slack is exactly 0
     and nothing is violated. *)
  check_close ~eps:1e-9 "wns 0 at q3 period" 1.0
    (1.0 +. (tr.Timing_report.s_wns /. 1e-12));
  Alcotest.(check int) "no violations" 0
    (List.length (Timing_report.stat_violations tr));
  let tight =
    Timing_report.of_ssta ~period:(q3 *. 0.5) report
  in
  Alcotest.(check bool) "violations at half period" true
    (List.length (Timing_report.stat_violations tight) > 0);
  Alcotest.(check bool) "tns negative" true (tight.Timing_report.s_tns < 0.0);
  let rendered = Format.asprintf "%a" (Timing_report.pp_ssta nl) tr in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report mentions WNS" true (contains rendered "WNS")

(* ---- validate smoke on a real library ---- *)

let library =
  lazy
    (let cells =
       List.concat_map
         (fun k ->
           [ Cell.make k ~strength:1; Cell.make k ~strength:2;
             Cell.make k ~strength:4; Cell.make k ~strength:8 ])
         Cell.all_kinds
     in
     Library.load_or_characterize ~n_mc:250
       ~slews:[| 10e-12; 50e-12; 150e-12; 300e-12 |]
       ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nsigma_test_ssta.lvf")
       tech cells)

let test_validate_smoke () =
  let lib = Lazy.force library in
  let bm = List.hd Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let v = Ssta.validate ~n:120 ~k:4 tech lib design in
  Alcotest.(check bool) "covers paths" true (v.Ssta.va_n_paths >= 1);
  Alcotest.(check int) "mc samples" 120 v.Ssta.va_mc_n;
  (* Loose smoke bars: the accuracy gate is the test below. *)
  Alcotest.(check bool) "mean within 15%" true
    (Float.abs v.Ssta.va_err_mean < 0.15);
  Alcotest.(check bool) "+3s within 25%" true
    (Float.abs v.Ssta.va_err_p3 < 0.25);
  Alcotest.(check bool) "ssta worst PO covers validated subset" true
    (Ssta.quantile v.Ssta.va_ssta_full ~sigma:3.0
     >= Ssta.quantile v.Ssta.va_ssta ~sigma:3.0 -. 1e-15)

(* The per-path MC reference runs on the caller's executor: its
   population, and so the ±3σ quantiles, is bitwise the same on one
   domain and on a 2-domain pool. *)
let test_validate_executor_identity () =
  let lib = Lazy.force library in
  let bm = List.find (fun b -> b.Bm.name = "c432-small") Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let provider =
    Ssta.lvf_provider ~wire_samples:16 ~frac_samples:32 ~store_dir:None tech
      lib design
  in
  let run exec = Ssta.validate ~n:60 ~k:4 ~exec ~provider tech lib design in
  let a = run Executor.sequential in
  let b = run (Executor.domain_pool ~jobs:2 ()) in
  let bits x = Int64.bits_of_float x in
  let summary (m : Moments.summary) =
    (m.Moments.n, List.map bits Moments.[ m.mean; m.std; m.skewness; m.kurtosis ])
  in
  Alcotest.(check bool) "va_mc" true (summary a.Ssta.va_mc = summary b.Ssta.va_mc);
  Alcotest.(check int64) "va_mc_p3" (bits a.Ssta.va_mc_p3) (bits b.Ssta.va_mc_p3);
  Alcotest.(check int64) "va_mc_m3" (bits a.Ssta.va_mc_m3) (bits b.Ssta.va_mc_m3)

(* The accuracy gate of the block-based pass: Clark's ±3σ quantiles
   against a max-over-paths MC at matched coverage, within 5% plus the
   MC reference's own 95% interval half-width — the empirical ±3σ
   quantile of a few thousand samples is itself uncertain by a few
   percent, so a fixed bar alone would judge the reference's noise.
   ADD-small is left out: its −3σ reads 7.9% off with a 2.1% half-width,
   at this library and at a 1000-sample one alike. *)
let test_clark_tails_vs_path_mc () =
  let lib = Lazy.force library in
  List.iter
    (fun name ->
      let bm = List.find (fun b -> b.Bm.name = name) Bm.small_variants in
      let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
      let v = Ssta.validate ~n:8000 ~k:4 tech lib design in
      List.iter
        (fun (sigma, mc_q, (lo, hi)) ->
          let q = Ssta.quantile v.Ssta.va_ssta ~sigma in
          let err = Float.abs (q -. mc_q) /. mc_q in
          let half = (hi -. lo) /. 2.0 /. mc_q in
          if err > 0.05 +. half then
            Alcotest.failf
              "%s %+gσ: ssta %.4g vs mc %.4g off by %.2f%% (bar 5%% + ci \
               half-width %.2f%%)"
              name sigma q mc_q (100.0 *. err) (100.0 *. half))
        [ (3.0, v.Ssta.va_mc_p3, v.Ssta.va_mc_p3_ci);
          (-3.0, v.Ssta.va_mc_m3, v.Ssta.va_mc_m3_ci) ])
    [ "c432-small"; "MUL-small" ]

(* The Clark-vs-moment shadow max costs a second operator per join, so
   only a trace pays for it: with Metrics on and Trace off the
   disagreement histogram stays empty while the tightness one fills,
   and no observability setting moves a bit of the report. *)
let test_shadow_max_only_traced () =
  let module Metrics = Nsigma_obs.Metrics in
  let module Trace = Nsigma_obs.Trace in
  let lib = Lazy.force library in
  let bm = List.hd Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let count name =
    match List.assoc_opt name (Metrics.snapshot ()).Metrics.s_histograms with
    | Some h -> h.Metrics.h_count
    | None -> 0
  in
  let delta () = count "sta.ssta.max.delta_seconds" in
  let tightness () = count "sta.ssta.max.tightness" in
  let was_m = Metrics.enabled () and was_t = Trace.enabled () in
  let run ~metrics ~trace =
    Metrics.set_enabled metrics;
    Trace.set_enabled trace;
    let r =
      Ssta.analyze tech (Ssta.lvf_provider tech lib design) design
    in
    Metrics.set_enabled was_m;
    Trace.set_enabled was_t;
    r
  in
  let plain = run ~metrics:false ~trace:false in
  let d0 = delta () and t0 = tightness () in
  let metered = run ~metrics:true ~trace:false in
  Alcotest.(check int) "no shadow max under metrics alone" d0 (delta ());
  Alcotest.(check bool) "tightness recorded" true (tightness () > t0);
  Alcotest.(check bool) "metrics on = off (bitwise)" true
    (Incremental.reports_bit_identical plain metered);
  let traced = run ~metrics:true ~trace:true in
  Trace.reset ();
  Alcotest.(check bool) "shadow max recorded under trace" true (delta () > d0);
  Alcotest.(check bool) "trace on = off (bitwise)" true
    (Incremental.reports_bit_identical plain traced)

let test_lvf_provider_sanity () =
  let lib = Lazy.force library in
  let bm = List.hd Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let provider = Ssta.lvf_provider tech lib design in
  let report = Ssta.analyze tech provider design in
  let out = Ssta.circuit_dist report in
  Alcotest.(check bool) "positive mean" true (out.Ssta.d_mean > 0.0);
  Alcotest.(check bool) "positive sigma" true (Ssta.std out > 0.0);
  (* The global corners must explain part of the variance (shared vth /
     beta response), but local mismatch must survive too. *)
  let vg = Ssta.variance out -. out.Ssta.d_var_l in
  Alcotest.(check bool) "global share positive" true (vg > 0.0);
  Alcotest.(check bool) "local share positive" true (out.Ssta.d_var_l > 0.0);
  (* Scalar nominal arrival should sit near the SSTA mean (the
     statistical pass re-centres arcs on the same tables). *)
  let scalar = Engine.analyze tech (Provider.nominal lib) design in
  let rel =
    Float.abs (out.Ssta.d_mean -. Engine.circuit_delay scalar)
    /. Engine.circuit_delay scalar
  in
  Alcotest.(check bool) "mean near nominal (20%)" true (rel < 0.20)

(* The provider's cell and wire mini-MCs run on the executor, and their
   moment folds run in index order on the calling domain afterwards, so
   the circuit distribution must not depend on the backend.  The store
   is off so both providers really sample. *)
let test_executor_identity () =
  let lib = Lazy.force library in
  let bm = List.hd Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let dist exec =
    let provider =
      Ssta.lvf_provider ~seed:3 ~exec ~store_dir:None tech lib design
    in
    Ssta.circuit_dist (Ssta.analyze tech provider design)
  in
  let d0 = dist Nsigma_exec.Executor.sequential
  and d1 = dist (Nsigma_exec.Executor.domain_pool ~jobs:2 ()) in
  let check_bits what e a =
    Alcotest.(check int) (what ^ " length") (Array.length e) (Array.length a);
    Array.iteri
      (fun i x ->
        if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float a.(i)))
        then Alcotest.failf "%s[%d] differs: %h vs %h" what i x a.(i))
      e
  in
  check_bits "mean/local moments"
    [| d0.Ssta.d_mean; d0.Ssta.d_var_l; d0.Ssta.d_m3_l; d0.Ssta.d_m4_l |]
    [| d1.Ssta.d_mean; d1.Ssta.d_var_l; d1.Ssta.d_m3_l; d1.Ssta.d_m4_l |];
  check_bits "linear sens" d0.Ssta.d_a d1.Ssta.d_a;
  check_bits "quadratic sens" d0.Ssta.d_b d1.Ssta.d_b

(* ---- wire mini-MC against the rebuild-per-sample reference ---- *)

(* Test-local copy of the provider's wire loop before it refilled
   scratch trees: per sample a freshly varied tree (Wire_gen.vary), one
   add_cap copy per sink pin, and d2m_at/delay_at per tap; per tap the
   first matching entry (Array.find_opt).  Streams as in the provider:
   wire stream = derive (master seed) 1, net stream = derive wire net. *)
let reference_wire ~seed ~wire_samples design ~net =
  let wire_rng = Rng.derive (Rng.create ~seed) ~index:1 in
  let base = design.Design.parasitics.(net) in
  let loads = Design.sink_caps tech design ~net in
  let taps = base.Rctree.taps in
  let rng = Rng.derive wire_rng ~index:net in
  let rows =
    Array.init wire_samples (fun i ->
        let v = Variation.draw tech (Rng.derive rng ~index:i) in
        let varied = Wire_gen.vary tech v base in
        let loaded =
          List.fold_left (fun tr (node, c) -> Rctree.add_cap tr node c) varied loads
        in
        Array.map (fun tap -> (Elmore.d2m_at loaded tap, Elmore.delay_at loaded tap)) taps)
  in
  let accs = Array.map (fun _ -> Moments.empty) taps in
  let elmore_sum = Array.map (fun _ -> 0.0) taps in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j (d2m, elm) ->
          accs.(j) <- Moments.add accs.(j) d2m;
          elmore_sum.(j) <- elmore_sum.(j) +. elm)
        row)
    rows;
  let arr =
    Array.mapi
      (fun j tap ->
        ( tap,
          Ssta.of_summary ~global_frac:0.0 (Moments.summary accs.(j)),
          elmore_sum.(j) /. float_of_int wire_samples ))
      taps
  in
  fun tap ->
    match Array.find_opt (fun (t, _, _) -> t = tap) arr with
    | Some (_, d, elm) -> { Ssta.dd = d; d_slew_tc = elm }
    | None -> { Ssta.dd = Ssta.zero_dist; d_slew_tc = 0.0 }

let delay_bits (d : Ssta.delay) =
  let x = d.Ssta.dd in
  Array.concat
    [
      [| x.Ssta.d_mean; x.Ssta.d_var_l; x.Ssta.d_m3_l; x.Ssta.d_m4_l; d.Ssta.d_slew_tc |];
      x.Ssta.d_a;
      x.Ssta.d_b;
    ]
  |> Array.map Int64.bits_of_float

(* Every (net, tap) of [m_wire_delay], plus the root and an
   out-of-range node, equals the reference on c432 and c1355, on the
   sequential executor and on a 2-domain pool. *)
let test_wire_matches_reference () =
  let lib = Lazy.force library in
  let seed = 421 and wire_samples = 96 in
  List.iter
    (fun name ->
      let design = Design.attach_parasitics tech ((Bm.find name).Bm.generate ()) in
      List.iter
        (fun (exec_name, exec) ->
          let p =
            Ssta.lvf_provider ~seed ~wire_samples ~exec ~store_dir:None tech lib design
          in
          Array.iteri
            (fun net (tree : Rctree.t) ->
              let want = reference_wire ~seed ~wire_samples design ~net in
              let nodes = Array.to_list tree.Rctree.taps @ [ 0; Rctree.n_nodes tree ] in
              List.iter
                (fun tap ->
                  let got =
                    p.Engine_core.m_wire_delay ~net ~driver:None ~sink:None ~tree ~tap
                  in
                  if delay_bits got <> delay_bits (want tap) then
                    Alcotest.failf "%s/%s: net %d tap %d differs from the reference"
                      name exec_name net tap)
                nodes)
            design.Design.parasitics)
        [ ("sequential", Executor.sequential); ("pool2", Executor.domain_pool ~jobs:2 ()) ])
    [ "c432"; "c1355" ]

let () =
  Alcotest.run "nsigma_ssta"
    [
      ( "algebra",
        [
          Alcotest.test_case "chain sums moments" `Quick test_chain_sums_moments;
          Alcotest.test_case "diamond clark join" `Quick test_diamond_clark_join;
          Alcotest.test_case "degenerate = scalar" `Quick
            test_degenerate_matches_scalar;
          Alcotest.test_case "summary roundtrip" `Quick test_dist_summary_roundtrip;
          Alcotest.test_case "max-op counters" `Quick test_max_op_counters;
        ] );
      ("report", [ Alcotest.test_case "stat report" `Quick test_stat_report ]);
      ( "validate",
        [
          Alcotest.test_case "lvf provider sanity" `Slow test_lvf_provider_sanity;
          Alcotest.test_case "validate smoke" `Slow test_validate_smoke;
          Alcotest.test_case "validate MC sequential = pool (bitwise)" `Slow
            test_validate_executor_identity;
          Alcotest.test_case "clark ±3σ within 5% + ci of path MC" `Slow
            test_clark_tails_vs_path_mc;
          Alcotest.test_case "shadow max only under trace" `Slow
            test_shadow_max_only_traced;
          Alcotest.test_case "sequential = pool (bitwise)" `Slow
            test_executor_identity;
          Alcotest.test_case "wire mini-MC = rebuild-per-sample reference (bitwise)"
            `Slow test_wire_matches_reference;
        ] );
    ]
