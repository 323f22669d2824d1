(* Telemetry layer: registry semantics, determinism of the merged view,
   the zero-perturbation invariant (metrics on vs off must be
   bit-identical), and the run-report surface. *)

module Log = Nsigma_obs.Log
module Metrics = Nsigma_obs.Metrics
module Report = Nsigma_obs.Report
module Progress = Nsigma_obs.Progress
module T = Nsigma_process.Technology
module Rng = Nsigma_stats.Rng
module Cell = Nsigma_liberty.Cell
module Ch = Nsigma_liberty.Characterize
module Library = Nsigma_liberty.Library
module Monte_carlo = Nsigma_spice.Monte_carlo
module Cell_sim = Nsigma_spice.Cell_sim
module Executor = Nsigma_exec.Executor

let tech = T.with_vdd T.default_28nm 0.6

(* Well-known metric keys are registered by their modules' initialisers;
   reference Path_mc so the linker keeps it (the report-keys test checks
   its counters are present). *)
let _force_path_mc_linkage = Nsigma_sta.Path_mc.run

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ----- logging ----- *)

let test_log_level_parsing () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %S" s)
        true
        (Log.level_of_string s = expect))
    [
      ("quiet", Some Log.Quiet); ("off", Some Log.Quiet);
      ("none", Some Log.Quiet); ("warn", Some Log.Warn);
      ("WARNING", Some Log.Warn); ("Info", Some Log.Info);
      ("debug", Some Log.Debug); ("garbage", None); ("", None);
    ]

let test_log_level_gating () =
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () -> Log.set_level saved)
    (fun () ->
      Log.set_level Log.Quiet;
      Alcotest.(check bool) "quiet silences warn" false (Log.enabled Log.Warn);
      Alcotest.(check bool) "quiet silences debug" false (Log.enabled Log.Debug);
      Log.set_level Log.Warn;
      Alcotest.(check bool) "warn enables warn" true (Log.enabled Log.Warn);
      Alcotest.(check bool) "warn silences info" false (Log.enabled Log.Info);
      Log.set_level Log.Debug;
      Alcotest.(check bool) "debug enables info" true (Log.enabled Log.Info))

let test_log_kv () =
  Alcotest.(check string)
    "kv rendering" " a=1 b=x"
    (Log.kv [ ("a", "1"); ("b", "x") ])

(* ----- registry ----- *)

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled was)
    f

let test_counter_disabled_noop () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test.disabled" in
  Metrics.incr c;
  Metrics.incr c ~by:41;
  Alcotest.(check int) "disabled counter stays 0" 0 (Metrics.counter_value c)

let test_counter_merge_across_domains () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.merge" in
      let h = Metrics.histogram "test.merge.hist" in
      let worker () =
        for _ = 1 to 1000 do
          Metrics.incr c;
          Metrics.observe h 1e-6
        done
      in
      let domains = List.init 3 (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join domains;
      Alcotest.(check int)
        "4 domains x 1000 increments" 4000 (Metrics.counter_value c);
      let snap = Metrics.snapshot () in
      let view = List.assoc "test.merge.hist" snap.Metrics.s_histograms in
      Alcotest.(check int) "histogram count merged" 4000 view.Metrics.h_count;
      (* Every observation was 1 us: exactly one non-empty bucket. *)
      Alcotest.(check int)
        "single bucket" 1
        (List.length view.Metrics.h_buckets))

let test_snapshot_sorted_and_deterministic () =
  with_metrics (fun () ->
      ignore (Metrics.counter "test.zzz");
      ignore (Metrics.counter "test.aaa");
      let names = ref [] in
      let snap = Metrics.snapshot () in
      List.iter (fun (n, _) -> names := n :: !names) snap.Metrics.s_counters;
      let names = List.rev !names in
      Alcotest.(check bool)
        "counter names sorted" true
        (names = List.sort String.compare names);
      let snap2 = Metrics.snapshot () in
      Alcotest.(check bool)
        "snapshot is reproducible" true
        (snap.Metrics.s_counters = snap2.Metrics.s_counters))

let test_timer_and_span () =
  with_metrics (fun () ->
      let t = Metrics.timer "test.timer" in
      Metrics.add_time t 0.25;
      Metrics.add_time t 0.75;
      let n, s = Metrics.timer_value t in
      Alcotest.(check int) "two observations" 2 n;
      Alcotest.(check (float 1e-9)) "accumulated seconds" 1.0 s;
      let r = Metrics.span "test_stage" (fun () -> 42) in
      Alcotest.(check int) "span returns the body's value" 42 r;
      let n, _ = Metrics.timer_value (Metrics.timer "stage.test_stage") in
      Alcotest.(check int) "span recorded one interval" 1 n)

let test_gauge_max () =
  with_metrics (fun () ->
      let g = Metrics.gauge "test.gauge" in
      Metrics.max_gauge g 2.0;
      Metrics.max_gauge g 1.0;
      Alcotest.(check (float 1e-9)) "max wins" 2.0 (Metrics.gauge_value g))

let test_histogram_percentiles () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.pct.hist" in
      (* 90 ~1us observations and 10 ~1ms ones: p50 must land in the
         fast bucket, p95/p99 in the slow one, and the order must
         hold.  The log-scale buckets make these coarse bounds. *)
      for _ = 1 to 90 do
        Metrics.observe h 1e-6
      done;
      for _ = 1 to 10 do
        Metrics.observe h 1e-3
      done;
      let snap = Metrics.snapshot () in
      let v = List.assoc "test.pct.hist" snap.Metrics.s_histograms in
      Alcotest.(check int) "count" 100 v.Metrics.h_count;
      Alcotest.(check bool) "p50 in the fast bucket" true
        (v.Metrics.h_p50 > 0.0 && v.Metrics.h_p50 < 1e-5);
      Alcotest.(check bool) "p95 in the slow bucket" true
        (v.Metrics.h_p95 > 1e-4);
      Alcotest.(check bool) "percentiles ordered" true
        (v.Metrics.h_p50 <= v.Metrics.h_p95
        && v.Metrics.h_p95 <= v.Metrics.h_p99);
      let json = Report.to_json () in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "report contains %S" needle)
            true
            (contains ~needle json))
        [ "\"p50\":"; "\"p95\":"; "\"p99\":" ])

(* ----- the zero-perturbation invariant ----- *)

let mc_population () =
  let g = Rng.create ~seed:5 in
  let cell = Cell.make Cell.Inv ~strength:1 in
  Monte_carlo.delays_counted tech g ~n:200 (fun sample ->
      let arc = Cell.arc tech sample cell ~output_edge:`Fall in
      (Cell_sim.simulate_fast tech arc ~input_slew:20e-12 ~load_cap:1e-15)
        .Cell_sim.delay)

let test_mc_bit_identical_metrics_on_off () =
  Metrics.set_enabled false;
  let off = mc_population () in
  let on = with_metrics mc_population in
  Alcotest.(check bool)
    "same-seed populations bit-identical with metrics on vs off" true
    (off.Monte_carlo.delays = on.Monte_carlo.delays
    && off.Monte_carlo.n_failed = on.Monte_carlo.n_failed)

let small_table () =
  Ch.characterize ~n_mc:40 ~seed:3 ~slews:[| 10e-12; 60e-12 |]
    ~loads:[| 0.5e-15; 2e-15 |] ~exec:Executor.sequential
    ~kernel:Cell_sim.Fast tech
    (Cell.make Cell.Nand2 ~strength:1)
    ~edge:`Fall

let test_characterize_bit_identical_metrics_on_off () =
  Metrics.set_enabled false;
  let off = small_table () in
  let on = with_metrics small_table in
  Alcotest.(check bool)
    "characterised tables bit-identical with metrics on vs off" true
    (off.Ch.points = on.Ch.points)

(* ----- pipeline counters ----- *)

let test_non_convergence_counted () =
  with_metrics (fun () ->
      let before = Metrics.find_counter "mc.non_convergent" in
      let g = Rng.create ~seed:7 in
      let i = ref 0 in
      let r =
        Monte_carlo.delays_counted ~exec:Executor.sequential tech g ~n:50
          (fun _sample ->
            incr i;
            if !i mod 5 = 0 then failwith "synthetic non-convergence"
            else 1e-12)
      in
      Alcotest.(check int) "10 of 50 failed" 10 r.Monte_carlo.n_failed;
      Alcotest.(check int)
        "surfaced as mc.non_convergent" 10
        (Metrics.find_counter "mc.non_convergent" - before))

(* The per-layer counters and timers run reports are read for tick when
   their layer works under Metrics: both kernels, the plan layer's fills
   and the adaptive sampler's batches and saved samples. *)
let test_layer_counters () =
  with_metrics (fun () ->
      ignore (small_table () : Ch.table);
      let cell = Cell.make Cell.Inv ~strength:1 in
      let arc =
        Cell.arc tech Nsigma_process.Variation.nominal cell ~output_edge:`Fall
      in
      ignore (Cell_sim.simulate tech arc ~input_slew:20e-12 ~load_cap:1e-15);
      ignore
        (Monte_carlo.arc_delays_sampled ~exec:Executor.sequential
           ~kernel:Cell_sim.Fast ~sampling:Nsigma_stats.Sampler.Lhs ~rtol:0.5
           tech (Rng.create ~seed:3) ~n:1024
           ~plan:(fun () -> Cell.plan tech cell ~output_edge:`Rise)
           ~input_slew:20e-12 ~load_cap:1e-15);
      List.iter
        (fun key ->
          if Metrics.find_counter key <= 0 then
            Alcotest.failf "counter %s did not tick" key)
        [ "kernel.fast.calls"; "kernel.rk4.calls"; "plan.fills";
          "sampling.batches"; "sampling.samples_saved" ];
      let timers = (Metrics.snapshot ()).Metrics.s_timers in
      List.iter
        (fun key ->
          match List.assoc_opt key timers with
          | Some (n, _) when n > 0 -> ()
          | _ -> Alcotest.failf "timer %s did not tick" key)
        [ "plan.compile.seconds"; "plan.fill.seconds" ])

let test_lvf_cache_metrics () =
  with_metrics (fun () ->
      let path = Filename.temp_file "nsigma_obs_cache" ".lvf" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let cells = [ Cell.make Cell.Inv ~strength:1 ] in
          let characterize () =
            Library.load_or_characterize ~n_mc:40 ~seed:3
              ~slews:[| 10e-12; 60e-12 |] ~edges:[ `Fall ]
              ~exec:Executor.sequential ~kernel:Cell_sim.Fast ~path tech cells
          in
          let miss0 = Metrics.find_counter "lvf.cache.miss" in
          let hit0 = Metrics.find_counter "lvf.cache.hit" in
          ignore (characterize ());
          Alcotest.(check int)
            "first run misses" 1
            (Metrics.find_counter "lvf.cache.miss" - miss0);
          ignore (characterize ());
          Alcotest.(check int)
            "second run hits" 1
            (Metrics.find_counter "lvf.cache.hit" - hit0);
          (* Corrupt the header: stale, not a miss. *)
          let stale0 = Metrics.find_counter "lvf.cache.stale" in
          let oc = open_out path in
          output_string oc "NSIGMA_LIB 3 open28 0.600000 fast deadbeef\nEND\n";
          close_out oc;
          ignore (characterize ());
          Alcotest.(check int)
            "corrupt cache counts as stale" 1
            (Metrics.find_counter "lvf.cache.stale" - stale0)))

(* ----- run report ----- *)

let test_report_json_keys () =
  with_metrics (fun () ->
      let json = Report.to_json ~elapsed:1.5 () in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "report contains %S" needle)
            true
            (contains ~needle json))
        [
          "\"schema\": \"nsigma-run-report\"";
          "\"schema_version\": 1";
          "kernel.auto.fallback";
          "kernel.rk4.steps";
          "lvf.cache.hit";
          "lvf.cache.miss";
          "mc.non_convergent";
          "path_mc.samples";
          "exec.worker.busy";
          "characterize.points";
        ])

let test_report_json_parses () =
  (* No JSON parser in the dependency set: check structural invariants
     the hand-rolled serialiser must maintain. *)
  with_metrics (fun () ->
      Metrics.incr (Metrics.counter "test.report") ~by:3;
      Metrics.observe (Metrics.histogram "test.report.hist") 2e-9;
      let json = Report.to_json () in
      let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 json in
      Alcotest.(check int) "balanced braces" (count '{') (count '}');
      Alcotest.(check int) "balanced brackets" (count '[') (count ']');
      Alcotest.(check bool) "even quote count" true (count '"' mod 2 = 0);
      Alcotest.(check bool)
        "no trailing comma" false
        (contains ~needle:",}" json || contains ~needle:", }" json))

let test_summary_nonempty () =
  with_metrics (fun () ->
      Metrics.incr (Metrics.counter "test.summary") ~by:7;
      let s = Report.summary ~elapsed:0.1 () in
      Alcotest.(check bool)
        "summary mentions the counter" true
        (contains ~needle:"test.summary" s))

let test_progress_inactive_when_not_tty () =
  (* Test stderr is a pipe under dune: even enabled, the ticker must
     stay inert and with_bar must still run the body. *)
  Progress.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Progress.set_enabled false)
    (fun () ->
      Alcotest.(check bool)
        "no TTY, no rendering" false (Progress.active ());
      let hits = ref 0 in
      let r =
        Progress.with_bar ~label:"t" ~total:5 (fun tick ->
            for _ = 1 to 5 do
              tick ();
              incr hits
            done;
            "done")
      in
      Alcotest.(check string) "body result returned" "done" r;
      Alcotest.(check int) "body ran" 5 !hits)

let () =
  Alcotest.run "obs"
    [
      ( "log",
        [
          Alcotest.test_case "level parsing" `Quick test_log_level_parsing;
          Alcotest.test_case "level gating" `Quick test_log_level_gating;
          Alcotest.test_case "kv rendering" `Quick test_log_kv;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_counter_disabled_noop;
          Alcotest.test_case "merge across domains" `Quick
            test_counter_merge_across_domains;
          Alcotest.test_case "snapshot sorted + deterministic" `Quick
            test_snapshot_sorted_and_deterministic;
          Alcotest.test_case "timers and spans" `Quick test_timer_and_span;
          Alcotest.test_case "max gauge" `Quick test_gauge_max;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "MC bit-identical on/off" `Quick
            test_mc_bit_identical_metrics_on_off;
          Alcotest.test_case "characterize bit-identical on/off" `Quick
            test_characterize_bit_identical_metrics_on_off;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "non-convergence counted" `Quick
            test_non_convergence_counted;
          Alcotest.test_case "lvf cache hit/miss/stale" `Quick
            test_lvf_cache_metrics;
          Alcotest.test_case "layer counters tick" `Quick test_layer_counters;
        ] );
      ( "report",
        [
          Alcotest.test_case "well-known keys" `Quick test_report_json_keys;
          Alcotest.test_case "structural JSON invariants" `Quick
            test_report_json_parses;
          Alcotest.test_case "summary table" `Quick test_summary_nonempty;
          Alcotest.test_case "progress inert without TTY" `Quick
            test_progress_inactive_when_not_tty;
        ] );
    ]
