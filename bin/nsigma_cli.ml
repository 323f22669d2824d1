(* Command-line front end for the N-sigma delay calibration flow.

   Subcommands:
     characterize  run Monte-Carlo cell characterisation into a library file
     fit           fit the N-sigma model from a library and store coefficients
     analyze       statistical STA of a circuit (built-in benchmark or
                   Verilog-lite file) at the requested sigma levels
     report        inspect a library file (cells, reference moments)

   Examples:
     nsigma characterize --vdd 0.6 --mc 2000 -o lib.lvf
     nsigma fit --library lib.lvf -o model.coeffs
     nsigma analyze --library lib.lvf --circuit c432 --sigma 3 --mc 500
     nsigma analyze --library lib.lvf --verilog design.v *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Ch = Nsigma_liberty.Characterize
module Model = Nsigma.Model
module Bm = Nsigma_netlist.Benchmarks
module N = Nsigma_netlist.Netlist
module V = Nsigma_netlist.Verilog_lite
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Provider = Nsigma_sta.Provider
module Path = Nsigma_sta.Path
module Path_mc = Nsigma_sta.Path_mc
module Ssta = Nsigma_sta.Ssta
module Incremental = Nsigma_sta.Incremental
module Edit = Nsigma_netlist.Edit
module Stat_max = Nsigma_stats.Stat_max
module Moments = Nsigma_stats.Moments
module Sampler = Nsigma_stats.Sampler
module Timing_report = Nsigma_sta.Timing_report
module Executor = Nsigma_exec.Executor
module Cell_sim = Nsigma_spice.Cell_sim
module Server = Nsigma_server.Server
module Sclient = Nsigma_server.Client
module Sproto = Nsigma_server.Protocol
module Metrics = Nsigma_obs.Metrics
module Obs_report = Nsigma_obs.Report
module Obs_trace = Nsigma_obs.Trace
module Monotonic = Nsigma_obs.Monotonic
module Progress = Nsigma_obs.Progress

open Cmdliner

let tech_of_vdd vdd = T.with_vdd T.default_28nm vdd

let all_cells =
  List.concat_map
    (fun k -> List.map (fun s -> Cell.make k ~strength:s) Cell.standard_strengths)
    Cell.all_kinds

(* ---- common arguments ---- *)

let vdd_arg =
  let doc = "Supply voltage of the corner (V)." in
  Arg.(value & opt float 0.6 & info [ "vdd" ] ~docv:"VOLTS" ~doc)

let library_arg =
  let doc = "Characterised library file (.lvf)." in
  Arg.(required & opt (some string) None & info [ "library"; "l" ] ~docv:"FILE" ~doc)

let mc_arg default =
  let doc = "Monte-Carlo samples." in
  Arg.(value & opt int default & info [ "mc" ] ~docv:"N" ~doc)

(* Numeric flag validation: fail at parse time with a descriptive
   message instead of surfacing a deep Invalid_argument mid-run. *)
let check_mc ~allow_zero mc =
  if mc < 0 || ((not allow_zero) && mc = 0) then
    failwith
      (Printf.sprintf "--mc must be %s (got %d)"
         (if allow_zero then "zero (skip Monte-Carlo) or positive"
          else "positive")
         mc)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo sampling: 1 runs sequentially, 0 \
     auto-detects the core count.  Defaults to $(b,NSIGMA_JOBS) (unset: \
     sequential).  Results are bit-identical at every setting."
  in
  Arg.(value & opt (some string) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Closed-choice flags go through Arg.enum so a typo is rejected at
   parse time with the valid spellings listed, instead of surfacing as
   a raw exception from the name-to-variant conversion. *)
let kernel_conv =
  Arg.enum
    [ ("fast", Cell_sim.Fast); ("rk4", Cell_sim.Rk4); ("auto", Cell_sim.Auto) ]

let kernel_arg =
  let doc =
    "Simulation kernel: $(b,fast) (analytic effective-current), $(b,rk4) \
     (adaptive Runge-Kutta reference) or $(b,auto) (fast with RK4 \
     fallback).  Defaults to $(b,NSIGMA_KERNEL) (unset: fast for \
     characterisation, rk4 for path Monte-Carlo)."
  in
  Arg.(value & opt (some kernel_conv) None & info [ "kernel" ] ~docv:"NAME" ~doc)

let sampling_conv =
  Arg.enum
    [ ("mc", Sampler.Mc); ("antithetic", Sampler.Antithetic);
      ("lhs", Sampler.Lhs); ("sobol", Sampler.Sobol); ("pcm", Sampler.Pcm) ]

let sampling_arg =
  let doc =
    "Deviate stream for Monte-Carlo sampling: $(b,mc) (independent \
     pseudo-random, the bit-exact legacy stream), $(b,antithetic) \
     (paired ±z), $(b,lhs) (Latin hypercube), $(b,sobol) (scrambled \
     Sobol') or $(b,pcm) (probabilistic collocation: simulate only the \
     O(d²) Hermite collocation points, replay the MC population through \
     a fitted second-order surrogate).  Defaults to $(b,NSIGMA_SAMPLING) \
     (unset: mc).  Delay populations depend on the choice; mc reproduces \
     pre-sampler runs exactly."
  in
  Arg.(value & opt (some sampling_conv) None & info [ "sampling" ] ~docv:"NAME" ~doc)

let rtol_arg =
  let doc =
    "Adaptive stopping: keep sampling in doubling batches until both ±3σ \
     quantile confidence intervals are within this relative tolerance \
     (e.g. 0.02), capped at the $(b,--mc) sample count.  Off by default \
     (fixed sample counts, golden runs unchanged)."
  in
  Arg.(value & opt (some float) None & info [ "rtol" ] ~docv:"TOL" ~doc)

(* Resolve the CLI sampling flags and record them as run-report context. *)
let sampling_of_flags sampling rtol =
  let backend =
    match sampling with
    | Some backend -> backend
    | None -> Sampler.default_backend ()
  in
  (match rtol with
  | Some r when r <= 0.0 -> failwith "--rtol must be positive"
  | _ -> ());
  Obs_report.set_context "sampling" (Sampler.backend_name backend);
  Obs_report.set_context "rtol"
    (match rtol with None -> "off" | Some r -> Printf.sprintf "%.9g" r);
  (backend, rtol)

let provider_cache_arg =
  let doc =
    "On-disk store for the SSTA provider's per-(cell, edge) moment \
     regressions: artifacts are content-addressed by the library \
     fingerprint and provider knobs, so a warm start is bitwise \
     identical to a cold one.  Pass a directory to pin it, $(b,off) to \
     disable.  Defaults to $(b,NSIGMA_PROVIDER_CACHE) (unset: no \
     store)."
  in
  Arg.(value & opt (some string) None & info [ "provider-cache" ] ~docv:"DIR" ~doc)

(* None → omit the argument (env default applies); "off" → explicitly
   disabled; anything else → pinned directory. *)
let store_dir_of = function
  | None -> None
  | Some "off" -> Some None
  | Some dir -> Some (Some dir)

let metrics_arg =
  let doc =
    "Enable the metrics registry and write a schema-versioned JSON run \
     report to $(docv) at exit ($(b,-) prints a summary table to stderr \
     instead).  Defaults to $(b,NSIGMA_METRICS).  Instrumentation never \
     perturbs sampled values: delay populations and .lvf tables are \
     bit-identical with metrics on or off."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Enable the trace collector and write a Chrome trace-event JSON file \
     to $(docv) at exit (open in Perfetto or chrome://tracing; one track \
     per worker domain) plus a collapsed-stack flamegraph next to it \
     ($(docv).folded).  Defaults to $(b,NSIGMA_TRACE).  Tracing never \
     perturbs sampled values: populations are bit-identical with tracing \
     on or off."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Show a sampled stderr progress ticker with ETA for characterisation \
     grids and path Monte-Carlo populations.  Auto-disabled when stderr \
     is not a TTY or $(b,NSIGMA_LOG=quiet)."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* Expected CLI-usage failures (bad observability paths) exit with code
   2 and a one-line message — never a raw Sys_error backtrace from an
   at_exit writer hours into a run. *)
exception Cli_error of string

(* Validated at the CLI seam so a typo'd worker count surfaces as a
   one-line exit-2 message naming the offending value, not as a raw
   exception from the executor.  0 keeps its documented auto-detect
   meaning; negative counts are rejected. *)
let parse_jobs ~what value =
  match int_of_string_opt (String.trim value) with
  | Some j when j >= 0 -> j
  | Some j ->
    raise
      (Cli_error
         (Printf.sprintf
            "%s must be a non-negative worker count (0 = auto-detect), got %d"
            what j))
  | None ->
    raise
      (Cli_error
         (Printf.sprintf "%s must be an integer worker count, got %S" what
            value))

let exec_of_jobs = function
  | Some v -> Executor.domain_pool ~jobs:(parse_jobs ~what:"--jobs" v) ()
  | None ->
    (* No flag: the executor reads NSIGMA_JOBS itself, but silently
       ignores garbage — validate it here so a typo'd environment fails
       loudly too. *)
    (match Sys.getenv_opt "NSIGMA_JOBS" with
    | Some v when String.trim v <> "" ->
      ignore (parse_jobs ~what:"NSIGMA_JOBS" v : int)
    | _ -> ());
    Executor.default ()

(* Probe the destination before the run starts.  Append mode neither
   truncates an existing file nor clobbers its contents; the at-exit
   writer replaces it wholesale later. *)
let check_writable what spec =
  if spec <> "-" then
    match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 spec with
    | oc -> close_out oc
    | exception Sys_error msg ->
      raise (Cli_error (Printf.sprintf "cannot write %s %s: %s" what spec msg))

(* Shared by every subcommand: install the run-report and trace
   destinations (explicit flags win over NSIGMA_METRICS / NSIGMA_TRACE)
   and arm the progress ticker. *)
let setup_obs ?(metrics = None) ?(trace = None) ?(progress = false) () =
  let resolve flag env =
    match flag with
    | Some s -> Some s
    | None -> (
      match Sys.getenv_opt env with
      | Some s when String.trim s <> "" -> Some (String.trim s)
      | _ -> None)
  in
  let metrics = resolve metrics "NSIGMA_METRICS" in
  let trace = resolve trace "NSIGMA_TRACE" in
  (match (metrics, trace) with
  | Some m, Some t when m <> "-" && m = t ->
    raise
      (Cli_error
         (Printf.sprintf
            "--metrics and --trace both write to %s; give them distinct files"
            m))
  | _ -> ());
  (match metrics with
  | Some spec ->
    check_writable "run report" spec;
    Obs_report.install spec
  | None -> ());
  (match trace with
  | Some spec ->
    check_writable "trace" spec;
    check_writable "flamegraph" (spec ^ ".folded");
    Obs_trace.install spec
  | None -> ());
  if progress then Progress.set_enabled true

(* ---- characterize ---- *)

let characterize_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output library file.")
  in
  let cells_arg =
    let doc = "Comma-separated cell names (default: the whole library)." in
    Arg.(value & opt (some string) None & info [ "cells" ] ~docv:"LIST" ~doc)
  in
  let run vdd mc output cells jobs kernel sampling rtol metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    check_mc ~allow_zero:false mc;
    let tech = tech_of_vdd vdd in
    let exec = exec_of_jobs jobs in
    let kernel =
      match kernel with
      | Some k -> k
      | None -> Cell_sim.default_kernel ()
    in
    let sampling, rtol = sampling_of_flags sampling rtol in
    let cells =
      match cells with
      | None -> all_cells
      | Some list ->
        String.split_on_char ',' list |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map Cell.of_name
    in
    Printf.printf
      "characterising %d cells at %.2f V with %d MC samples/point (%s \
       kernel, %s sampling%s, %d worker domain(s))...\n%!"
      (List.length cells) vdd mc (Cell_sim.kernel_name kernel)
      (Sampler.backend_name sampling)
      (match rtol with
      | None -> ""
      | Some r -> Printf.sprintf ", adaptive rtol %g" r)
      (Executor.jobs exec);
    let t0 = Monotonic.now () in
    let lib =
      Metrics.span "cli.characterize" (fun () ->
          Library.characterize_all ~n_mc:mc ~exec ~kernel ~sampling ?rtol tech
            cells)
    in
    Library.save lib output;
    Printf.printf "wrote %s in %.1fs\n" output (Monotonic.now () -. t0)
  in
  let term =
    Term.(
      const run $ vdd_arg $ mc_arg 2000 $ output $ cells_arg $ jobs_arg
      $ kernel_arg $ sampling_arg $ rtol_arg $ metrics_arg $ trace_arg
      $ progress_arg)
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Monte-Carlo characterisation of the cell library (LVF-style moments).")
    term

(* ---- fit ---- *)

let fit_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output coefficients file.")
  in
  let run vdd library output metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    let tech = tech_of_vdd vdd in
    let lib = Library.load tech library in
    Printf.printf "fitting the N-sigma model (Table I + calibration + wire X)...\n%!";
    let model = Metrics.span "cli.fit" (fun () -> Model.build lib) in
    Format.printf "%a@." Nsigma.Cell_model.pp model.Model.cell_model;
    Model.save model output;
    Printf.printf "wrote %s\n" output
  in
  let term =
    Term.(
      const run $ vdd_arg $ library_arg $ output $ metrics_arg $ trace_arg
      $ progress_arg)
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:"Fit the N-sigma model from a characterised library and persist the \
             coefficient file (Fig. 5).")
    term

(* ---- analyze ---- *)

let analyze_cmd =
  let circuit_arg =
    let doc = "Built-in benchmark circuit name (c432..c7552, ADD, SUB, MUL, DIV)." in
    Arg.(value & opt (some string) None & info [ "circuit"; "c" ] ~docv:"NAME" ~doc)
  in
  let verilog_arg =
    let doc = "Verilog-lite netlist file to analyse instead of a benchmark." in
    Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE" ~doc)
  in
  let sigma_arg =
    let doc = "Sigma level for the headline report (also runs its negative)." in
    Arg.(value & opt int 3 & info [ "sigma" ] ~docv:"N" ~doc)
  in
  let coeffs_arg =
    let doc = "Use a stored coefficients file instead of refitting." in
    Arg.(value & opt (some string) None & info [ "coeffs" ] ~docv:"FILE" ~doc)
  in
  let engine_arg =
    let doc =
      "Timing engine: $(b,scalar) (nominal arrival walk + per-path N-sigma \
       calibration, the legacy flow) or $(b,ssta) (block-based full-graph \
       statistical pass propagating four-moment arrival distributions)."
    in
    Arg.(
      value
      & opt (enum [ ("scalar", `Scalar); ("ssta", `Ssta) ]) `Scalar
      & info [ "engine" ] ~docv:"NAME" ~doc)
  in
  let max_arg =
    let doc =
      "Statistical max operator for the ssta engine: $(b,clark) (exact \
       bivariate-Gaussian moments) or $(b,moment) (skewness/kurtosis-aware \
       Cornish-Fisher moment matching)."
    in
    Arg.(
      value
      & opt (enum [ ("clark", Stat_max.Clark); ("moment", Stat_max.Moment) ])
          Stat_max.Clark
      & info [ "max" ] ~docv:"NAME" ~doc)
  in
  let period_arg =
    let doc =
      "Clock period (ps) for the ssta slack report.  Default: the worst \
       +3$(b,σ) arrival, so the most critical endpoint reads slack 0."
    in
    Arg.(value & opt (some float) None & info [ "period" ] ~docv:"PS" ~doc)
  in
  let run vdd library circuit verilog sigma mc coeffs jobs kernel sampling rtol
      engine maxop period provider_cache metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    check_mc ~allow_zero:true mc;
    (match period with
    | Some p when p <= 0.0 ->
      failwith (Printf.sprintf "--period must be positive (got %g ps)" p)
    | _ -> ());
    let tech = tech_of_vdd vdd in
    let exec = exec_of_jobs jobs in
    let sampling, rtol = sampling_of_flags sampling rtol in
    let lib =
      Metrics.span "cli.load_library" (fun () -> Library.load tech library)
    in
    let nl =
      match (circuit, verilog) with
      | Some name, _ -> (
        match Bm.find name with
        | bm -> bm.Bm.generate ()
        | exception Not_found ->
          failwith
            (Printf.sprintf "unknown circuit %S (available: %s)" name
               (String.concat ", " (List.map (fun b -> b.Bm.name) Bm.all))))
      | None, Some file -> V.read_file file
      | None, None -> failwith "pass --circuit or --verilog"
    in
    Printf.printf "%s\n%!" (N.stats nl);
    let design = Design.attach_parasitics tech nl in
    match engine with
    | `Scalar ->
      let model =
        Metrics.span "cli.build_model" (fun () ->
            match coeffs with
            | Some f -> Model.load lib f
            | None -> Model.build lib)
      in
      let report = Engine.analyze tech (Provider.nominal lib) design in
      let path = Engine.critical_path report in
      Printf.printf "nominal critical path (%d stages): %.1f ps\n"
        (Path.n_stages path) (path.Path.total *. 1e12);
      List.iter
        (fun s ->
          Printf.printf "T_path(%+dσ) = %.1f ps\n"
            s (Model.path_quantile_of_path model design path ~sigma:s *. 1e12))
        [ -sigma; 0; sigma ];
      if mc > 0 then begin
        Printf.printf "path Monte-Carlo (%d samples)...\n%!" mc;
        let stats =
          Path_mc.run ?kernel ~n:mc ~exec ~sampling ?rtol tech design path
        in
        Printf.printf "MC: mu=%.1f ps, %+dσ=%.1f ps, %+dσ=%.1f ps\n"
          (stats.Path_mc.moments.Moments.mean *. 1e12)
          (-sigma)
          (stats.Path_mc.quantile (-sigma) *. 1e12)
          sigma
          (stats.Path_mc.quantile sigma *. 1e12);
        Format.printf "%a@." Timing_report.pp_sampling stats.Path_mc.sampling
      end
    | `Ssta ->
      let config = { Ssta.op = maxop; corr = Ssta.Tracked } in
      Printf.printf "block-based SSTA pass (%s max, tracked correlation)...\n%!"
        (Stat_max.operator_name maxop);
      let t_ssta0 = Metrics.now () in
      let provider =
        Metrics.span "cli.ssta_provider" (fun () ->
            Ssta.lvf_provider ~exec ?store_dir:(store_dir_of provider_cache)
              tech lib design)
      in
      let report = Ssta.analyze ~config tech provider design in
      let ssta_seconds = Metrics.now () -. t_ssta0 in
      let worst = Ssta.circuit_dist report in
      let q3 = Ssta.quantile worst ~sigma:3.0 in
      let period = match period with Some ps -> ps *. 1e-12 | None -> q3 in
      Format.printf "%a@." (Timing_report.pp_ssta nl)
        (Timing_report.of_ssta ~period report);
      if mc > 0 then begin
        Printf.printf
          "validating against per-path Monte-Carlo (%d samples)...\n%!" mc;
        let v = Ssta.validate ~n:mc ~config ~exec ~provider tech lib design in
        Printf.printf "MC max over %d paths: mu=%.1f ps, +3σ=%.1f ps\n"
          v.Ssta.va_n_paths
          (v.Ssta.va_mc.Moments.mean *. 1e12)
          (v.Ssta.va_mc_p3 *. 1e12);
        Printf.printf "SSTA same coverage:   mu=%.1f ps, +3σ=%.1f ps\n"
          (v.Ssta.va_ssta.Ssta.d_mean *. 1e12)
          (Ssta.quantile v.Ssta.va_ssta ~sigma:3.0 *. 1e12);
        Printf.printf "errors: mean %.2f%%, +3σ %.2f%%, -3σ %.2f%%\n"
          (v.Ssta.va_err_mean *. 100.)
          (v.Ssta.va_err_p3 *. 100.)
          (v.Ssta.va_err_m3 *. 100.);
        (* Against the cold pass timed above (provider build from the
           library, then the walk) — what a user waits for without the
           MC — not against a re-run on the already-filled provider. *)
        Printf.printf
          "time: path MC %.2fs (jobs %d), SSTA provider build + pass \
           %.2fs; speedup %.1fx\n"
          v.Ssta.va_mc_seconds (Executor.jobs exec) ssta_seconds
          (v.Ssta.va_mc_seconds /. Float.max 1e-9 ssta_seconds)
      end
  in
  let term =
    Term.(
      const run $ vdd_arg $ library_arg $ circuit_arg $ verilog_arg $ sigma_arg
      $ mc_arg 0 $ coeffs_arg $ jobs_arg $ kernel_arg $ sampling_arg $ rtol_arg
      $ engine_arg $ max_arg $ period_arg $ provider_cache_arg $ metrics_arg
      $ trace_arg $ progress_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statistical path analysis of a circuit with the N-sigma model \
             (optionally verified by path Monte-Carlo).")
    term

(* ---- retime ---- *)

let retime_cmd =
  let circuit_arg =
    let doc = "Built-in benchmark circuit name (c432..c7552, ADD, SUB, MUL, DIV)." in
    Arg.(value & opt (some string) None & info [ "circuit"; "c" ] ~docv:"NAME" ~doc)
  in
  let verilog_arg =
    let doc = "Verilog-lite netlist file to analyse instead of a benchmark." in
    Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE" ~doc)
  in
  let edits_arg =
    let doc =
      "JSON-lines edit script: one edit object per line, e.g. \
       {\"op\": \"swap_cell\", \"gate\": \"g42\", \"cell\": \"NAND2X4\"}, \
       {\"op\": \"scale_wire\", \"net\": \"n17\", \"r\": 1.25, \"c\": 0.8} or \
       {\"op\": \"bump_sink_load\", \"net\": \"n17\", \"sink\": 0, \
       \"delta_ff\": 1.5}.  Blank lines and lines starting with $(b,#) are \
       skipped."
    in
    Arg.(required & opt (some string) None & info [ "edits" ] ~docv:"FILE" ~doc)
  in
  let max_arg =
    let doc = "Statistical max operator: $(b,clark) or $(b,moment)." in
    Arg.(
      value
      & opt (enum [ ("clark", Stat_max.Clark); ("moment", Stat_max.Moment) ])
          Stat_max.Clark
      & info [ "max" ] ~docv:"NAME" ~doc)
  in
  let period_arg =
    let doc =
      "Clock period (ps) for the slack report.  Default: the baseline's \
       worst +3$(b,σ) arrival, so deltas read against a zero-WNS start."
    in
    Arg.(value & opt (some float) None & info [ "period" ] ~docv:"PS" ~doc)
  in
  (* Read the JSON-lines edit script, keeping source line numbers for
     error messages; validation errors surface as path:lineno: msg. *)
  let read_edits nl path =
    let ic =
      try open_in path
      with Sys_error msg ->
        raise (Cli_error (Printf.sprintf "cannot read edit script: %s" msg))
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let edits = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         let t = String.trim line in
         if t <> "" && t.[0] <> '#' then
           match Edit.of_json nl t with
           | e -> edits := (!lineno, e) :: !edits
           | exception Edit.Edit_error msg ->
             raise (Cli_error (Printf.sprintf "%s:%d: %s" path !lineno msg))
       done
     with End_of_file -> ());
    List.rev !edits
  in
  let run vdd library circuit verilog edits_file jobs maxop period
      provider_cache metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    (match period with
    | Some p when p <= 0.0 ->
      failwith (Printf.sprintf "--period must be positive (got %g ps)" p)
    | _ -> ());
    let tech = tech_of_vdd vdd in
    let exec = exec_of_jobs jobs in
    let lib =
      Metrics.span "cli.load_library" (fun () -> Library.load tech library)
    in
    let nl =
      match (circuit, verilog) with
      | Some name, _ -> (
        match Bm.find name with
        | bm -> bm.Bm.generate ()
        | exception Not_found ->
          failwith
            (Printf.sprintf "unknown circuit %S (available: %s)" name
               (String.concat ", " (List.map (fun b -> b.Bm.name) Bm.all))))
      | None, Some file -> V.read_file file
      | None, None -> failwith "pass --circuit or --verilog"
    in
    Printf.printf "%s\n%!" (N.stats nl);
    let edits = read_edits nl edits_file in
    let design = Design.attach_parasitics tech nl in
    let config = { Ssta.op = maxop; corr = Ssta.Tracked } in
    let handle =
      Metrics.span "cli.ssta_provider" (fun () ->
          Ssta.lvf_handle ~exec ?store_dir:(store_dir_of provider_cache) tech
            lib design)
    in
    let inc = Incremental.init ~config tech handle design in
    let summary report period =
      let worst = Ssta.circuit_dist report in
      let slack = Timing_report.of_ssta ~period report in
      ( worst.Ssta.d_mean,
        Ssta.quantile worst ~sigma:3.0,
        slack.Timing_report.s_wns,
        slack.Timing_report.s_tns )
    in
    let base = Incremental.report inc in
    let base_q3 = Ssta.quantile (Ssta.circuit_dist base) ~sigma:3.0 in
    let period =
      match period with Some ps -> ps *. 1e-12 | None -> base_q3
    in
    let mu0, q30, wns0, tns0 = summary base period in
    Printf.printf
      "baseline (%s max): mu=%.1f ps, +3σ=%.1f ps, WNS=%.1f ps, TNS=%.1f ps\n%!"
      (Stat_max.operator_name maxop) (mu0 *. 1e12) (q30 *. 1e12)
      (wns0 *. 1e12) (tns0 *. 1e12);
    let prev = ref (mu0, q30, wns0, tns0) in
    List.iteri
      (fun i (lineno, edit) ->
        (* Describe before applying: a swap reads the current cell. *)
        let described = Edit.describe nl edit in
        let stats =
          match Incremental.apply inc edit with
          | s -> s
          | exception Edit.Edit_error msg ->
            raise
              (Cli_error (Printf.sprintf "%s:%d: %s" edits_file lineno msg))
        in
        let mu, q3, wns, tns = summary (Incremental.report inc) period in
        let pmu, pq3, pwns, ptns = !prev in
        prev := (mu, q3, wns, tns);
        Printf.printf
          "edit %d: %s\n  Δmu=%+.2f ps  Δ+3σ=%+.2f ps  ΔWNS=%+.2f ps  \
           ΔTNS=%+.2f ps  (%d nets invalidated, %d gates re-timed, %d \
           cutoffs, %.2f ms)\n%!"
          (i + 1) described
          ((mu -. pmu) *. 1e12)
          ((q3 -. pq3) *. 1e12)
          ((wns -. pwns) *. 1e12)
          ((tns -. ptns) *. 1e12)
          stats.Incremental.st_invalidated stats.Incremental.st_dirty
          stats.Incremental.st_cutoffs
          (stats.Incremental.st_seconds *. 1e3))
      edits;
    let mu, q3, wns, tns = summary (Incremental.report inc) period in
    Printf.printf
      "after %d edits: mu=%.1f ps (%+.2f), +3σ=%.1f ps (%+.2f), WNS=%.1f \
       ps, TNS=%.1f ps\n"
      (List.length edits) (mu *. 1e12)
      ((mu -. mu0) *. 1e12)
      (q3 *. 1e12)
      ((q3 -. q30) *. 1e12)
      (wns *. 1e12) (tns *. 1e12)
  in
  let term =
    Term.(
      const run $ vdd_arg $ library_arg $ circuit_arg $ verilog_arg $ edits_arg
      $ jobs_arg $ max_arg $ period_arg $ provider_cache_arg $ metrics_arg
      $ trace_arg $ progress_arg)
  in
  Cmd.v
    (Cmd.info "retime"
       ~doc:"Apply a JSON-lines edit script to a circuit, re-timing only each \
             edit's fan-out cone (bitwise identical to from-scratch SSTA).")
    term

(* ---- report ---- *)

let report_cmd =
  let run vdd library metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    let tech = tech_of_vdd vdd in
    let lib = Library.load tech library in
    Printf.printf "library %s at %.2f V: %d tables\n" library vdd
      (List.length (Library.cells lib));
    Printf.printf "%-10s %5s | %9s %9s %8s %8s\n" "cell" "edge" "mu(ps)"
      "sigma(ps)" "gamma" "kappa";
    List.iter
      (fun (cell, edge) ->
        let table = Library.find lib cell ~edge in
        let p = Ch.point_at table ~slew:Ch.reference_slew ~load:Ch.reference_load in
        let m = p.Ch.moments in
        Printf.printf "%-10s %5s | %9.2f %9.2f %8.3f %8.3f\n" (Cell.name cell)
          (match edge with `Rise -> "rise" | `Fall -> "fall")
          (m.Moments.mean *. 1e12) (m.Moments.std *. 1e12) m.Moments.skewness
          m.Moments.kurtosis)
      (Library.cells lib)
  in
  let term =
    Term.(
      const run $ vdd_arg $ library_arg $ metrics_arg $ trace_arg
      $ progress_arg)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Print the reference-condition moments of a library.")
    term

(* ---- serve / query ---- *)

let socket_arg =
  let doc = "Unix-domain socket path the server listens on." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let framing_conv =
  Arg.enum [ ("jsonl", Sproto.Jsonl); ("length", Sproto.Length_prefixed) ]

let framing_arg =
  let doc =
    "Wire framing: $(b,jsonl) (newline-delimited JSON, the default) or \
     $(b,length) (netstring-style length prefixes) — the same codec \
     either way."
  in
  Arg.(value & opt framing_conv Sproto.Jsonl & info [ "framing" ] ~docv:"NAME" ~doc)

let max_contexts_arg =
  let doc =
    "Retained per-(circuit, engine config) analysis contexts kept hot in \
     the LRU cache.  Each SSTA context holds a full report plus the \
     provider's per-net state, so size this to the working set."
  in
  Arg.(value & opt int 8 & info [ "max-contexts" ] ~docv:"N" ~doc)

let store_max_mb_arg =
  let doc =
    "Prune the provider store to at most $(docv) megabytes after each \
     context build (oldest artifacts evicted first), so a long-lived \
     server's on-disk cache cannot grow without bound.  Off by default."
  in
  Arg.(value & opt (some int) None & info [ "store-max-mb" ] ~docv:"MB" ~doc)

let server_config vdd library jobs max_contexts provider_cache store_max_mb =
  if max_contexts < 1 then
    raise
      (Cli_error
         (Printf.sprintf "--max-contexts must be positive (got %d)"
            max_contexts));
  (match store_max_mb with
  | Some mb when mb < 0 ->
    raise
      (Cli_error
         (Printf.sprintf "--store-max-mb must be non-negative (got %d)" mb))
  | _ -> ());
  let tech = tech_of_vdd vdd in
  let exec = exec_of_jobs jobs in
  let lib =
    Metrics.span "cli.load_library" (fun () -> Library.load tech library)
  in
  {
    (Server.default_config tech lib) with
    Server.exec_provider = exec;
    exec_mc = exec;
    max_contexts;
    store_dir = store_dir_of provider_cache;
    store_max_bytes = Option.map (fun mb -> mb * 1024 * 1024) store_max_mb;
  }

let serve_cmd =
  let run vdd library socket framing jobs max_contexts provider_cache
      store_max_mb metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    let cfg =
      server_config vdd library jobs max_contexts provider_cache store_max_mb
    in
    let server = Server.create cfg in
    Printf.printf "nsigma server: listening on %s (%s framing)\n%!" socket
      (Sproto.framing_name framing);
    Server.run server ~socket ~framing ();
    Printf.printf "nsigma server: drained, bye\n%!"
  in
  let term =
    Term.(
      const run $ vdd_arg $ library_arg $ socket_arg $ framing_arg $ jobs_arg
      $ max_contexts_arg $ provider_cache_arg $ store_max_mb_arg $ metrics_arg
      $ trace_arg $ progress_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived timing server on a Unix-domain socket: characterized \
             library, fitted model and per-circuit analysis contexts stay hot \
             across JSON-lines queries; SIGTERM drains gracefully.")
    term

let query_cmd =
  let socket_opt_arg =
    let doc =
      "Connect to a running server at $(docv) and replay the queries \
       through it."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let oneshot_arg =
    let doc =
      "Answer the queries in-process instead of over a socket: load the \
       library, build contexts, serve, exit.  Runs the exact server \
       dispatch code, so its output is the cold-process reference a warm \
       server must match byte for byte."
    in
    Arg.(value & flag & info [ "oneshot" ] ~doc)
  in
  let file_arg =
    let doc =
      "JSON-lines query file, one request object per line ($(b,-) or \
       omitted: stdin).  Blank lines and lines starting with $(b,#) are \
       skipped."
    in
    Arg.(value & opt string "-" & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let read_queries spec =
    let ic =
      if spec = "-" then stdin
      else
        try open_in spec
        with Sys_error msg ->
          raise (Cli_error (Printf.sprintf "cannot read query file: %s" msg))
    in
    Fun.protect
      ~finally:(fun () -> if spec <> "-" then close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" && line.[0] <> '#' then lines := line :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  in
  let run vdd library socket oneshot file framing jobs max_contexts
      provider_cache store_max_mb metrics trace progress =
    setup_obs ~metrics ~trace ~progress ();
    let queries = read_queries file in
    match (socket, oneshot) with
    | Some _, true ->
      raise (Cli_error "--socket and --oneshot are mutually exclusive")
    | None, false -> raise (Cli_error "pass --socket PATH or --oneshot")
    | Some socket, false ->
      let client =
        try Sclient.connect ~framing ~retries:100 ~socket ()
        with Unix.Unix_error (e, _, _) ->
          raise
            (Cli_error
               (Printf.sprintf "cannot connect to %s: %s" socket
                  (Unix.error_message e)))
      in
      Fun.protect
        ~finally:(fun () -> Sclient.close client)
        (fun () ->
          List.iter
            (fun q -> print_endline (Sclient.request client q))
            queries)
    | None, true ->
      (match library with
      | Some library ->
        let cfg =
          server_config vdd library jobs max_contexts provider_cache
            store_max_mb
        in
        let server = Server.create cfg in
        List.iter
          (fun q -> print_endline (Server.handle server ~session:0 q))
          queries
      | None -> raise (Cli_error "--oneshot requires --library"))
  in
  let library_opt_arg =
    let doc = "Characterised library file (.lvf), required with --oneshot." in
    Arg.(
      value & opt (some string) None & info [ "library"; "l" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(
      const run $ vdd_arg $ library_opt_arg $ socket_opt_arg $ oneshot_arg
      $ file_arg $ framing_arg $ jobs_arg $ max_contexts_arg
      $ provider_cache_arg $ store_max_mb_arg $ metrics_arg $ trace_arg
      $ progress_arg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send JSON-lines timing queries to a running server ($(b,--socket)) \
             or answer them in a cold one-shot process ($(b,--oneshot)) — the \
             bit-identity reference for served results.")
    term

let main_cmd =
  let doc = "N-sigma statistical delay calibration (DATE 2023 reproduction)" in
  let info = Cmd.info "nsigma" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ characterize_cmd; fit_cmd; analyze_cmd; retime_cmd; report_cmd;
      serve_cmd; query_cmd ]

let () =
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Cli_error msg ->
    Printf.eprintf "nsigma: %s\n" msg;
    exit 2
  | exception Failure msg ->
    Printf.eprintf "nsigma: %s\n" msg;
    exit 1
