(* signoff: the one-shot `analyze` a user waits for, on three
   structurally different graphs.  One op is a cold sweep over c6288,
   c5315 and ADD: generate, attach parasitics, a fresh LVF provider with
   no store, SSTA (Clark max, tracked correlation), the slack report,
   then the paper's N-sigma quantiles of the nominal critical path
   (eq. 10).  The provider's wire mini-MC, the Stat_max joins and the
   Engine_core walk do the work. *)

open Common
module Bm = Nsigma_netlist.Benchmarks
module N = Nsigma_netlist.Netlist
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Path = Nsigma_sta.Path
module Timing_report = Nsigma_sta.Timing_report
module Stat_max = Nsigma_stats.Stat_max
module Model = Nsigma.Model
module Executor = Nsigma_exec.Executor

let circuits = [ "c6288"; "c5315"; "ADD" ]
let config = { Ssta.op = Stat_max.Clark; corr = Ssta.Tracked }

type env = { lib : Library.t; model : Model.t; exec : Executor.t }

(* What the CLI runs by default: the environment's executor, which is
   sequential once the parent process has scrubbed NSIGMA_JOBS. *)
let setup fx () =
  let lib = load_library fx in
  { lib; model = Model.build lib; exec = Executor.default () }

type output = {
  gates : int;
  report : Ssta.report;
  slack : Timing_report.stat_t;
  q_m3 : float;
  q_p3 : float;
  nominal : float;
}

(* One circuit, traced when [sp] is given. *)
let circuit ?sp env name =
  let span name f = match sp with Some sp -> Spans.span sp name f | None -> f () in
  let nl = span "netlist.generate" (fun () -> (Bm.find name).Bm.generate ()) in
  let design = span "design.attach" (fun () -> Design.attach_parasitics tech nl) in
  let provider = Ssta.lvf_provider ~exec:env.exec ~store_dir:None tech env.lib design in
  let report =
    match sp with
    | None -> Ssta.analyze ~config tech provider design
    | Some sp ->
      (* Exactly the body of Ssta.analyze, with the provider closures
         and the algebra's add/join timed. *)
      Spans.span sp "sta.ssta.analyze" (fun () ->
          Engine_core.analyze ~span:"sta.ssta.analyze"
            (traced_algebra sp (Ssta.algebra config))
            (traced_provider sp provider) tech design)
  in
  let slack =
    span "timing_report" (fun () ->
        let period = Ssta.quantile (Ssta.circuit_dist report) ~sigma:3.0 in
        Timing_report.of_ssta ~period report)
  in
  span "nsigma.path" (fun () ->
      let path = Engine.critical_path (Engine.analyze tech (Provider.nominal env.lib) design) in
      {
        gates = Array.length nl.N.gates;
        report;
        slack;
        q_m3 = Model.path_quantile_of_path env.model design path ~sigma:(-3);
        q_p3 = Model.path_quantile_of_path env.model design path ~sigma:3;
        nominal = path.Path.total;
      })

(* Every PO distribution and the reported numbers, as float bits. *)
let digest o =
  let b = Buffer.create 4096 in
  List.iter
    (fun (net, edge, d) ->
      Buffer.add_string b (Printf.sprintf "%d/%d;" net (Engine_core.edge_index edge));
      add_dist b d)
    (Ssta.pos o.report);
  List.iter (add_float b)
    [ o.slack.Timing_report.s_wns; o.slack.Timing_report.s_tns; o.q_m3; o.q_p3; o.nominal ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let sweep ?sp env =
  List.map
    (fun name ->
      match sp with
      | None -> (name, circuit env name)
      | Some sp -> (name, Spans.span sp ("circuit." ^ name) (fun () -> circuit ~sp env name)))
    circuits

(* Gates timed and whether every circuit's outputs match golden.json. *)
let check results =
  ( float_of_int (List.fold_left (fun acc (_, o) -> acc + o.gates) 0 results),
    List.for_all (fun (name, o) -> golden_matches ("signoff." ^ name) (digest o)) results )

let untraced r ~seconds ~setup_s env =
  let rss_mb = ref nan in
  let lats, works, failed =
    timed_loop ~seconds
      ~after_first:(fun () -> rss_mb := peak_rss_mb "self")
      ~op:(fun _ -> sweep env) ~check ()
  in
  note r "peak_rss_end_mb" (Printf.sprintf "%.1f" (peak_rss_mb "self"));
  e2e_metrics r ~rates:(chunk_rates ~size:1 lats works) ~unit_of_work:"gates" ~lat_s:lats ~setup_s
    ~rss_mb:!rss_mb ();
  finish r ~attempted:(Array.length lats) ~failed

let traced r sp env =
  let sweeps = 2 in
  let failed = ref 0 in
  let (), pass_s =
    time (fun () ->
        for _ = 1 to sweeps do
          let results = Spans.span sp "signoff.sweep" (fun () -> sweep ~sp env) in
          if not (snd (check results)) then incr failed
        done)
  in
  let total = Spans.total_s sp and self = Spans.self_s sp in
  metric r "stat_max.joins" (calls sp [ "stat_max.join" ]) "count";
  metric r "provider.wire_calls" (calls sp provider_wire) "count";
  metric r "provider.cell_calls" (calls sp provider_cell) "count";
  let parts =
    [
      ("netlist.generate_s", total "netlist.generate");
      ("design.attach_s", total "design.attach");
      ("provider.wire_s", sum total provider_wire);
      ("provider.cell_s", sum total provider_cell);
      ("stat_max.join_s", total "stat_max.join");
      ("ssta.add_s", total "ssta.add");
      ("walk.self_s", self "sta.ssta.analyze");
      ("timing_report_s", total "timing_report");
      ("nsigma.path_s", total "nsigma.path");
    ]
  in
  List.iter (fun (name, v) -> metric r name v "s") parts;
  let sweep_s = total "signoff.sweep" in
  metric r "signoff.sweep_s" sweep_s "s";
  metric r "signoff.coverage_pct" (100.0 *. sum (fun (_, v) -> v) parts /. sweep_s) "%";
  Probes.overhead r sp ~pass_s;
  finish r ~attempted:sweeps ~failed:!failed

let run ~sp ~seconds ~startup_s fx =
  let r = report () in
  note r "circuits" (String.concat "," circuits);
  note r "max" "clark";
  note r "correlation" "tracked";
  note r "provider_store" "off";
  let env, setup_s = setups ~startup_s ~reps:9 (setup fx) in
  note r "exec_jobs" (string_of_int (Executor.jobs env.exec));
  match sp with
  | None -> untraced r ~seconds ~setup_s env
  | Some sp -> traced r sp env
