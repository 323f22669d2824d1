(* The benchmark's metric contract: end-to-end metrics with their
   regression bounds, and the per-layer metrics every traced run
   reports.  BENCHMARK.json at the repository root mirrors these
   tables. *)

type better = Lower | Higher

type spec = { name : string; unit_ : string; better : better; bound : float }

let e2e name unit_ better bound = { name; unit_; better; bound }

(* Bounds come from three calibration sets of ten seeds per workload
   (bench/e2e/README.md).  On the shared 2-core machine they were set
   on, run-to-run spreads of the time metrics reach 10-20%, even for the
   fixed-input workloads, and charlib's peak memory moves with how many
   domain slots its pool happens to touch; every metric therefore carries
   the largest bound allowed, set-up time included. *)
let end_to_end =
  [
    e2e "throughput" "1/s" Higher 0.25;
    e2e "op_p50_ms" "ms" Lower 0.25;
    e2e "op_tail_ms" "ms" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.25;
  ]

(* Per-layer metrics printed by every traced run, whatever the
   workload: layer probes (times measured identically in each run),
   exact work counts (zero on workloads that never reach the layer) and
   their ratios. *)
let per_layer =
  [
    ("exec.pool_speedup", "x");
    ("kernel.ns_per_eval", "ns");
    ("library.load_s", "s");
    ("model.build_s", "s");
    ("kernel.evals", "count");
    ("provider.wire_calls", "count");
    ("provider.cell_calls", "count");
    ("stat_max.joins", "count");
    ("incr.dirty_gates", "count");
    ("incr.invalidated_nets", "count");
    ("incr.cutoff_hits", "count");
    ("incr.dirty_per_edit", "count");
    ("incr.cutoff_ratio", "ratio");
    ("server.requests", "count");
    ("server.coalesced", "count");
    ("server.cache_hits", "count");
    ("server.coalesced_ratio", "ratio");
    ("trace.overhead_pct", "%");
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) end_to_end

(* How much worse [cand] is than [base], as a share of [base]:
   positive means a regression in the metric's own direction. *)
let worsening spec ~base ~cand =
  if base = 0.0 then 0.0
  else
    match spec.better with
    | Lower -> (cand -. base) /. Float.abs base
    | Higher -> (base -. cand) /. Float.abs base

let within spec ~base ~cand = worsening spec ~base ~cand <= spec.bound
