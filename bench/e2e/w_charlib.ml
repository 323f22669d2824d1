(* charlib: the paper's offline Monte-Carlo characterisation.  One op
   is a Library.characterize_all of the full library (fast kernel, Mc
   sampling) on a 2-domain pool made in set-up.  Cell_sim, Monte_carlo,
   Characterize and Executor do nearly all the work; SSTA, Incremental
   and the server do none. *)

open Common
module Executor = Nsigma_exec.Executor
module Pct = Nsigma_e2e.Pct

(* Arc-samples: tables x grid points x Monte-Carlo samples. *)
let arc_samples lib =
  List.fold_left
    (fun acc (cell, edge) ->
      let t = Library.find lib cell ~edge in
      acc + (Array.length t.Ch.slews * Array.length t.Ch.loads * t.Ch.n_mc))
    0 (Library.cells lib)

let setup () =
  let pool = Executor.domain_pool ~jobs () in
  ignore (characterize_all ~exec:pool [ Cell.make Cell.Inv ~strength:1 ] : Library.t);
  pool

(* Every rep must reproduce the fixture bit for bit. *)
let matches_fixture fx lib =
  let d = tables_digest lib in
  String.equal d fx.digest && golden_matches "charlib.tables" d

(* A sequential re-run of the subset must match the 2-domain tables. *)
let sequential_matches full =
  String.equal
    (tables_digest (Probes.subset_library ~exec:Executor.sequential))
    (tables_digest (Probes.restrict full))

let untraced r ~seconds ~setup_s fx pool =
  let last = ref None and rss_mb = ref nan in
  let lats, works, failed =
    timed_loop ~seconds
      ~after_first:(fun () -> rss_mb := peak_rss_mb "self")
      ~op:(fun _ -> characterize_all ~exec:pool all_cells)
      ~check:(fun lib ->
        last := Some lib;
        (float_of_int (arc_samples lib), matches_fixture fx lib))
      ()
  in
  note r "peak_rss_end_mb" (Printf.sprintf "%.1f" (peak_rss_mb "self"));
  let failed = failed + if sequential_matches (Option.get !last) then 0 else 1 in
  e2e_metrics r ~rates:(chunk_rates ~size:1 lats works) ~unit_of_work:"arc-samples" ~lat_s:lats
    ~setup_s ~rss_mb:!rss_mb ();
  finish r ~attempted:(Array.length lats) ~failed

(* Traced pass: two reps, one span per Characterize.characterize call
   with the seeds characterize_all gives each (cell, edge). *)
let traced r sp fx pool =
  let reps = 2 in
  let failed = ref 0 and table_ms = ref [] and evals = ref 0 in
  let (), pass_s =
    time (fun () ->
        for _ = 1 to reps do
          Spans.span sp "charlib.rep" (fun () ->
              let lib = Library.create tech in
              List.iteri
                (fun index cell ->
                  List.iter
                    (fun edge ->
                      let t, dt =
                        time (fun () ->
                            Spans.span sp "characterize.table" (fun () ->
                                characterize_table ~exec:pool ~index cell ~edge))
                      in
                      table_ms := (dt *. 1e3) :: !table_ms;
                      Library.add lib t)
                    [ `Rise; `Fall ])
                all_cells;
              evals := !evals + arc_samples lib;
              if not (matches_fixture fx lib) then incr failed)
        done)
  in
  metric r "kernel.evals" (float_of_int !evals) "count";
  metric r "characterize.table_ms_p50" (Pct.median (Pct.sorted (Array.of_list !table_ms))) "ms";
  note r "tables_traced" (string_of_int (List.length !table_ms));
  Probes.overhead r sp ~pass_s;
  finish r ~attempted:reps ~failed:!failed

let run ~sp ~seconds ~startup_s fx =
  let r = report () in
  note r "cells" (string_of_int (List.length all_cells));
  note r "n_mc" (string_of_int fixture_mc);
  note r "jobs" (string_of_int jobs);
  note r "kernel" "fast";
  note r "sampling" "mc";
  let pool, setup_s = setups ~startup_s ~reps:9 setup in
  match sp with
  | None -> untraced r ~seconds ~setup_s fx pool
  | Some sp -> traced r sp fx pool
