(* Layer probes: short measurements of one layer's public functions,
   identical in every traced run whatever the workload, so each
   traced run reports them. *)

open Common
module Executor = Nsigma_exec.Executor
module Cell_sim = Nsigma_spice.Cell_sim
module Variation = Nsigma_process.Variation
module Model = Nsigma.Model
module Pct = Nsigma_e2e.Pct

(* Four cells of different kinds and strengths, characterised with the
   seeds they get in the full library, so the result can be compared
   table for table with a full characterisation. *)
let subset =
  Cell.[ make Inv ~strength:1; make Nand2 ~strength:2; make Aoi21 ~strength:4; make Xor2 ~strength:1 ]

let index_of cell =
  let rec go i = function
    | [] -> invalid_arg "Probes.index_of"
    | c :: rest -> if c = cell then i else go (i + 1) rest
  in
  go 0 all_cells

let subset_library ~exec =
  let lib = Library.create tech in
  List.iter
    (fun cell ->
      List.iter
        (fun edge -> Library.add lib (characterize_table ~exec ~index:(index_of cell) cell ~edge))
        [ `Rise; `Fall ])
    subset;
  lib

(* The subset's tables, taken out of a full library. *)
let restrict full =
  let lib = Library.create tech in
  List.iter
    (fun cell ->
      List.iter (fun edge -> Library.add lib (Library.find full cell ~edge)) [ `Rise; `Fall ])
    subset;
  lib

(* Sequential over 2-domain wall time on the subset, median of three
   alternating pairs. *)
let pool_speedup () =
  let pool = Executor.domain_pool ~jobs () in
  let pair () =
    let _, t_pool = time (fun () -> subset_library ~exec:pool) in
    let _, t_seq = time (fun () -> subset_library ~exec:Executor.sequential) in
    t_seq /. t_pool
  in
  Pct.median (Pct.sorted (Array.init 3 (fun _ -> pair ())))

(* Fast-kernel cost per evaluation on the 80 reference arcs (every cell
   and edge at the reference slew and its FO4 load), median of seven
   repetitions. *)
let kernel_ns_per_eval () =
  let arcs =
    List.concat_map
      (fun c ->
        List.map
          (fun e -> (Cell.arc tech Variation.nominal c ~output_edge:e, Cell.fo4_load tech c))
          [ `Rise; `Fall ])
      all_cells
    |> Array.of_list
  in
  let rounds = 500 in
  let once () =
    for _ = 1 to rounds do
      Array.iter
        (fun (arc, load_cap) ->
          ignore
            (Cell_sim.simulate_fast tech arc ~input_slew:Ch.reference_slew ~load_cap
              : Cell_sim.result))
        arcs
    done
  in
  once ();
  let reps =
    Array.init 7 (fun _ ->
        let (), dt = time once in
        dt *. 1e9 /. float_of_int (rounds * Array.length arcs))
  in
  Pct.median (Pct.sorted reps)

let library_load_s fx =
  Pct.median (Pct.sorted (Array.init 3 (fun _ -> snd (time (fun () -> load_library fx)))))

let model_build_s lib = snd (time (fun () -> Model.build lib))

(* Cost of recording one hot span and one coarse span, for the traced
   run's overhead estimate. *)
let span_cost_ns () =
  let sp = Spans.create () in
  let n = 200_000 in
  let per f =
    let (), dt = time (fun () -> for _ = 1 to n do f () done) in
    dt *. 1e9 /. float_of_int n
  in
  let hot = per (fun () -> Spans.hot sp "probe" ignore) in
  let coarse = per (fun () -> Spans.span sp "probe" ignore) in
  (hot, coarse)

(* The recorder's own cost as a share of the traced pass. *)
let overhead r sp ~pass_s =
  let hot_ns, coarse_ns = span_cost_ns () in
  let n_coarse = List.length sp.Spans.events in
  let n_hot = Spans.n_spans sp - n_coarse in
  let overhead_s =
    ((float_of_int n_hot *. hot_ns) +. (float_of_int n_coarse *. coarse_ns)) *. 1e-9
  in
  metric r "trace.overhead_pct" (100.0 *. overhead_s /. pass_s) "%"

(* The probes every traced run reports.  They run in a process of their
   own, so the heap and domains a workload leaves behind cannot skew
   them. *)
let run fx =
  let r = report () in
  metric r "exec.pool_speedup" (pool_speedup ()) "x";
  metric r "kernel.ns_per_eval" (kernel_ns_per_eval ()) "ns";
  metric r "library.load_s" (library_load_s fx) "s";
  metric r "model.build_s" (model_build_s (load_library fx)) "s";
  finish r ~attempted:1 ~failed:0
