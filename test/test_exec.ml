(* Tests for the parallel executor: backend equivalence (the determinism
   invariant — every backend and pool size must produce bit-identical
   results), exception propagation out of worker domains, and the
   index-derived RNG discipline that makes the invariant possible. *)

module T = Nsigma_process.Technology
module Rng = Nsigma_stats.Rng
module Moments = Nsigma_stats.Moments
module Arc = Nsigma_spice.Arc
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Cell = Nsigma_liberty.Cell
module Ch = Nsigma_liberty.Characterize
module Bm = Nsigma_netlist.Benchmarks
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Provider = Nsigma_sta.Provider
module Path_mc = Nsigma_sta.Path_mc
module Executor = Nsigma_exec.Executor

let tech = T.with_vdd T.default_28nm 0.6
let pool_sizes = [ 1; 2; 4 ]
let pools = List.map (fun j -> (j, Executor.domain_pool ~jobs:j ())) pool_sizes

(* ---------- Executor basics ---------- *)

let test_map_array_matches_sequential () =
  let f i = (i * i) - (3 * i) in
  let expected = Executor.map_array Executor.sequential f ~n:1000 in
  List.iter
    (fun (j, pool) ->
      Alcotest.(check bool)
        (Printf.sprintf "pool %d = sequential" j)
        true
        (Executor.map_array pool f ~n:1000 = expected))
    pools

let test_empty_and_small () =
  let pool = Executor.domain_pool ~jobs:4 () in
  Alcotest.(check int) "n=0" 0 (Array.length (Executor.map_array pool (fun i -> i) ~n:0));
  Alcotest.(check bool) "n=1" true (Executor.map_array pool (fun i -> i) ~n:1 = [| 0 |]);
  Alcotest.(check bool) "n < jobs" true
    (Executor.map_array pool (fun i -> i) ~n:3 = [| 0; 1; 2 |])

let test_jobs_accessor () =
  (* Pool sizes are clamped to the recommended domain count:
     oversubscribing OCaml 5 domains is always a slowdown. *)
  let cores = max 1 (Domain.recommended_domain_count ()) in
  Alcotest.(check int) "sequential" 1 (Executor.jobs Executor.sequential);
  Alcotest.(check int) "pool of 4 (clamped to cores)" (min 4 cores)
    (Executor.jobs (Executor.domain_pool ~jobs:4 ()));
  Alcotest.(check int) "jobs 1 degrades" 1
    (Executor.jobs (Executor.domain_pool ~jobs:1 ()));
  Alcotest.(check bool) "jobs 0 auto-detects" true
    (Executor.jobs (Executor.domain_pool ~jobs:0 ()) >= 1);
  Alcotest.(check int) "oversubscription clamped" cores
    (Executor.jobs (Executor.domain_pool ~jobs:(cores + 7) ()))

(* ---------- Exception propagation ---------- *)

let test_worker_exception_propagates () =
  (* A failing task must re-raise on the caller, not deadlock the join. *)
  List.iter
    (fun (j, pool) ->
      Alcotest.check_raises
        (Printf.sprintf "pool %d re-raises" j)
        (Failure "boom")
        (fun () ->
          ignore
            (Executor.map_array pool
               (fun i -> if i = 37 then failwith "boom" else i)
               ~n:200)))
    ((0, Executor.sequential) :: pools)

let test_exception_stops_remaining_work () =
  (* After a failure the queue drains: far fewer than n tasks run. *)
  let ran = Atomic.make 0 in
  (try
     ignore
       (Executor.map_array
          (Executor.domain_pool ~jobs:2 ())
          (fun i ->
            Atomic.incr ran;
            if i = 0 then failwith "early";
            i)
          ~n:100_000)
   with Failure _ -> ());
  Alcotest.(check bool) "work was cut short" true (Atomic.get ran < 100_000)

(* ---------- Rng.derive discipline ---------- *)

let test_derive_pure_and_decorrelated () =
  let g = Rng.create ~seed:42 in
  let before = Rng.bits64 (Rng.copy g) in
  let c1 = Rng.derive g ~index:5 in
  let c1' = Rng.derive g ~index:5 in
  let c2 = Rng.derive g ~index:6 in
  Alcotest.(check bool) "derive does not advance the parent" true
    (Rng.bits64 (Rng.copy g) = before);
  Alcotest.(check bool) "same index, same stream" true
    (Rng.bits64 c1 = Rng.bits64 c1');
  Alcotest.(check bool) "distinct index, distinct stream" true
    (Rng.bits64 c1 <> Rng.bits64 c2)

(* ---------- Monte_carlo determinism across backends ---------- *)

let fo4_load = 1.2e-15

let measure sample =
  let arc = Arc.make tech sample ~pull:Arc.Pull_down ~depth:1 ~strength:1.0 () in
  (Cell_sim.simulate tech arc ~input_slew:10e-12 ~load_cap:fo4_load)
    .Cell_sim.delay

let test_study_bit_identical () =
  let study exec =
    Monte_carlo.study ~exec tech (Rng.create ~seed:5) ~n:300 measure
  in
  let ref_summary, ref_samples = study Executor.sequential in
  List.iter
    (fun (j, pool) ->
      let s, samples = study pool in
      Alcotest.(check bool)
        (Printf.sprintf "moments identical at pool %d" j)
        true (s = ref_summary);
      Alcotest.(check bool)
        (Printf.sprintf "samples identical at pool %d" j)
        true (samples = ref_samples))
    pools

let test_delays_counted_failures_reported () =
  let g () = Rng.create ~seed:3 in
  let r =
    Monte_carlo.delays_counted tech (g ()) ~n:100 (fun sample ->
        let d = measure sample in
        if d > 0.0 then failwith "synthetic non-convergence" else d)
  in
  Alcotest.(check int) "all failures counted" 100 r.Monte_carlo.n_failed;
  Alcotest.(check int) "no survivors" 0 (Array.length r.Monte_carlo.delays);
  let ok = Monte_carlo.delays_counted tech (g ()) ~n:100 measure in
  Alcotest.(check int) "healthy run, no failures" 0 ok.Monte_carlo.n_failed;
  Alcotest.(check int) "healthy run keeps all" 100
    (Array.length ok.Monte_carlo.delays)

(* ---------- Characterisation determinism across backends ---------- *)

let test_characterize_bit_identical () =
  let table exec =
    Ch.characterize ~n_mc:120 ~seed:9 ~slews:[| 10e-12; 100e-12 |]
      ~loads:[| 0.4e-15; 2e-15 |] ~exec tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  let reference = table Executor.sequential in
  List.iter
    (fun (j, pool) ->
      Alcotest.(check bool)
        (Printf.sprintf "table identical at pool %d" j)
        true
        ((table pool).Ch.points = reference.Ch.points))
    pools

(* ---------- Path Monte-Carlo determinism across backends ---------- *)

let test_path_mc_bit_identical () =
  let bm = List.hd Bm.small_variants in
  let nl = bm.Bm.generate () in
  let design = Design.attach_parasitics tech nl in
  let used_cells =
    Array.to_list nl.Nsigma_netlist.Netlist.gates
    |> List.map (fun g -> g.Nsigma_netlist.Netlist.cell)
    |> List.sort_uniq compare
  in
  let lib = Nsigma_liberty.Library.characterize_all ~n_mc:60 tech used_cells in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  let path = Engine.critical_path report in
  let run exec = Path_mc.run ~n:40 ~steps:80 ~seed:11 ~exec tech design path in
  let reference = run Executor.sequential in
  List.iter
    (fun (j, pool) ->
      let r = run pool in
      Alcotest.(check bool)
        (Printf.sprintf "path samples identical at pool %d" j)
        true
        (r.Path_mc.samples = reference.Path_mc.samples);
      Alcotest.(check bool)
        (Printf.sprintf "path moments identical at pool %d" j)
        true
        (r.Path_mc.moments = reference.Path_mc.moments))
    pools

let () =
  Alcotest.run "nsigma_exec"
    [
      ( "executor",
        [
          Alcotest.test_case "map_array matches sequential" `Quick
            test_map_array_matches_sequential;
          Alcotest.test_case "empty and small inputs" `Quick test_empty_and_small;
          Alcotest.test_case "jobs accessor" `Quick test_jobs_accessor;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "worker exception propagates" `Quick
            test_worker_exception_propagates;
          Alcotest.test_case "failure stops remaining work" `Quick
            test_exception_stops_remaining_work;
        ] );
      ( "rng",
        [
          Alcotest.test_case "derive is pure and decorrelated" `Quick
            test_derive_pure_and_decorrelated;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "monte_carlo study bit-identical" `Slow
            test_study_bit_identical;
          Alcotest.test_case "failure counting" `Quick
            test_delays_counted_failures_reported;
          Alcotest.test_case "characterize bit-identical" `Slow
            test_characterize_bit_identical;
          Alcotest.test_case "path MC bit-identical" `Slow
            test_path_mc_bit_identical;
        ] );
    ]
