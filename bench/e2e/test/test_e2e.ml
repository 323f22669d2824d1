(* Tests for the end-to-end benchmark's own code: tail-percentile
   selection, span self-time, bound comparison, quartile spreads and
   the seed determinism of the eco and serve input streams. *)

open Nsigma_e2e
module Bm = Nsigma_netlist.Benchmarks
module Edit = Nsigma_netlist.Edit

let feq = Alcotest.float 1e-12

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

(* ---- tail rule ---- *)

let test_tail_levels () =
  let check n ?cap label value =
    let l, v = Pct.tail ?cap (ramp n) in
    Alcotest.(check string) (Printf.sprintf "n=%d level" n) label l;
    Alcotest.check feq (Printf.sprintf "n=%d value" n) value v
  in
  (* n = 100: exactly ten samples beyond p90, five beyond p95. *)
  check 100 "p90" 90.0;
  check 199 "p90" 180.0;
  check 200 "p95" 190.0;
  check 1000 "p99" 990.0;
  check 10_000 "p99.9" 9990.0;
  check 10_000 ~cap:0.99 "p99" 9900.0;
  check 10_000 ~cap:0.95 "p95" 9500.0;
  (* Too few samples for any percentile tail: the median. *)
  check 50 "p50" 25.5;
  check 1 "p50" 1.0

(* The chosen level has ten samples beyond it and the next level up
   has fewer. *)
let test_tail_beyond () =
  List.iter
    (fun n ->
      let label, _ = Pct.tail (ramp n) in
      let rec check = function
        | (p, l) :: _ when l = label ->
          Alcotest.(check bool) (Printf.sprintf "n=%d ten beyond %s" n l) true (Pct.beyond n p >= 10)
        | (p, l) :: rest ->
          Alcotest.(check bool) (Printf.sprintf "n=%d fewer beyond %s" n l) true (Pct.beyond n p < 10);
          check rest
        | [] -> ()
      in
      check Pct.tail_levels)
    [ 100; 150; 999; 2000; 12_000 ]

let test_median_and_spread () =
  Alcotest.check feq "odd median" 3.0 (Pct.median [| 1.; 2.; 3.; 4.; 5. |]);
  Alcotest.check feq "even median" 2.5 (Pct.median [| 1.; 2.; 3.; 4. |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Pct.quartiles (ramp 10) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q2" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3;
  Alcotest.check feq "spread" 1.0 (Pct.spread (ramp 10));
  Alcotest.check feq "flat spread" 0.0 (Pct.spread [| 4.; 4.; 4. |])

(* ---- spans ---- *)

(* A clock the test advances by hand. *)
let fake_clock () =
  let t = ref 0 in
  ((fun () -> !t), fun d -> t := !t + d)

let test_self_time () =
  let clock, tick = fake_clock () in
  let sp = Spans.create ~clock () in
  Spans.span sp "pass" (fun () ->
      tick 5;
      Spans.span sp "walk" (fun () ->
          tick 10;
          for _ = 1 to 3 do
            Spans.hot sp "provider" (fun () -> tick 4)
          done;
          Spans.hot sp "join" (fun () -> tick 2));
      Spans.span sp "report" (fun () -> tick 7);
      tick 1);
  let ns s = s *. 1e9 in
  Alcotest.check feq "pass total" 37.0 (ns (Spans.total_s sp "pass"));
  Alcotest.check feq "pass self" 6.0 (ns (Spans.self_s sp "pass"));
  Alcotest.check feq "walk self" 10.0 (ns (Spans.self_s sp "walk"));
  Alcotest.check feq "provider total" 12.0 (ns (Spans.total_s sp "provider"));
  Alcotest.(check int) "provider calls" 3 (Spans.calls sp "provider");
  Alcotest.check feq "under walk" 12.0 (ns (Spans.total_under_s sp ~ancestor:"pass" "provider"));
  Alcotest.check feq "not under report" 0.0
    (ns (Spans.total_under_s sp ~ancestor:"report" "provider"));
  (* Hot spans aggregate only; coarse spans keep an event each. *)
  Alcotest.(check int) "events" 3 (List.length sp.Spans.events);
  Alcotest.(check int) "spans" 7 (Spans.n_spans sp);
  Alcotest.(check (list string)) "folded"
    [ "root;pass 6"; "root;pass;report 7"; "root;pass;walk 10"; "root;pass;walk;join 2";
      "root;pass;walk;provider 12" ]
    (List.sort compare (Spans.folded sp))

let test_self_time_exception () =
  let clock, tick = fake_clock () in
  let sp = Spans.create ~clock () in
  (try Spans.span sp "outer" (fun () -> Spans.hot sp "inner" (fun () -> tick 3; failwith "x"))
   with Failure _ -> ());
  Spans.span sp "after" (fun () -> tick 1);
  Alcotest.check feq "inner closed" 3e-9 (Spans.total_s sp "inner");
  Alcotest.check feq "after is top-level" 1e-9 (Spans.total_under_s sp ~ancestor:"root" "after")

(* ---- bounds ---- *)

let spec name = Option.get (Bounds.find name)

let test_bounds () =
  let tp = spec "throughput" and p50 = spec "op_p50_ms" in
  Alcotest.check feq "higher-is-better drop" 0.2 (Bounds.worsening tp ~base:100.0 ~cand:80.0);
  Alcotest.check feq "lower-is-better rise" 0.2 (Bounds.worsening p50 ~base:10.0 ~cand:12.0);
  Alcotest.(check bool) "gain is within" true (Bounds.within tp ~base:100.0 ~cand:150.0);
  Alcotest.(check bool) "at the bound" true
    (Bounds.within p50 ~base:10.0 ~cand:(10.0 *. (1.0 +. p50.Bounds.bound)));
  Alcotest.(check bool) "past the bound" false
    (Bounds.within p50 ~base:10.0 ~cand:(10.0 *. (1.0 +. p50.Bounds.bound) *. 1.01));
  Alcotest.(check bool) "throughput past the bound" false (Bounds.within tp ~base:100.0 ~cand:70.0)

let test_bound_table () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Bounds.name ^ " bound <= 0.25") true
        (s.Bounds.bound > 0.0 && s.Bounds.bound <= 0.25))
    Bounds.end_to_end;
  let setup = spec "setup_s" in
  Alcotest.(check bool) "setup_s lower is better" true (setup.Bounds.better = Bounds.Lower);
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun s -> s.Bounds.bound <= setup.Bounds.bound) Bounds.end_to_end)

(* ---- stream determinism ---- *)

let c432 = lazy ((Bm.find "c432").Bm.generate ())

let eco_stream seed n =
  let nl = Lazy.force c432 in
  let s = Streams.eco ~seed nl in
  List.init n (fun _ -> Edit.to_json nl (Streams.next_edit s))

let serve_stream seed conn n =
  let q = Streams.serve ~seed ~conn ~first_id:1 (Lazy.force c432) in
  List.init n (fun _ -> snd (Streams.next_query q))

let test_eco_determinism () =
  let a = eco_stream 1 120 and b = eco_stream 1 120 and c = eco_stream 2 120 in
  Alcotest.(check (list string)) "same seed, same stream" a b;
  Alcotest.(check bool) "another seed, another stream" true (a <> c);
  let nl = Lazy.force c432 in
  List.iter (fun line -> Edit.validate nl (Edit.of_json nl line)) a

let test_serve_determinism () =
  let a = serve_stream 1 0 200 and b = serve_stream 1 0 200 in
  Alcotest.(check (list string)) "same seed, same stream" a b;
  Alcotest.(check bool) "another seed, another stream" true (a <> serve_stream 2 0 200);
  Alcotest.(check bool) "another connection, another stream" true (a <> serve_stream 1 1 200)

(* One shuffled deck of eighty per round: exact 35/15/30/20 mix. *)
let test_serve_mix () =
  let q = Streams.serve ~seed:3 ~conn:0 ~first_id:1 (Lazy.force c432) in
  let count cls l = List.length (List.filter (fun c -> c = cls) l) in
  let drawn = List.init 160 (fun _ -> fst (Streams.next_query q)) in
  List.iter
    (fun (cls, pct) ->
      Alcotest.(check int) (Streams.class_name cls) (160 * pct / 100) (count cls drawn))
    Streams.[ (Ssta, 35); (Scalar, 15); (Path_mc, 30); (Retime, 20) ]

(* Whole rounds of eco edits visit every cost stratum of every
   (region, kind) sampler equally often. *)
let test_eco_rounds () =
  let nl = Lazy.force c432 in
  let s = Streams.eco ~seed:5 nl in
  for _ = 1 to 2 * Streams.round do
    ignore (Streams.next_edit s : Edit.t)
  done;
  Array.iter
    (fun (smp : Streams.strata) ->
      Alcotest.(check int) "whole rounds" 0 (smp.Streams.next mod Array.length smp.Streams.strata))
    s.Streams.samplers

let () =
  Alcotest.run "e2e"
    [
      ( "tail",
        [
          Alcotest.test_case "percentile level by samples beyond" `Quick test_tail_levels;
          Alcotest.test_case "chosen level has ten beyond" `Quick test_tail_beyond;
          Alcotest.test_case "median and quartile spread" `Quick test_median_and_spread;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "spans close on exceptions" `Quick test_self_time_exception;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "worsening and within" `Quick test_bounds;
          Alcotest.test_case "bound table" `Quick test_bound_table;
        ] );
      ( "streams",
        [
          Alcotest.test_case "eco edit stream seed determinism" `Quick test_eco_determinism;
          Alcotest.test_case "serve query stream seed determinism" `Quick test_serve_determinism;
          Alcotest.test_case "serve query mix" `Quick test_serve_mix;
          Alcotest.test_case "eco rounds cover every stratum" `Quick test_eco_rounds;
        ] );
    ]
