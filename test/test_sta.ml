(* Tests for the STA engine: design construction, arrival propagation on
   hand-analysable circuits, critical-path extraction, path MC wiring. *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module N = Nsigma_netlist.Netlist
module B = Nsigma_netlist.Builder
module Design = Nsigma_sta.Design
module Provider = Nsigma_sta.Provider
module Engine = Nsigma_sta.Engine
module Engine_core = Nsigma_sta.Engine_core
module Path = Nsigma_sta.Path
module Rctree = Nsigma_rcnet.Rctree

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6

(* A constant-delay provider makes arrival times hand-computable. *)
let unit_provider ~cell_d ~wire_d =
  {
    Provider.label = "unit";
    cell_delay = (fun _ ~edge:_ ~input_slew:_ ~load_cap:_ -> cell_d);
    cell_out_slew = (fun _ ~edge:_ ~input_slew ~load_cap:_ -> input_slew);
    wire_delay = (fun ~net:_ ~driver:_ ~sink:_ ~tree:_ ~tap:_ -> wire_d);
    wire_slew_degrade = (fun ~wire_delay:_ ~slew_at_root -> slew_at_root);
  }

(* inv chain: a -> I1 -> I2 -> I3 -> out *)
let chain n =
  let b = B.create ~name:"chain" in
  let a = B.input b "a" in
  let net = ref a in
  for _ = 1 to n do
    net := B.inv b !net
  done;
  B.output b !net;
  B.finish b

let test_chain_arrival () =
  let nl = chain 3 in
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (unit_provider ~cell_d:10e-12 ~wire_d:2e-12) design in
  (* PI wire is free; 3 cells + 2 inter-cell wires + final PO wire. *)
  check_close ~eps:1e-9 "3 cells + 3 wires" ((3. *. 10e-12) +. (3. *. 2e-12))
    (Engine.circuit_delay report)

let test_chain_path_structure () =
  let nl = chain 4 in
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (unit_provider ~cell_d:5e-12 ~wire_d:1e-12) design in
  let path = Engine.critical_path report in
  Alcotest.(check int) "4 hops" 4 (Path.n_stages path);
  (* Edges alternate through inverters. *)
  let edges = List.map (fun h -> h.Path.out_edge) path.Path.hops in
  let alternates =
    let rec go = function
      | a :: (b :: _ as rest) -> a <> b && go rest
      | _ -> true
    in
    go edges
  in
  Alcotest.(check bool) "edges alternate" true alternates

let test_diamond_takes_worst () =
  (* a -> I1 -> N(I1out, I2out); I2 slower via an extra buffer stage. *)
  let b = B.create ~name:"diamond" in
  let a = B.input b "a" in
  let fast = B.inv b a in
  let slow1 = B.inv b a in
  let slow2 = B.inv b (B.inv b slow1) in
  let n = B.nand2 b fast slow2 in
  B.output b n;
  B.finish b
  |> fun nl ->
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (unit_provider ~cell_d:10e-12 ~wire_d:0.0) design in
  (* Slow branch: 3 inverters + nand = 4 cells. *)
  check_close ~eps:1e-9 "worst branch wins" (4. *. 10e-12) (Engine.circuit_delay report);
  let path = Engine.critical_path report in
  Alcotest.(check int) "path length 4" 4 (Path.n_stages path)

let test_unate_edge_flip () =
  let nl = chain 2 in
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (unit_provider ~cell_d:1e-12 ~wire_d:0.0) design in
  let out_net = nl.N.primary_outputs.(0) in
  (* Both polarities should exist at the output of a 2-inverter chain. *)
  Alcotest.(check bool) "rise arrival exists" true
    (Engine.arrival report ~net:out_net ~edge:Provider.Rise <> None);
  Alcotest.(check bool) "fall arrival exists" true
    (Engine.arrival report ~net:out_net ~edge:Provider.Fall <> None)

let test_design_tap_mapping () =
  let b = B.create ~name:"fanout" in
  let a = B.input b "a" in
  let hub = B.inv b a in
  let s1 = B.inv b hub and s2 = B.inv b hub and s3 = B.inv b hub in
  B.output b s1;
  B.output b s2;
  B.output b s3;
  let nl = B.finish b in
  let design = Design.attach_parasitics tech nl in
  let hub_net = nl.N.gates.(0).N.output in
  let tree = design.Design.parasitics.(hub_net) in
  Alcotest.(check int) "3 taps for 3 sinks" 3 (Array.length tree.Rctree.taps);
  let t0 = Design.tap_of_sink design ~net:hub_net ~sink_index:0 in
  let t1 = Design.tap_of_sink design ~net:hub_net ~sink_index:1 in
  Alcotest.(check bool) "distinct taps" true (t0 <> t1)

let test_total_load_includes_pins () =
  let nl = chain 2 in
  let design = Design.attach_parasitics tech nl in
  let net = nl.N.gates.(0).N.output in
  let wire_cap = Rctree.total_cap design.Design.parasitics.(net) in
  let load = Design.total_load tech design ~net in
  let pin = Cell.input_cap tech (Cell.make Cell.Inv ~strength:1) in
  check_close ~eps:1e-12 "wire + pin" (wire_cap +. pin) load

(* Both loads sum the sink pin caps without building [sink_caps]; the
   sum must be the list fold's, in its order, bit for bit. *)
let test_loads_sum_sink_caps () =
  let nl =
    Nsigma_netlist.Generators.random_logic ~name:"r" ~n_inputs:6 ~n_gates:60
      ~depth:6 ~seed:11
  in
  let design = Design.attach_parasitics tech nl in
  let bits = Int64.bits_of_float in
  for net = 0 to nl.N.n_nets - 1 do
    let pins =
      List.fold_left (fun acc (_, c) -> acc +. c) 0.0
        (Design.sink_caps tech design ~net)
    in
    let tree = design.Design.parasitics.(net) in
    if
      bits (Design.total_load tech design ~net)
      <> bits (Rctree.total_cap tree +. pins)
    then Alcotest.failf "net %d: total load differs from the fold" net;
    let driver = Cell.make Cell.Nand2 ~strength:2 in
    let r_drv = Cell.drive_resistance tech driver in
    if
      bits (Design.effective_load tech design ~net ~driver)
      <> bits (Nsigma_rcnet.Ceff.effective ~driver_resistance:r_drv tree +. pins)
    then Alcotest.failf "net %d: effective load differs from the fold" net
  done

let test_real_provider_on_benchmark () =
  (* Run the nominal provider end-to-end on a small real circuit. *)
  let cells =
    List.concat_map
      (fun k -> [ Cell.make k ~strength:1; Cell.make k ~strength:2;
                  Cell.make k ~strength:4; Cell.make k ~strength:8 ])
      Cell.all_kinds
  in
  let lib =
    Nsigma_liberty.Library.load_or_characterize ~n_mc:200
      ~slews:[| 10e-12; 100e-12; 300e-12 |]
      ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nsigma_test_sta.lvf")
      tech cells
  in
  let bm = List.hd Nsigma_netlist.Benchmarks.small_variants in
  let nl = bm.Nsigma_netlist.Benchmarks.generate () in
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  let delay = Engine.circuit_delay report in
  Alcotest.(check bool) "plausible circuit delay" true
    (delay > 50e-12 && delay < 10e-9);
  let path = Engine.critical_path report in
  Alcotest.(check bool) "path non-empty" true (Path.n_stages path > 2);
  (* Path total equals the circuit delay. *)
  check_close ~eps:1e-9 "path total = circuit delay" delay path.Path.total;
  (* Worst paths are sorted. *)
  let paths = Engine.worst_paths report ~k:3 in
  let totals = List.map (fun p -> p.Path.total) paths in
  Alcotest.(check bool) "sorted worst-first" true
    (totals = List.sort (fun a b -> Float.compare b a) totals);
  (* Path hop bookkeeping: consecutive hops chain through nets. *)
  let rec chained = function
    | a :: (b :: _ as rest) -> a.Path.out_net = b.Path.in_net && chained rest
    | _ -> true
  in
  Alcotest.(check bool) "hops chain" true (chained path.Path.hops)

let test_path_mc_runs () =
  let cells = [ Cell.make Cell.Inv ~strength:1; Cell.make Cell.Inv ~strength:2 ] in
  let lib =
    Nsigma_liberty.Library.load_or_characterize ~n_mc:150
      ~slews:[| 10e-12; 100e-12 |]
      ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nsigma_test_sta2.lvf")
      tech cells
  in
  let nl = chain 5 in
  let design = Design.attach_parasitics tech nl in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  let path = Engine.critical_path report in
  let stats = Nsigma_sta.Path_mc.run ~n:120 ~steps:120 tech design path in
  let m = stats.Nsigma_sta.Path_mc.moments in
  Alcotest.(check bool) "positive mean" true (m.Nsigma_stats.Moments.mean > 0.0);
  Alcotest.(check bool) "quantiles ordered" true
    (stats.Nsigma_sta.Path_mc.quantile (-3) < stats.Nsigma_sta.Path_mc.quantile 0
    && stats.Nsigma_sta.Path_mc.quantile 0 < stats.Nsigma_sta.Path_mc.quantile 3);
  (* Nominal STA total should sit inside the MC span. *)
  Alcotest.(check bool) "nominal within MC span" true
    (path.Path.total > stats.Nsigma_sta.Path_mc.quantile (-3) /. 1.5
    && path.Path.total < stats.Nsigma_sta.Path_mc.quantile 3 *. 1.5)

let () =
  Alcotest.run "nsigma_sta"
    [
      ( "engine",
        [
          Alcotest.test_case "chain arrivals" `Quick test_chain_arrival;
          Alcotest.test_case "chain path" `Quick test_chain_path_structure;
          Alcotest.test_case "diamond worst" `Quick test_diamond_takes_worst;
          Alcotest.test_case "edge polarity" `Quick test_unate_edge_flip;
        ] );
      ( "design",
        [
          Alcotest.test_case "tap mapping" `Quick test_design_tap_mapping;
          Alcotest.test_case "total load" `Quick test_total_load_includes_pins;
          Alcotest.test_case "loads sum the sink caps (bitwise)" `Quick
            test_loads_sum_sink_caps;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "benchmark STA" `Slow test_real_provider_on_benchmark;
          Alcotest.test_case "path MC" `Slow test_path_mc_runs;
        ] );
    ]
