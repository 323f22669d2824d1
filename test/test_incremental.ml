(* Tests for the incremental re-timing layer: the typed edit API and its
   JSON-lines codec, fan-out-cone invalidation with bitwise cutoff
   (incremental reports bit-identical to from-scratch analyses of the
   edited design, on synthetic providers and on the real LVF provider),
   and the on-disk provider store (cold populate, warm hit, bitwise
   round-trip). *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Store = Nsigma_liberty.Store
module N = Nsigma_netlist.Netlist
module B = Nsigma_netlist.Builder
module G = Nsigma_netlist.Generators
module Edit = Nsigma_netlist.Edit
module Rctree = Nsigma_rcnet.Rctree
module Design = Nsigma_sta.Design
module Engine_core = Nsigma_sta.Engine_core
module Ssta = Nsigma_sta.Ssta
module Incremental = Nsigma_sta.Incremental
module Provider = Nsigma_sta.Provider
module Metrics = Nsigma_obs.Metrics

let tech = T.with_vdd T.default_28nm 0.6
let ng = Variation.global_deviate_dim

let local_dist m s =
  {
    Ssta.d_mean = m;
    d_a = Array.make ng 0.0;
    d_b = Array.make ng 0.0;
    d_var_l = s *. s;
    d_m3_l = 0.0;
    d_m4_l = 3.0 *. (s ** 4.0);
  }

(* Constant provider: edits that only change loads/wires are invisible,
   so cutoff fires immediately at the frontier. *)
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

(* Load/slew/wire-sensitive provider: every edit kind moves real
   arrivals, so bitwise incremental-vs-scratch agreement is a strong
   check while staying deterministic and cheap. *)
let load_provider =
  {
    Engine_core.m_label = "load-dep";
    m_cell_delay =
      (fun (g : N.gate) ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew ~load_cap ->
        let r = 1e3 *. float_of_int (4 / g.N.cell.Cell.strength + 1) in
        {
          Ssta.dd =
            local_dist
              (1e-12 +. (r *. load_cap) +. (0.1 *. input_slew))
              (0.05 *. (1e-12 +. (r *. load_cap)));
          d_slew_tc = 0.0;
        });
    m_cell_out_slew =
      (fun _ ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew ~load_cap ->
        (0.4 *. input_slew) +. (5e2 *. load_cap) +. 1e-12);
    m_wire_delay =
      (fun ~net:_ ~driver:_ ~sink:_ ~tree ~tap:_ ->
        let d = 0.5 *. Rctree.total_res tree *. Rctree.total_cap tree in
        { Ssta.dd = local_dist d (0.02 *. d); d_slew_tc = d });
    m_wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        slew_at_root +. (0.3 *. wire_delay.Ssta.d_slew_tc));
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

let expect_edit_error name f =
  match f () with
  | exception Edit.Edit_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Edit_error" name

(* ---- edit API and JSON codec ---- *)

let test_edit_json_roundtrip () =
  let nl = chain 4 in
  let edits =
    [
      Edit.Swap_cell { gate = 1; cell = Cell.make Cell.Inv ~strength:4 };
      Edit.Scale_wire { net = 2; r_scale = 1.25; c_scale = 0.8 };
      Edit.Bump_sink_load { net = 1; sink = 0; delta_cap = 1.5e-15 };
    ]
  in
  (* The fF<->F unit conversion can cost one ulp, so load deltas
     round-trip within tolerance, everything else exactly. *)
  let same a b =
    match (a, b) with
    | ( Edit.Bump_sink_load { net; sink; delta_cap },
        Edit.Bump_sink_load { net = n'; sink = s'; delta_cap = d' } ) ->
      net = n' && sink = s'
      && Float.abs (delta_cap -. d') <= 1e-9 *. Float.abs delta_cap
    | _ -> a = b
  in
  List.iter
    (fun e ->
      let line = Edit.to_json nl e in
      let back = Edit.of_json nl line in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Edit.describe nl e))
        true (same back e))
    edits;
  (* Numeric net/gate references parse too. *)
  let e = Edit.of_json nl {|{"op": "swap_cell", "gate": 0, "cell": "INVX2"}|} in
  Alcotest.(check bool) "numeric gate ref" true
    (e = Edit.Swap_cell { gate = 0; cell = Cell.make Cell.Inv ~strength:2 })

let test_edit_errors () =
  let nl = chain 4 in
  expect_edit_error "unknown op" (fun () ->
      Edit.of_json nl {|{"op": "delete_gate", "gate": 0}|});
  expect_edit_error "unknown net" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net": "bogus", "r": 1.1}|});
  expect_edit_error "unknown gate" (fun () ->
      Edit.of_json nl {|{"op": "swap_cell", "gate": "bogus", "cell": "INVX2"}|});
  expect_edit_error "unknown cell" (fun () ->
      Edit.of_json nl {|{"op": "swap_cell", "gate": 0, "cell": "FOO9"}|});
  expect_edit_error "footprint mismatch" (fun () ->
      Edit.of_json nl {|{"op": "swap_cell", "gate": 0, "cell": "NAND2X2"}|});
  expect_edit_error "malformed json" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net"|});
  expect_edit_error "trailing garbage" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net": 1} extra|});
  expect_edit_error "negative r scale" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net": 1, "r": -1.0}|});
  expect_edit_error "missing field" (fun () ->
      Edit.of_json nl {|{"op": "bump_sink_load", "net": 1}|})

let test_edit_invalidated () =
  let nl = chain 3 in
  let g1 = nl.N.gates.(1) in
  let inv =
    Edit.invalidated nl
      (Edit.Swap_cell { gate = 1; cell = Cell.make Cell.Inv ~strength:8 })
  in
  Alcotest.(check bool) "swap invalidates output and inputs" true
    (List.sort_uniq compare (g1.N.output :: Array.to_list g1.N.inputs) = inv);
  Alcotest.(check (list int)) "wire edit invalidates its net" [ 2 ]
    (Edit.invalidated nl (Edit.Scale_wire { net = 2; r_scale = 2.0; c_scale = 1.0 }))

(* ---- incremental vs from-scratch, synthetic providers ---- *)

let scratch_report ?config provider design =
  Ssta.analyze ?config tech provider design

(* Two identical designs from the same deterministic generation; edits
   are applied to both (incrementally vs via Design.apply_edit +
   re-analysis) and the reports must stay bit-identical. *)
let check_sequence ?config ~make_netlist edits =
  let design_inc = Design.attach_parasitics tech (make_netlist ()) in
  let design_ref = Design.attach_parasitics tech (make_netlist ()) in
  let inc =
    Incremental.init ?config tech
      (Ssta.handle_of_provider load_provider)
      design_inc
  in
  List.iteri
    (fun i e ->
      let stats = Incremental.apply inc e in
      ignore (Design.apply_edit design_ref e);
      let reference = scratch_report ?config load_provider design_ref in
      if not (Incremental.reports_bit_identical (Incremental.report inc) reference)
      then
        Alcotest.failf "edit %d (%s): incremental diverged from scratch" i
          (Edit.describe design_inc.Design.netlist e);
      Alcotest.(check bool) "some gate re-evaluated" true (stats.Incremental.st_dirty > 0))
    edits

let test_incremental_chain () =
  check_sequence
    ~make_netlist:(fun () -> chain 12)
    [
      Edit.Swap_cell { gate = 5; cell = Cell.make Cell.Inv ~strength:4 };
      Edit.Scale_wire { net = 3; r_scale = 1.5; c_scale = 1.2 };
      Edit.Bump_sink_load { net = 7; sink = 0; delta_cap = 2e-15 };
      Edit.Swap_cell { gate = 5; cell = Cell.make Cell.Inv ~strength:1 };
      Edit.Bump_sink_load { net = 7; sink = 0; delta_cap = -2e-15 };
    ]

let test_incremental_random () =
  let make_netlist () =
    G.random_logic ~name:"r" ~n_inputs:6 ~n_gates:60 ~depth:6 ~seed:11
  in
  let nl = make_netlist () in
  let pick_gate i = (7 * i) mod Array.length nl.N.gates in
  let edits =
    List.concat_map
      (fun i ->
        let gi = pick_gate i in
        let g = nl.N.gates.(gi) in
        [
          Edit.Swap_cell
            {
              gate = gi;
              cell = Cell.make g.N.cell.Cell.kind ~strength:(if i mod 2 = 0 then 4 else 2);
            };
          Edit.Scale_wire
            { net = g.N.output; r_scale = 1.0 +. (0.1 *. float_of_int (i + 1)); c_scale = 0.9 };
          Edit.Bump_sink_load { net = g.N.inputs.(0); sink = 0; delta_cap = 1e-15 };
        ])
      [ 0; 1; 2 ]
  in
  check_sequence ~make_netlist edits;
  check_sequence
    ~config:{ Ssta.op = Nsigma_stats.Stat_max.Moment; corr = Ssta.Tracked }
    ~make_netlist edits

let test_cutoff_on_invisible_edit () =
  (* Constant provider: a load bump changes nothing the provider reads,
     so the frontier gates recompute bitwise-equal slots and propagation
     stops right there — dirty stays O(frontier) on a deep chain. *)
  let n = 40 in
  let design = Design.attach_parasitics tech (chain n) in
  let d = local_dist 10e-12 1e-12 in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider (const_provider d)) design
  in
  let before = Incremental.report inc in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let counter name = Metrics.find_counter ("sta.incr." ^ name) in
  let edits0 = counter "edits" and cut0 = counter "cutoff_hits" in
  let dirty0 = counter "dirty_gates" and inval0 = counter "invalidated_nets" in
  let stats =
    Incremental.apply inc
      (Edit.Bump_sink_load { net = 3; sink = 0; delta_cap = 1e-15 })
  in
  Metrics.set_enabled was;
  Alcotest.(check bool) "dirty stays at the frontier" true
    (stats.Incremental.st_dirty <= 3);
  Alcotest.(check bool) "cutoffs recorded" true (stats.Incremental.st_cutoffs >= 1);
  (* The run-report counters mirror the returned work stats. *)
  Alcotest.(check (list int)) "sta.incr.* counters"
    [ 1; stats.Incremental.st_cutoffs; stats.Incremental.st_dirty;
      stats.Incremental.st_invalidated ]
    [ counter "edits" - edits0; counter "cutoff_hits" - cut0;
      counter "dirty_gates" - dirty0; counter "invalidated_nets" - inval0 ];
  Alcotest.(check bool) "report unchanged" true
    (Incremental.reports_bit_identical before (Incremental.report inc))

let test_cone_smaller_than_circuit () =
  (* Load-sensitive provider on a deep chain: an edit near the output
     re-times only the downstream cone. *)
  let n = 60 in
  let design = Design.attach_parasitics tech (chain n) in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider load_provider) design
  in
  (* Gate n-5's output net sits 5 stages from the PO. *)
  let gi = n - 5 in
  let stats =
    Incremental.apply inc
      (Edit.Swap_cell { gate = gi; cell = Cell.make Cell.Inv ~strength:8 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "dirty %d < half the chain" stats.Incremental.st_dirty)
    true
    (stats.Incremental.st_dirty < n / 2)

let test_edit_error_leaves_state () =
  let design = Design.attach_parasitics tech (chain 6) in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider load_provider) design
  in
  let before = Incremental.report inc in
  expect_edit_error "bad sink" (fun () ->
      Incremental.apply inc
        (Edit.Bump_sink_load { net = 2; sink = 99; delta_cap = 1e-15 }));
  Alcotest.(check bool) "state unchanged after failed edit" true
    (Incremental.reports_bit_identical before (Incremental.report inc))

(* ---- real provider + on-disk store ---- *)

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

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsigma_test_%s" name)
  in
  (* best-effort clean slate *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  dir

let test_incremental_real_provider () =
  let lib = Lazy.force library in
  let make_netlist () =
    G.random_logic ~name:"real" ~n_inputs:5 ~n_gates:40 ~depth:5 ~seed:3
  in
  let design_inc = Design.attach_parasitics tech (make_netlist ()) in
  let design_ref = Design.attach_parasitics tech (make_netlist ()) in
  (* Small sample counts keep the mini-MCs cheap; both sides share the
     knobs so determinism, not accuracy, is under test. *)
  let handle =
    Ssta.lvf_handle ~wire_samples:16 ~frac_samples:32 ~store_dir:None tech lib
      design_inc
  in
  let inc = Incremental.init tech handle design_inc in
  let nl = design_inc.Design.netlist in
  let g7 = nl.N.gates.(7) in
  let edits =
    [
      Edit.Swap_cell
        { gate = 7; cell = Cell.make g7.N.cell.Cell.kind ~strength:4 };
      Edit.Scale_wire { net = g7.N.output; r_scale = 1.4; c_scale = 1.1 };
      Edit.Bump_sink_load { net = g7.N.inputs.(0); sink = 0; delta_cap = 2e-15 };
    ]
  in
  List.iteri
    (fun i e ->
      ignore (Incremental.apply inc e);
      ignore (Design.apply_edit design_ref e);
      let provider_ref =
        Ssta.lvf_provider ~wire_samples:16 ~frac_samples:32 ~store_dir:None
          tech lib design_ref
      in
      let reference = Ssta.analyze tech provider_ref design_ref in
      if not (Incremental.reports_bit_identical (Incremental.report inc) reference)
      then Alcotest.failf "edit %d: real-provider incremental diverged" i)
    edits

let test_store_roundtrip () =
  let lib = Lazy.force library in
  let design =
    Design.attach_parasitics tech
      (G.random_logic ~name:"st" ~n_inputs:4 ~n_gates:25 ~depth:4 ~seed:5)
  in
  let dir = fresh_dir "store_test" in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let hits0 = Metrics.find_counter "provider.store.hit" in
  let misses0 = Metrics.find_counter "provider.store.miss" in
  (* Cold: every regression misses the store, computes and saves. *)
  let h_cold =
    Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir:(Some dir)
      tech lib design
  in
  h_cold.Ssta.h_prewarm ();
  let misses = Metrics.find_counter "provider.store.miss" - misses0 in
  Alcotest.(check bool) "cold pass misses" true (misses > 0);
  Alcotest.(check bool) "store populated" true
    (Array.length (Sys.readdir dir) > 0);
  (* Warm: a fresh provider loads every regression from disk. *)
  let h_warm =
    Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir:(Some dir)
      tech lib design
  in
  h_warm.Ssta.h_prewarm ();
  let hits = Metrics.find_counter "provider.store.hit" - hits0 in
  Alcotest.(check int) "warm pass hits everything the cold pass missed"
    misses hits;
  (* And the store round-trip is bitwise: warm analysis = cold analysis. *)
  let r_cold = Ssta.analyze tech h_cold.Ssta.h_provider design in
  let r_warm = Ssta.analyze tech h_warm.Ssta.h_provider design in
  Metrics.set_enabled was;
  Alcotest.(check bool) "warm bitwise equal to cold" true
    (Incremental.reports_bit_identical r_cold r_warm)

let test_store_stale_heals () =
  let dir = fresh_dir "store_stale" in
  let key = "unit-test|k1" in
  Store.save ~dir ~key "payload-v1";
  (* Corrupt the artifact body so decode fails -> stale, then recompute
     path heals it with a fresh save. *)
  let path = Store.path_of ~dir ~key in
  let oc = open_out path in
  output_string oc "garbage";
  close_out oc;
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let stale0 = Metrics.find_counter "provider.store.stale" in
  let got = Store.find ~dir ~key ~decode:(fun s -> Some s) in
  Alcotest.(check bool) "stale artifact rejected" true (got = None);
  Alcotest.(check int) "stale counted" (stale0 + 1)
    (Metrics.find_counter "provider.store.stale");
  Store.save ~dir ~key "payload-v2";
  Alcotest.(check (option string)) "healed" (Some "payload-v2")
    (Store.find ~dir ~key ~decode:(fun s -> Some s));
  Metrics.set_enabled was

(* ---- the real provider's per-arc cell memo ---- *)

let memo_counts () =
  ( Metrics.find_counter "sta.ssta.cell_memo.hits",
    Metrics.find_counter "sta.ssta.cell_memo.misses" )

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) f

let memo_netlist () =
  G.random_logic ~name:"memo" ~n_inputs:5 ~n_gates:40 ~depth:5 ~seed:3

(* A cold pass evaluates each arc once, so neither a plain analysis nor
   the incremental engine's initial pass makes the memo. *)
let test_memo_cold_pass () =
  let lib = Lazy.force library in
  let design = Design.attach_parasitics tech (memo_netlist ()) in
  with_metrics @@ fun () ->
  let h0, m0 = memo_counts () in
  let p =
    Ssta.lvf_provider ~wire_samples:8 ~frac_samples:16 ~store_dir:None tech lib
      design
  in
  ignore (Ssta.analyze tech p design : Ssta.report);
  let h =
    Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir:None tech lib
      design
  in
  ignore (Incremental.init tech h design : Incremental.t);
  let h1, m1 = memo_counts () in
  Alcotest.(check (pair int int)) "no memo hits or misses" (0, 0)
    (h1 - h0, m1 - m0)

(* Same input net, edges, slew and load: only the cell differs after a
   swap, and that alone must miss and give the new cell's value — the
   one a fresh provider computes — and swapping the old cell back must
   miss again and give the old value. *)
let test_memo_swap_misses () =
  let lib = Lazy.force library in
  let design = Design.attach_parasitics tech (memo_netlist ()) in
  let nl = design.Design.netlist in
  (* A PI-driven input: no upstream slew sensitivity, in a fresh
     provider as in this one. *)
  let gi =
    match
      List.find_opt
        (fun gi -> design.Design.drivers.(nl.N.gates.(gi).N.inputs.(0)) < 0)
        (List.init (Array.length nl.N.gates) Fun.id)
    with
    | Some gi -> gi
    | None -> Alcotest.fail "no gate with a PI-driven input"
  in
  let g = nl.N.gates.(gi) in
  let h =
    Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir:None tech lib
      design
  in
  h.Ssta.h_invalidate_net g.N.output;
  let edge = Provider.Rise and in_net = g.N.inputs.(0) in
  let in_edge = List.hd (Engine_core.in_edges_for g.N.cell.Cell.kind edge) in
  let call (p : Ssta.provider) gate =
    let d =
      p.Engine_core.m_cell_delay gate ~edge ~in_net ~in_edge ~input_slew:40e-12
        ~load_cap:2e-15
    in
    let s =
      p.Engine_core.m_cell_out_slew gate ~edge ~in_net ~in_edge
        ~input_slew:40e-12 ~load_cap:2e-15
    in
    let x = d.Ssta.dd in
    List.map Int64.bits_of_float
      ([ s; x.Ssta.d_mean; x.Ssta.d_var_l; x.Ssta.d_m3_l; x.Ssta.d_m4_l ]
      @ Array.to_list x.Ssta.d_a @ Array.to_list x.Ssta.d_b)
  in
  let p = h.Ssta.h_provider in
  with_metrics @@ fun () ->
  let delta f =
    let h0, m0 = memo_counts () in
    let r = f () in
    let h1, m1 = memo_counts () in
    (r, (h1 - h0, m1 - m0))
  in
  let old_bits, c = delta (fun () -> call p g) in
  Alcotest.(check (pair int int)) "first call misses" (0, 2) c;
  let again, c = delta (fun () -> call p g) in
  Alcotest.(check (pair int int)) "same inputs hit" (2, 0) c;
  Alcotest.(check bool) "hit = miss (bitwise)" true (again = old_bits);
  let strength = if g.N.cell.Cell.strength = 8 then 1 else 8 in
  let swap cell =
    ignore (Design.apply_edit design (Edit.Swap_cell { gate = gi; cell }) : int list);
    nl.N.gates.(gi)
  in
  let g' = swap (Cell.make g.N.cell.Cell.kind ~strength) in
  let new_bits, c = delta (fun () -> call p g') in
  Alcotest.(check (pair int int)) "swapped gate misses" (0, 2) c;
  let fresh =
    Ssta.lvf_provider ~wire_samples:8 ~frac_samples:16 ~store_dir:None tech lib
      design
  in
  Alcotest.(check bool) "swapped = fresh provider (bitwise)" true
    (new_bits = call fresh g');
  Alcotest.(check bool) "swap changes the arc" true (new_bits <> old_bits);
  let back, c = delta (fun () -> call p (swap g.N.cell)) in
  Alcotest.(check (pair int int)) "swap back misses" (0, 2) c;
  Alcotest.(check bool) "swap back = original (bitwise)" true (back = old_bits)

(* The cutoff's slew-sensitivity comparison runs twice per re-timed
   gate, so it must not allocate; it stays presence-tagged: clearing a
   net's entries counts as a change. *)
let test_slew_mark_allocation_free () =
  let lib = Lazy.force library in
  let design = Design.attach_parasitics tech (memo_netlist ()) in
  let h =
    Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir:None tech lib
      design
  in
  ignore (Incremental.init tech h design : Incremental.t);
  let net = design.Design.netlist.N.gates.(0).N.output in
  let n = 10_000 in
  let changed = ref false in
  let mw0 = Gc.minor_words () in
  for _ = 1 to n do
    h.Ssta.h_slew_mark net;
    if h.Ssta.h_slew_changed net then changed := true
  done;
  let words = (Gc.minor_words () -. mw0) /. float_of_int n in
  Alcotest.(check bool) "unchanged state reads unchanged" false !changed;
  if words > 0.01 then
    Alcotest.failf "%.3f minor words per mark + compare, want 0" words;
  h.Ssta.h_slew_mark net;
  h.Ssta.h_invalidate_net net;
  Alcotest.(check bool) "cleared entries read changed" true
    (h.Ssta.h_slew_changed net)

(* The words of a freshly built dist: the record, its four boxed float
   fields and its two [ng]-float coefficient arrays. *)
let dist_words = 7 + (4 * 2) + (2 * (1 + ng))

(* Arrival arithmetic runs for every candidate of every re-timed gate,
   so [add] and a memo hit build their result and nothing else: no
   boxed float per coefficient. *)
let test_dist_allocation () =
  let per_call n f =
    let mw0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. mw0) /. float_of_int n
  in
  let check_words what want got =
    if Float.abs (got -. float_of_int want) > 0.01 then
      Alcotest.failf "%s: %.3f minor words per call, want %d" what got want
  in
  let alg = Ssta.algebra Ssta.default_config in
  let a = { (local_dist 10e-12 1e-12) with Ssta.d_a = [| 1e-12; 2e-12; 3e-12 |] } in
  let d = { Ssta.dd = local_dist 5e-12 0.5e-12; d_slew_tc = 0.0 } in
  check_words "algebra add" dist_words
    (per_call 10_000 (fun () -> alg.Engine_core.add a d));
  let lib = Lazy.force library in
  let design = Design.attach_parasitics tech (memo_netlist ()) in
  let g = design.Design.netlist.N.gates.(0) in
  let h =
    Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir:None tech lib
      design
  in
  h.Ssta.h_invalidate_net g.N.output;
  let edge = Provider.Rise and in_net = g.N.inputs.(0) in
  let in_edge = List.hd (Engine_core.in_edges_for g.N.cell.Cell.kind edge) in
  let call () =
    h.Ssta.h_provider.Engine_core.m_cell_delay g ~edge ~in_net ~in_edge
      ~input_slew:40e-12 ~load_cap:2e-15
  in
  let hits =
    with_metrics @@ fun () ->
    ignore (call () : Ssta.delay);
    let h0, _ = memo_counts () in
    ignore (call () : Ssta.delay);
    fst (memo_counts ()) - h0
  in
  Alcotest.(check int) "second call hits" 1 hits;
  (* The delay record itself: its dist and a static 0.0. *)
  check_words "memo-hit cell delay" (3 + dist_words) (per_call 10_000 call)

(* Random edit sequences with the real provider, reverting edits
   included (a swap back to the original cell, a load bump undone, a
   wire scaled by exactly 1): after every edit the incremental report
   is bitwise a fresh provider's from-scratch analysis, and the memo
   hits.  Every sequence ends with the same unit wire scale twice: the
   second re-times the net's driver and sinks on the inputs the first
   stored, so the memo must hit (the first edit of a handle arms the
   memo and can only miss). *)
let prop_memo_random_sequences =
  let lib = lazy (Lazy.force library) in
  let dir = lazy (fresh_dir "memo_sequences") in
  let step = QCheck.(triple (int_bound 4) (int_bound 1000) (int_bound 3)) in
  QCheck.Test.make ~count:20 ~name:"memo: random sequences = scratch, hits > 0"
    QCheck.(pair (list_of_size (Gen.int_range 1 4) step) (int_bound 1000))
    (fun (steps, last) ->
      let lib = Lazy.force lib and store_dir = Some (Lazy.force dir) in
      let design_inc = Design.attach_parasitics tech (memo_netlist ()) in
      let design_ref = Design.attach_parasitics tech (memo_netlist ()) in
      let nl = design_inc.Design.netlist in
      let original = Array.copy nl.N.gates in
      let n_gates = Array.length original in
      let handle =
        Ssta.lvf_handle ~wire_samples:8 ~frac_samples:16 ~store_dir tech lib
          design_inc
      in
      let inc = Incremental.init tech handle design_inc in
      let edits_of (kind, i, j) =
        let gi = i mod n_gates in
        let g = original.(gi) in
        let load delta_cap =
          Edit.Bump_sink_load { net = g.N.inputs.(0); sink = 0; delta_cap }
        in
        match kind with
        | 0 ->
          [ Edit.Swap_cell
              { gate = gi;
                cell = Cell.make g.N.cell.Cell.kind ~strength:(1 lsl j) } ]
        | 1 -> [ Edit.Swap_cell { gate = gi; cell = g.N.cell } ]
        | 2 ->
          [ Edit.Scale_wire
              { net = g.N.output; r_scale = 1.0 +. (0.1 *. float_of_int (j + 1));
                c_scale = 0.9 } ]
        | 3 -> [ load 1e-15; load (-1e-15) ]
        | _ -> [ Edit.Scale_wire { net = g.N.output; r_scale = 1.0; c_scale = 1.0 } ]
      in
      (* Two pins on one net share a memo slot and evict each other, so
         the closing edits drive a gate whose input nets are distinct. *)
      let distinct_inputs gi =
        let ins = Array.to_list original.(gi).N.inputs in
        List.length (List.sort_uniq compare ins) = List.length ins
      in
      let last =
        List.find distinct_inputs
          (List.init n_gates (fun k -> (last + k) mod n_gates))
      in
      let edits =
        List.concat_map edits_of (steps @ [ (4, last, 0); (4, last, 0) ])
      in
      with_metrics @@ fun () ->
      let h0, _ = memo_counts () in
      List.iter
        (fun e ->
          ignore (Incremental.apply inc e : Incremental.stats);
          ignore (Design.apply_edit design_ref e : int list);
          let p =
            Ssta.lvf_provider ~wire_samples:8 ~frac_samples:16 ~store_dir tech
              lib design_ref
          in
          if
            not
              (Incremental.reports_bit_identical (Incremental.report inc)
                 (Ssta.analyze tech p design_ref))
          then
            QCheck.Test.fail_reportf "%s: incremental diverged from scratch"
              (Edit.describe nl e))
        edits;
      let h1, _ = memo_counts () in
      h1 - h0 > 0)

(* ---- retained PO results ---- *)

(* A PO net that also feeds a gate and is listed twice, a PO-only net,
   a primary input that is also a primary output, and a dangling gate
   whose cone reaches no PO. *)
let po_netlist () =
  let b = B.create ~name:"pos" in
  let a = B.input b "a" and c = B.input b "c" in
  let n1 = B.inv b a in
  let n3 = B.inv b (B.nand2 b n1 c) in
  let n4 = B.inv b n3 in
  ignore (B.inv b n1 : int);
  List.iter (B.output b) [ n3; n4; n3; c ];
  B.finish b

let po_updates () = Metrics.find_counter "sta.incr.po_updates"

(* Each edit goes to the incremental engine and to a reference design
   re-analysed from scratch; a rejected edit must be rejected by both.
   After every edit the reports must be bitwise equal.  Returns each
   edit's [sta.incr.po_updates] count. *)
let po_sequence ~make_netlist edits =
  let design_inc = Design.attach_parasitics tech (make_netlist ()) in
  let design_ref = Design.attach_parasitics tech (make_netlist ()) in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider load_provider) design_inc
  in
  with_metrics @@ fun () ->
  List.mapi
    (fun i e ->
      let u0 = po_updates () in
      (match Incremental.apply inc e with
      | (_ : Incremental.stats) ->
        ignore (Design.apply_edit design_ref e : int list)
      | exception Edit.Edit_error _ ->
        expect_edit_error "reference" (fun () -> Design.apply_edit design_ref e));
      if
        not
          (Incremental.reports_bit_identical (Incremental.report inc)
             (scratch_report load_provider design_ref))
      then
        Alcotest.failf "edit %d (%s): incremental diverged from scratch" i
          (Edit.describe design_inc.Design.netlist e);
      po_updates () - u0)
    edits

let po_sink (design : Design.t) net =
  match List.find_index (fun (g, _) -> g < 0) design.Design.fanouts.(net) with
  | Some k -> k
  | None -> Alcotest.failf "net %d has no PO sink" net

let test_po_cache_edits () =
  let nl = po_netlist () in
  let design = Design.attach_parasitics tech nl in
  let n3 = nl.N.primary_outputs.(0) and n4 = nl.N.primary_outputs.(1) in
  let c = nl.N.primary_outputs.(3) in
  let dangling = nl.N.gates.(Array.length nl.N.gates - 1).N.output in
  let inv4 = Cell.make Cell.Inv ~strength:4 in
  let cases =
    [
      ("scale a PO net", true, Edit.Scale_wire { net = n3; r_scale = 1.3; c_scale = 1.2 });
      ( "bump its PO sink",
        true,
        Edit.Bump_sink_load { net = n3; sink = po_sink design n3; delta_cap = 2e-15 } );
      ( "bump a PO-only net",
        true,
        Edit.Bump_sink_load { net = n4; sink = po_sink design n4; delta_cap = 1e-15 } );
      ("swap a PO's driver", true, Edit.Swap_cell { gate = design.Design.drivers.(n4); cell = inv4 });
      ("scale a PI that is a PO", true, Edit.Scale_wire { net = c; r_scale = 2.0; c_scale = 2.0 });
      ("reach no PO", false, Edit.Scale_wire { net = dangling; r_scale = 1.5; c_scale = 1.5 });
      ("failed edit", false, Edit.Bump_sink_load { net = n4; sink = 9; delta_cap = 1e-15 });
    ]
  in
  let updates =
    po_sequence ~make_netlist:po_netlist (List.map (fun (_, _, e) -> e) cases)
  in
  let max_results = 2 * Array.length nl.N.primary_outputs in
  List.iter2
    (fun (what, reaches, _) n ->
      if reaches then
        Alcotest.(check bool)
          (Printf.sprintf "%s: 0 < %d PO updates <= %d" what n max_results)
          true
          (n > 0 && n <= max_results)
      else Alcotest.(check int) (what ^ ": no PO update") 0 n)
    cases updates

(* Every PO net of a random circuit: its wire scaled, its PO sink
   loaded, its driver swapped. *)
let test_po_cache_random () =
  let make_netlist () =
    G.random_logic ~name:"r" ~n_inputs:6 ~n_gates:60 ~depth:6 ~seed:11
  in
  let nl = make_netlist () in
  let design = Design.attach_parasitics tech nl in
  let edits =
    List.concat_map
      (fun po ->
        let driver = design.Design.drivers.(po) in
        [
          Edit.Scale_wire { net = po; r_scale = 1.2; c_scale = 1.1 };
          Edit.Bump_sink_load { net = po; sink = po_sink design po; delta_cap = 1e-15 };
        ]
        @
        if driver < 0 then []
        else
          let g = nl.N.gates.(driver) in
          [ Edit.Swap_cell
              { gate = driver;
                cell = Cell.make g.N.cell.Cell.kind
                    ~strength:(if g.N.cell.Cell.strength = 4 then 2 else 4) } ])
      (Array.to_list nl.N.primary_outputs)
  in
  List.iter
    (fun n -> Alcotest.(check bool) "the edit's PO results recomputed" true (n > 0))
    (po_sequence ~make_netlist edits)

(* ---- the retained PO ranking ---- *)

(* The order a full pass gave its PO results before the ranking kept
   them: every entry's results consed in entry order, then the
   stdlib's stable [List.sort] worst first on the keys. *)
let cons_and_sort keyed =
  let l = ref [] in
  Array.iter (List.iter (fun r -> l := r :: !l)) keyed;
  List.map snd (List.sort (fun (ka, _) (kb, _) -> Float.compare kb ka) !l)

let rank_key_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ Float.nan; 0.0; -0.0; infinity; neg_infinity; 1.0; -2.5 ]);
        (1, float_range (-10.0) 10.0);
      ])

let rank_keys_gen = QCheck.Gen.(int_range 0 2 >>= fun n -> list_repeat n rank_key_gen)

(* Entries map onto fewer nets, so PO entries repeat and re-key
   together, as a net listed twice in [primary_outputs] does.  Net 0
   is entry 0's; its result count is driven 2 -> 1 -> 0 -> 2 by the
   first three updates, whatever else they re-key. *)
let ranking_case =
  let gen =
    QCheck.Gen.(
      int_range 1 10 >>= fun n_nets ->
      array_size (int_range 1 24) (int_bound (n_nets - 1)) >>= fun nets ->
      array_repeat n_nets rank_keys_gen >>= fun init ->
      pair rank_key_gen rank_key_gen >>= fun forced ->
      list_size (int_range 3 10)
        (list_size (int_range 0 4) (pair (int_bound (n_nets - 1)) rank_keys_gen))
      >>= fun steps -> return (nets, init, forced, steps))
  in
  QCheck.make gen
    ~print:
      QCheck.Print.(
        quad (array int) (array (list float)) (pair float float)
          (list (list (pair int (list float)))))

let prop_ranking_updates =
  QCheck.Test.make ~count:500
    ~name:"PO ranking after random updates = cons and stable sort"
    ranking_case (fun (nets, init, (k1, k2), steps) ->
      let nets = Array.copy nets in
      nets.(0) <- 0;
      let net_keys = Array.copy init in
      net_keys.(0) <- [ k1; k2 ];
      (* A result names its entry, its index and the update that made
         it, so a stale or misplaced result cannot compare equal. *)
      let keyed_of version entry =
        List.mapi (fun idx k -> (k, (entry, idx, version))) net_keys.(nets.(entry))
      in
      let current = Array.init (Array.length nets) (keyed_of 0) in
      let ranking = Engine_core.ranking_of_keyed current in
      let agrees () = Engine_core.ranking_list ranking = cons_and_sort current in
      let forced = [ [ k1 ]; []; [ k1; k2 ] ] in
      agrees ()
      && List.for_all
           (fun (version, step) ->
             let step =
               match List.nth_opt forced (version - 1) with
               | Some keys -> step @ [ (0, keys) ]
               | None -> step
             in
             List.iter (fun (net, keys) -> net_keys.(net) <- keys) step;
             Array.iteri
               (fun entry net ->
                 if List.mem_assoc net step then begin
                   current.(entry) <- keyed_of version entry;
                   Engine_core.ranking_replace ranking ~entry current.(entry)
                 end)
               nets;
             Engine_core.ranking_commit ranking;
             agrees ())
           (List.mapi (fun i step -> (i + 1, step)) steps))

let test_ranking_rejects () =
  let r = Engine_core.ranking_of_keyed [| [ (1.0, ()) ]; [] |] in
  Engine_core.ranking_replace r ~entry:1 [ (2.0, ()) ];
  Alcotest.check_raises "staged twice"
    (Invalid_argument "Engine_core.ranking_replace: entry staged twice")
    (fun () -> Engine_core.ranking_replace r ~entry:1 []);
  Alcotest.check_raises "three results"
    (Invalid_argument "Engine_core.ranking: more than two results per entry")
    (fun () ->
      ignore
        (Engine_core.ranking_of_keyed [| [ (1.0, ()); (2.0, ()); (3.0, ()) ] |]))

(* An ECO edit re-keys a PO net or two out of c5315's 847 entries: the
   update allocates nothing, the PO list its n conses, and neither
   ever allocates on the major heap. *)
let test_ranking_allocation () =
  let n_entries = 847 in
  let key e idx = float_of_int (((e * 7919) + (idx * 104729)) mod 500) in
  let keyed =
    Array.init n_entries (fun e -> [ (key e 0, e); (key e 1, e) ])
  in
  let r = Engine_core.ranking_of_keyed keyed in
  let n = 2 * n_entries and rounds = 200 in
  let fresh =
    Array.init rounds (fun i -> [ (float_of_int (i mod 7) *. 70.0, -i); (3.0, -i) ])
  in
  (* OCaml 5 folds a domain's major allocations into the counters at a
     collection: read them after one. *)
  let direct_major () =
    Gc.minor ();
    let st = Gc.quick_stat () in
    st.Gc.major_words -. st.Gc.promoted_words
  in
  let update_words = ref 0.0 and list_words = ref 0.0 in
  let major0 = direct_major () in
  for i = 0 to rounds - 1 do
    let w0 = Gc.minor_words () in
    Engine_core.ranking_replace r ~entry:((i * 389) mod n_entries) fresh.(i);
    Engine_core.ranking_commit r;
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Engine_core.ranking_list r));
    let w2 = Gc.minor_words () in
    update_words := !update_words +. (w1 -. w0);
    list_words := !list_words +. (w2 -. w1)
  done;
  let major = direct_major () -. major0 in
  let update = !update_words /. float_of_int rounds
  and list = !list_words /. float_of_int rounds in
  if update > 0.01 then
    Alcotest.failf "update: %.2f minor words per edit, want 0" update;
  if Float.abs (list -. float_of_int (3 * n)) > 0.01 then
    Alcotest.failf "list: %.2f minor words per edit, want %d" list (3 * n);
  if major > 0.0 then
    Alcotest.failf "%.0f words allocated directly on the major heap" major

let () =
  Alcotest.run "nsigma_incremental"
    [
      ( "edits",
        [
          Alcotest.test_case "json roundtrip" `Quick test_edit_json_roundtrip;
          Alcotest.test_case "edit errors" `Quick test_edit_errors;
          Alcotest.test_case "invalidated nets" `Quick test_edit_invalidated;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "chain sequence = scratch" `Quick
            test_incremental_chain;
          Alcotest.test_case "random sequence = scratch (both ops)" `Quick
            test_incremental_random;
          Alcotest.test_case "cutoff on invisible edit" `Quick
            test_cutoff_on_invisible_edit;
          Alcotest.test_case "cone < circuit" `Quick
            test_cone_smaller_than_circuit;
          Alcotest.test_case "failed edit leaves state" `Quick
            test_edit_error_leaves_state;
          Alcotest.test_case "PO cache: PO edits, no-PO edit, failed edit"
            `Quick test_po_cache_edits;
          Alcotest.test_case "PO cache: every PO of a random circuit" `Quick
            test_po_cache_random;
        ] );
      ( "po ranking",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_ranking_updates;
          Alcotest.test_case "rejects a second stage and a third result"
            `Quick test_ranking_rejects;
          Alcotest.test_case "an update allocates only the PO list" `Slow
            test_ranking_allocation;
        ] );
      ( "store",
        [
          Alcotest.test_case "stale artifact heals" `Quick
            test_store_stale_heals;
          Alcotest.test_case "cold/warm roundtrip" `Slow test_store_roundtrip;
          Alcotest.test_case "real provider incremental" `Slow
            test_incremental_real_provider;
        ] );
      ( "cell memo",
        [
          Alcotest.test_case "cold pass leaves the memo unmade" `Slow
            test_memo_cold_pass;
          Alcotest.test_case "swap misses" `Slow test_memo_swap_misses;
          Alcotest.test_case "slew mark/compare allocate nothing" `Slow
            test_slew_mark_allocation_free;
          Alcotest.test_case "add and memo hit allocate their result" `Slow
            test_dist_allocation;
          QCheck_alcotest.to_alcotest ~long:false prop_memo_random_sequences;
        ] );
    ]
