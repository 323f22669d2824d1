module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Rctree = Nsigma_rcnet.Rctree
module Wire_gen = Nsigma_rcnet.Wire_gen
module Rng = Nsigma_stats.Rng

type t = {
  netlist : Netlist.t;
  parasitics : Rctree.t array;
  drivers : int array;
  fanouts : (int * int) list array;
  loaded_cache : Rctree.t option array;
}

(* Primary outputs are modelled as a fixed pad/flop load. *)
let po_load = 1.0e-15

let attach_parasitics ?(seed = 7) ?backbone_um ?stub_um tech netlist =
  let fanouts = Netlist.fanouts_of netlist in
  let g = Rng.create ~seed in
  let parasitics =
    Array.init netlist.Netlist.n_nets (fun net ->
        let fanout = max 1 (List.length fanouts.(net)) in
        Wire_gen.for_fanout tech ~fanout ?backbone_um ?stub_um (Rng.split g))
  in
  {
    netlist;
    parasitics;
    drivers = Netlist.driver_of netlist;
    fanouts;
    loaded_cache = Array.make netlist.Netlist.n_nets None;
  }

let of_parasitics netlist parasitics =
  if Array.length parasitics <> netlist.Netlist.n_nets then
    invalid_arg "Design.of_parasitics: one tree per net required";
  let fanouts = Netlist.fanouts_of netlist in
  Array.iteri
    (fun net tree ->
      if Array.length tree.Rctree.taps < List.length fanouts.(net) then
        invalid_arg
          (Printf.sprintf "Design.of_parasitics: net %d has fewer taps than sinks"
             net))
    parasitics;
  {
    netlist;
    parasitics;
    drivers = Netlist.driver_of netlist;
    fanouts;
    loaded_cache = Array.make netlist.Netlist.n_nets None;
  }

let tap_of_sink t ~net ~sink_index =
  let taps = t.parasitics.(net).Rctree.taps in
  taps.(sink_index mod Array.length taps)

let pin_cap tech t gate =
  if gate < 0 then po_load
  else Cell.input_cap tech t.netlist.Netlist.gates.(gate).Netlist.cell

let sink_caps tech t ~net =
  List.mapi
    (fun k (gate, _) -> (tap_of_sink t ~net ~sink_index:k, pin_cap tech t gate))
    t.fanouts.(net)

(* The sum of [sink_caps]'s capacitances, in its order, without building
   the list: the walk asks for it once per evaluated gate. *)
let pin_cap_sum tech t ~net =
  let sum = ref 0.0 and sinks = ref t.fanouts.(net) in
  while
    match !sinks with
    | [] -> false
    | (gate, _) :: rest ->
      sum := !sum +. pin_cap tech t gate;
      sinks := rest;
      true
  do
    ()
  done;
  !sum

let loaded_parasitic tech t ~net =
  match t.loaded_cache.(net) with
  | Some tree -> tree
  | None ->
    let tree =
      List.fold_left
        (fun acc (tap, cap) -> Rctree.add_cap acc tap cap)
        t.parasitics.(net) (sink_caps tech t ~net)
    in
    t.loaded_cache.(net) <- Some tree;
    tree

let total_load tech t ~net =
  Rctree.total_cap t.parasitics.(net) +. pin_cap_sum tech t ~net

let apply_edit t edit =
  let module Edit = Nsigma_netlist.Edit in
  Edit.validate t.netlist edit;
  let invalidated = Edit.invalidated t.netlist edit in
  (match edit with
  | Edit.Swap_cell _ -> Edit.apply_netlist t.netlist edit
  | Edit.Scale_wire { net; r_scale; c_scale } ->
    t.parasitics.(net) <-
      Rctree.scale t.parasitics.(net) ~res_factor:r_scale ~cap_factor:c_scale
  | Edit.Bump_sink_load { net; sink; delta_cap } ->
    let n_sinks = List.length t.fanouts.(net) in
    if sink >= n_sinks then
      raise
        (Edit.Edit_error
           (Printf.sprintf "net %s has %d sinks, no sink %d"
              t.netlist.Netlist.net_names.(net) n_sinks sink));
    let tap = tap_of_sink t ~net ~sink_index:sink in
    let cap = t.parasitics.(net).Rctree.nodes.(tap).Rctree.cap in
    if cap +. delta_cap < 0. then
      raise
        (Edit.Edit_error
           (Printf.sprintf
              "load delta %+g fF would make the tap capacitance of net %s \
               negative (%g fF there)"
              (delta_cap *. 1e15)
              t.netlist.Netlist.net_names.(net) (cap *. 1e15)));
    t.parasitics.(net) <- Rctree.add_cap t.parasitics.(net) tap delta_cap);
  (* The loaded trees of every invalidated net embed the old pin caps /
     geometry; drop them so the next query rebuilds from the edited
     state. *)
  List.iter (fun net -> t.loaded_cache.(net) <- None) invalidated;
  invalidated

let effective_load tech t ~net ~driver =
  let r_drv = Cell.drive_resistance tech driver in
  Nsigma_rcnet.Ceff.effective ~driver_resistance:r_drv t.parasitics.(net)
  +. pin_cap_sum tech t ~net
