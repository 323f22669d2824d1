module Library = Nsigma_liberty.Library
module Characterize = Nsigma_liberty.Characterize
module Cell = Nsigma_liberty.Cell
module Moments = Nsigma_stats.Moments
module Elmore = Nsigma_rcnet.Elmore
module Provider = Nsigma_sta.Provider

let table_edge = function Provider.Rise -> `Rise | Provider.Fall -> `Fall

(* A sign-off corner must cover the worst cell in the library, so the
   derate is set from a high quantile of the per-cell delay variability
   at the reference condition — which is precisely why a flat-derate
   timer over-margins typical paths (the pessimism the paper's Table III
   quantifies at ~31%). *)
let library_derate library =
  let ratios =
    List.filter_map
      (fun (cell, edge) ->
        let table = Library.find library cell ~edge in
        let p =
          Characterize.point_at table ~slew:Characterize.reference_slew
            ~load:(Cell.fo4_load (Library.tech library) cell)
        in
        let m = p.Characterize.moments in
        if m.Moments.mean > 0.0 then Some (m.Moments.std /. m.Moments.mean)
        else None)
      (Library.cells library)
  in
  match ratios with
  | [] -> 0.10
  | _ ->
    let sorted = Array.of_list ratios in
    Nsigma_stats.Quantile.sort sorted;
    (* 95th percentile of per-cell variability. *)
    sorted.(min (Array.length sorted - 1) (95 * Array.length sorted / 100))

let provider library ~sigma ?(wire_derate = 0.10) () =
  let n = float_of_int sigma in
  let derate = library_derate library in
  let find gate edge =
    Library.find library gate.Nsigma_netlist.Netlist.cell ~edge:(table_edge edge)
  in
  {
    Provider.label = Printf.sprintf "primetime-like(%+d)" sigma;
    cell_delay =
      (fun gate ~edge ~input_slew ~load_cap ->
        let m =
          Characterize.moments_at (find gate edge) ~slew:input_slew ~load:load_cap
        in
        m.Moments.mean *. (1.0 +. (n *. derate)));
    cell_out_slew =
      (fun gate ~edge ~input_slew ~load_cap ->
        (* Corner libraries carry corner-slow transitions. *)
        Characterize.out_slew_at (find gate edge) ~slew:input_slew ~load:load_cap
        *. (1.0 +. (n *. derate)));
    wire_delay =
      (fun ~net:_ ~driver:_ ~sink:_ ~tree ~tap ->
        (1.0 +. (n *. wire_derate)) *. Elmore.delay_at tree tap);
    wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        sqrt
          ((slew_at_root *. slew_at_root)
          +. (2.2 *. wire_delay *. 2.2 *. wire_delay)));
  }
