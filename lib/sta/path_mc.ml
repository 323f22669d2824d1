module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Wire_gen = Nsigma_rcnet.Wire_gen
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Arc = Nsigma_spice.Arc
module Rc_sim = Nsigma_spice.Rc_sim
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Variation = Nsigma_process.Variation
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Rng = Nsigma_stats.Rng
module Sampler = Nsigma_stats.Sampler
module Executor = Nsigma_exec.Executor
module Metrics = Nsigma_obs.Metrics
module Progress = Nsigma_obs.Progress

(* Registered at module init so run reports always carry the path-MC
   keys, zero-valued when no path study ran. *)
let m_samples = Metrics.counter "path_mc.samples"
let m_non_convergent = Metrics.counter "path_mc.non_convergent"

type sampling_info = {
  si_backend : Sampler.backend;
  si_rtol : float option;
  si_requested : int;
  si_drawn : int;
  si_saved : int;
  si_non_convergent : int;
  si_batches : int;
}

type stats = {
  samples : float array;
  moments : Moments.summary;
  quantile : int -> float;
  sampling : sampling_info;
}

let edge_of = function Provider.Rise -> `Rise | Provider.Fall -> `Fall

(* The tap through which the path leaves each hop's output net: the next
   hop's tap, or the PO tap after the last gate. *)
let out_taps (path : Path.t) =
  let rec go = function
    | [] -> []
    | [ (_ : Path.hop) ] -> [ path.Path.end_tap ]
    | _ :: (next :: _ as rest) -> next.Path.tap :: go rest
  in
  go path.Path.hops

(* Full-swing-equivalent 20–80% slew of a single-pole response with time
   constant RC: (ln(0.8/0.2)·RC)/0.6 = 2.31·RC.  Used by the fast hop
   model to turn an Elmore time constant into the slew convention the
   next stage's cell simulation expects. *)
let peri_slew_factor = Float.log 4.0 /. 0.6

(* One hop of the fast path model: the driver cell is simulated with the
   analytic kernel into the net's total (lumped) capacitance, the wire
   adds its D2M delay at the exit tap, and the tap slew degrades the
   driver's output slew PERI-style (root-sum-square with the single-pole
   slew of the wire's Elmore constant).  The cell/wire interaction is
   thus approximated, not co-simulated — which is why [Auto] maps to the
   transient reference here.  [loaded] already carries the sink pin
   caps; [moments] is the caller's scratch for the one Elmore/D2M pass
   over it. *)
let fast_hop tech c ~loaded ~moments ~tap ~input_slew =
  let r =
    Cell_sim.run_compiled ~kernel:Cell_sim.Fast tech c ~input_slew
      ~load_cap:(Rctree.total_cap loaded)
  in
  Elmore.moments_into loaded moments;
  let wire = Elmore.d2m_of moments tap in
  let elmore = moments.Elmore.elmore.(tap) in
  let wire_slew = peri_slew_factor *. elmore in
  let out_slew =
    sqrt ((r.Cell_sim.output_slew *. r.Cell_sim.output_slew)
         +. (wire_slew *. wire_slew))
  in
  (r.Cell_sim.delay, wire, out_slew)

(* Simulate one sample; [record_wire i d] is called with each hop's
   outgoing wire delay. *)
let simulate_sample_record ?(steps = 200) ?(kernel = Cell_sim.Rk4) tech
    (design : Design.t) (path : Path.t) sample ~record_wire =
  let nl = design.Design.netlist in
  let taps = out_taps path in
  let slew = ref Provider.input_slew_default in
  let total = ref 0.0 in
  let fast = kernel = Cell_sim.Fast in
  List.iteri
    (fun i (hop, tap) ->
      let gate = nl.Netlist.gates.(hop.Path.gate) in
      let arc =
        Cell.arc tech sample gate.Netlist.cell ~output_edge:(edge_of hop.Path.out_edge)
      in
      let tree = Wire_gen.vary tech sample design.Design.parasitics.(hop.Path.out_net) in
      let load_caps = Design.sink_caps tech design ~net:hop.Path.out_net in
      let driver_delay, wire, out_slew =
        if fast then
          let loaded =
            List.fold_left (fun tr (node, c) -> Rctree.add_cap tr node c) tree
              load_caps
          in
          fast_hop tech (Arc.compile tech arc) ~loaded
            ~moments:(Elmore.scratch (Rctree.n_nodes loaded))
            ~tap ~input_slew:!slew
        else begin
          let r =
            Rc_sim.simulate ~steps tech ~driver:arc ~tree ~load_caps
              ~input_slew:!slew
          in
          let find_tap pairs =
            let _, v =
              Array.to_list pairs |> List.find (fun (node, _) -> node = tap)
            in
            v
          in
          let wire = find_tap r.Rc_sim.tap_delays in
          (r.Rc_sim.driver_delay, wire, find_tap r.Rc_sim.tap_slews)
        end
      in
      record_wire i wire;
      total := !total +. driver_delay +. wire;
      slew := Float.max 1e-12 out_slew)
    (List.combine path.Path.hops taps);
  !total

let simulate_sample ?steps ?kernel tech design path sample =
  simulate_sample_record ?steps ?kernel tech design path sample
    ~record_wire:(fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Precompiled path plan: everything sample-independent — cell arc     *)
(* skeletons, private RC-tree copies with their refill scratch, sink   *)
(* loads, tap positions — resolved once per worker, so the per-sample  *)
(* loop only draws deviates and fills preallocated state in place.     *)
(* ------------------------------------------------------------------ *)

type hop_plan = {
  hp_sk : Arc.skeleton;  (* driver cell, refilled per sample *)
  hp_base : Rctree.t;  (* pristine parasitic tree (never mutated) *)
  hp_tree : Rctree.t;  (* private copy, refilled per sample *)
  hp_res : float array;  (* refill scratch, length n_nodes *)
  hp_cap : float array;
  hp_moments : Elmore.scratch;  (* the fast hop's Elmore/D2M pass *)
  hp_load_caps : (int * float) list;  (* sink pin caps, attach order *)
  hp_tap : int;  (* exit tap node *)
  hp_tap_pos : int;  (* index of hp_tap in the tree's taps array *)
}

type plan = { hops : hop_plan array }

let plan_of tech (design : Design.t) (path : Path.t) =
  let nl = design.Design.netlist in
  let hops =
    List.map2
      (fun (hop : Path.hop) tap ->
        let gate = nl.Netlist.gates.(hop.Path.gate) in
        let base = design.Design.parasitics.(hop.Path.out_net) in
        let n_nodes = Rctree.n_nodes base in
        let tap_pos =
          match
            Array.find_index (fun t -> t = tap) base.Rctree.taps
          with
          | Some p -> p
          | None ->
            invalid_arg
              (Printf.sprintf "Path_mc.plan_of: tap %d is not a tap of net %s"
                 tap nl.Netlist.net_names.(hop.Path.out_net))
        in
        {
          hp_sk =
            Cell.plan tech gate.Netlist.cell
              ~output_edge:(edge_of hop.Path.out_edge);
          hp_base = base;
          hp_tree = Rctree.copy base;
          hp_res = Array.make n_nodes 0.0;
          hp_cap = Array.make n_nodes 0.0;
          hp_moments = Elmore.scratch n_nodes;
          hp_load_caps = Design.sink_caps tech design ~net:hop.Path.out_net;
          hp_tap = tap;
          hp_tap_pos = tap_pos;
        })
      path.Path.hops (out_taps path)
    |> Array.of_list
  in
  { hops }

(* Standard-normal deviates one path sample consumes: the three global
   corners, then per hop the cell skeleton's locals ([Arc.fill] order)
   followed by two per non-root wire node ([Wire_gen.vary_into] order:
   dr before dc, nodes ascending).  This is the vector dimension a
   [Sampler] stream must produce for {!simulate_planned}. *)
let deviate_dim (p : plan) =
  Array.fold_left
    (fun acc hp ->
      acc
      + Arc.skeleton_local_dim hp.hp_sk
      + (2 * (Rctree.n_nodes hp.hp_base - 1)))
    Variation.global_deviate_dim p.hops

(* One sample through the plan.  Mirrors [simulate_sample_record] deviate
   for deviate: per hop the cell skeleton fills first (same draw order as
   [Cell.arc]), then the wire refills (same order as [Wire_gen.vary]),
   then the same hop arithmetic runs on the filled state — so the path
   delay is bit-identical to the rebuild-per-sample reference, as
   test_plan asserts. *)
let simulate_planned ?(steps = 200) ?(kernel = Cell_sim.Rk4) tech (p : plan)
    sample ~record_wire =
  let fast = kernel = Cell_sim.Fast in
  let slew = ref Provider.input_slew_default in
  let total = ref 0.0 in
  Array.iteri
    (fun i hp ->
      Arc.fill tech hp.hp_sk sample;
      Wire_gen.vary_into tech sample ~base:hp.hp_base ~into:hp.hp_tree
        ~res:hp.hp_res ~cap:hp.hp_cap;
      let driver_delay, wire, out_slew =
        if fast then begin
          List.iter
            (fun (node, c) -> Rctree.bump_cap hp.hp_tree node c)
            hp.hp_load_caps;
          fast_hop tech (Arc.skeleton_compiled hp.hp_sk) ~loaded:hp.hp_tree
            ~moments:hp.hp_moments ~tap:hp.hp_tap ~input_slew:!slew
        end
        else begin
          let r =
            Rc_sim.simulate ~steps tech ~driver:(Arc.skeleton_arc hp.hp_sk)
              ~tree:hp.hp_tree ~load_caps:hp.hp_load_caps ~input_slew:!slew
          in
          let wire = snd r.Rc_sim.tap_delays.(hp.hp_tap_pos) in
          (r.Rc_sim.driver_delay, wire, snd r.Rc_sim.tap_slews.(hp.hp_tap_pos))
        end
      in
      record_wire i wire;
      total := !total +. driver_delay +. wire;
      slew := Float.max 1e-12 out_slew)
    p.hops;
  !total

let end_net (path : Path.t) =
  match List.rev path.Path.hops with
  | last :: _ -> last.Path.out_net
  | [] -> invalid_arg "Path_mc: empty path"

let no_valid_samples design path ~n =
  let net = end_net path in
  Printf.sprintf
    "Path_mc: no convergent samples (0 of %d) on path ending at net %s" n
    design.Design.netlist.Netlist.net_names.(net)

let run ?steps ?kernel ?(n = 1000) ?(seed = 11) ?(exec = Executor.default ())
    ?sampling ?rtol tech design path =
  let backend =
    match sampling with Some b -> b | None -> Sampler.default_backend ()
  in
  (* The generator is consumed exactly as the pre-sampler loop did
     ([Rng.derive g ~index:i] per sample, no split), so the Mc backend
     replays the legacy population bit for bit. *)
  let g = Rng.create ~seed in
  let sampler =
    match backend with
    | Sampler.Mc -> None
    | _ ->
      (* One probe plan on the calling domain fixes the deviate
         dimension; workers build their own through [init]. *)
      let dim = deviate_dim (plan_of tech design path) in
      Some (Sampler.create backend g ~dim ~n)
  in
  let out = Array.make n Float.nan in
  let drawn, batches =
    Progress.with_bar ~label:"path-mc" ~total:n (fun tick ->
        Metrics.span "path_mc" (fun () ->
            let init () =
              let p = plan_of tech design path in
              let zbuf =
                match sampler with
                | None -> [||]
                | Some s -> Array.make (Sampler.dim s) 0.0
              in
              (p, zbuf)
            in
            let task (p, zbuf) i =
              let sample =
                match sampler with
                | None -> Variation.draw tech (Rng.derive g ~index:i)
                | Some s ->
                  Sampler.fill s ~index:i zbuf;
                  Variation.of_deviates tech zbuf
              in
              let r =
                match
                  simulate_planned ?steps ?kernel tech p sample
                    ~record_wire:(fun _ _ -> ())
                with
                | d -> d
                | exception Failure _ -> Float.nan
              in
              tick ();
              r
            in
            Monte_carlo.fill_adaptive ~exec ~init task ~out ~n ~rtol
              ~min_batch:Monte_carlo.min_adaptive_batch ~who:"Path_mc.run"))
  in
  let measured = if drawn = n then out else Array.sub out 0 drawn in
  let samples = Monte_carlo.compact_nan measured in
  Metrics.incr m_samples ~by:drawn;
  let failed = drawn - Array.length samples in
  if failed > 0 then Metrics.incr m_non_convergent ~by:failed;
  if Array.length samples = 0 then
    failwith (no_valid_samples design path ~n:drawn);
  Quantile.sort samples;
  let moments = Moments.summary_of_array samples in
  let quantile sigma =
    Quantile.of_sorted samples
      (Quantile.probability_of_sigma (float_of_int sigma))
  in
  let sampling =
    {
      si_backend = backend;
      si_rtol = rtol;
      si_requested = n;
      si_drawn = drawn;
      si_saved = n - drawn;
      si_non_convergent = failed;
      si_batches = batches;
    }
  in
  { samples; moments; quantile; sampling }

let per_wire_quantiles ?steps ?kernel ?(n = 1000) ?(seed = 11)
    ?(exec = Executor.default ()) tech design path ~sigma =
  let n_hops = Path.n_stages path in
  let g = Rng.create ~seed in
  let rows =
    Progress.with_bar ~label:"per-wire quantiles" ~total:n (fun tick ->
        Metrics.span "path_mc.per_wire" (fun () ->
            Executor.map_scratch exec
              ~init:(fun () -> plan_of tech design path)
              (fun p i ->
                let sample = Variation.draw tech (Rng.derive g ~index:i) in
                let wires = Array.make n_hops nan in
                let r =
                  match
                    simulate_planned ?steps ?kernel tech p sample
                      ~record_wire:(fun k d -> wires.(k) <- d)
                  with
                  | (_ : float) -> Some wires
                  | exception Failure _ -> None
                in
                tick ();
                r)
              ~n))
  in
  let rows = Array.to_list rows |> List.filter_map Fun.id in
  Metrics.incr m_samples ~by:n;
  let failed = n - List.length rows in
  if failed > 0 then Metrics.incr m_non_convergent ~by:failed;
  if rows = [] then failwith (no_valid_samples design path ~n);
  List.init n_hops (fun k ->
      let arr = Array.of_list (List.map (fun w -> w.(k)) rows) in
      Nsigma_stats.Quantile.of_sample arr
        (Quantile.probability_of_sigma (float_of_int sigma)))
