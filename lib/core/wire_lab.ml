module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Cell = Nsigma_liberty.Cell
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Wire_gen = Nsigma_rcnet.Wire_gen
module Rc_sim = Nsigma_spice.Rc_sim
module Rng = Nsigma_stats.Rng
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Monte_carlo = Nsigma_spice.Monte_carlo

type measurement = {
  driver : Cell.t;
  load : Cell.t;
  elmore : float;
  samples : float array;
  moments : Moments.summary;
}

let measure ?(n = 300) ?(seed = 17) ?(steps = 200) ?exec tech ~tree ~driver
    ~load () =
  let g = Rng.create ~seed in
  let tap = tree.Rctree.taps.(0) in
  let load_cap_nom = Cell.input_cap tech load in
  let cap_sigma =
    T.sigma_beta_local tech
      ~width:(float_of_int load.Cell.strength *. tech.T.width_n)
  in
  let samples =
    Monte_carlo.delays ?exec tech g ~n (fun sample ->
        let arc = Cell.arc tech sample driver ~output_edge:`Rise in
        let tree_v = Wire_gen.vary tech sample tree in
        let load_cap =
          load_cap_nom
          *. (1.0 +. Variation.local_relative sample ~sigma:cap_sigma)
        in
        let r =
          Rc_sim.simulate ~steps tech ~driver:arc ~tree:tree_v
            ~load_caps:[ (tap, load_cap) ]
            ~input_slew:Nsigma_sta.Provider.input_slew_default
        in
        Array.to_list r.Rc_sim.tap_delays |> List.assoc tap)
  in
  Quantile.sort samples;
  {
    driver;
    load;
    elmore = Elmore.delay_at (Rctree.add_cap tree tap load_cap_nom) tap;
    samples;
    moments = Moments.summary_of_array samples;
  }

let quantile m ~sigma =
  Quantile.of_sorted m.samples
    (Quantile.probability_of_sigma (float_of_int sigma))

let variability m = m.moments.Moments.std /. m.moments.Moments.mean

let standard_observations ?(n_per_config = 150) ?(n_trees = 2) ?(seed = 19) tech
    () =
  let g = Rng.create ~seed in
  let strengths = [ 1; 2; 4; 8 ] in
  List.concat_map
    (fun ds ->
      List.concat_map
        (fun ls ->
          List.init n_trees (fun k ->
              let tree =
                Wire_gen.random_tree tech Wire_gen.default_spec (Rng.split g)
              in
              let driver = Cell.make Cell.Inv ~strength:ds in
              let load = Cell.make Cell.Inv ~strength:ls in
              let m =
                measure ~n:n_per_config ~seed:(seed + (1000 * k) + (10 * ds) + ls)
                  tech ~tree ~driver ~load ()
              in
              {
                Wire_model.driver;
                load = Some load;
                measured_variability = variability m;
              }))
        strengths)
    strengths
