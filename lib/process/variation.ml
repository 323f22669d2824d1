module Rng = Nsigma_stats.Rng

type global = { dvth_n : float; dvth_p : float; dbeta : float }

(* Where the local (within-die) deviates come from: either a dedicated
   RNG stream (the legacy Monte-Carlo draw) or a fixed standard-normal
   vector filled by a [Sampler] stream, consumed left to right through a
   cursor.  Both yield the same values through the [local_*] accessors
   when the vector replays the stream's draws, which is how the Mc
   sampling backend stays bit-identical. *)
type source =
  | Stream of Rng.t
  | Fixed of { z : float array; mutable pos : int }

type t = { global : global; locals : source; local_scale : float }

let global_deviate_dim = 3

let nominal =
  {
    global = { dvth_n = 0.0; dvth_p = 0.0; dbeta = 0.0 };
    locals = Stream (Rng.create ~seed:0);
    local_scale = 0.0;
  }

let draw (tech : Technology.t) g =
  (* The three global draws historically sat inside a record expression,
     whose field evaluation order is unspecified (right-to-left with the
     current compiler).  The bitwise-replay contract ([of_deviates] and
     the sampling layer's Mc backend) depends on the consumption order,
     so pin it explicitly: dbeta first, then dvth_p, then dvth_n. *)
  let dbeta = Rng.gaussian_mu_sigma g ~mu:0.0 ~sigma:tech.sigma_beta_global in
  let dvth_p = Rng.gaussian_mu_sigma g ~mu:0.0 ~sigma:tech.sigma_vth_global in
  let dvth_n = Rng.gaussian_mu_sigma g ~mu:0.0 ~sigma:tech.sigma_vth_global in
  {
    global = { dvth_n; dvth_p; dbeta };
    locals = Stream (Rng.split g);
    local_scale = 1.0;
  }

let draw_many tech g n = Array.init n (fun _ -> draw tech g)

(* Globals mirror [draw]'s arithmetic exactly ([gaussian_mu_sigma] is
   mu +. sigma *. z with mu = 0), so a vector replaying the RNG draws
   produces bitwise-equal shifts. *)
let of_deviates (tech : Technology.t) z =
  if Array.length z < global_deviate_dim then
    invalid_arg "Variation.of_deviates: deviate vector shorter than 3";
  let global =
    {
      dvth_n = 0.0 +. (tech.sigma_vth_global *. z.(0));
      dvth_p = 0.0 +. (tech.sigma_vth_global *. z.(1));
      dbeta = 0.0 +. (tech.sigma_beta_global *. z.(2));
    }
  in
  { global; locals = Fixed { z; pos = global_deviate_dim }; local_scale = 1.0 }

let[@inline] next_local t =
  match t.locals with
  | Stream g -> Rng.gaussian g
  | Fixed f ->
    if f.pos >= Array.length f.z then
      invalid_arg
        "Variation: local deviate vector exhausted (plan dimension too small)";
    let v = f.z.(f.pos) in
    f.pos <- f.pos + 1;
    v

let[@inline] local_dvth t tech ~width =
  t.local_scale *. next_local t *. Technology.sigma_vth_local tech ~width

let[@inline] local_dbeta t tech ~width =
  t.local_scale *. next_local t *. Technology.sigma_beta_local tech ~width

let[@inline] local_relative t ~sigma = t.local_scale *. next_local t *. sigma
