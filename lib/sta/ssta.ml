(* Block-based statistical STA: the (delay dist, arrival dist)
   instantiation of Engine_core.

   Arrivals and delays are four-moment distributions decomposed into a
   globally-correlated response and an independent local remainder.
   The global response is a reduced second-order model in the three
   shared process corners z = (dvth_n, dvth_p, dbeta) deviates:

     G = sum_i a_i z_i + b_i (z_i^2 - 1)

   Linear and quadratic coefficients add along a path, so correlated
   variance AND correlated skewness compound exactly — near-threshold
   delay is strongly convex in the vth corners, and a linear
   ("sig_g"-only) model visibly under-predicts the +3 sigma tail.
   Locals add independently (variances and third moments add, fourth
   moments pick up the 6·v·v cross term).  Reconvergent fan-in merges
   through a statistical max (Clark or Cornish-Fisher moment matching,
   Stat_max) whose input correlation comes from the tracked global
   coefficients; the result is re-split by the Clark tightness
   probability.  One topological pass covers the whole netlist — the
   block-based alternative to per-path Monte Carlo (Path_mc). *)

module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Characterize = Nsigma_liberty.Characterize
module Store = Nsigma_liberty.Store
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Wire_gen = Nsigma_rcnet.Wire_gen
module Arc = Nsigma_spice.Arc
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Executor = Nsigma_exec.Executor
module Variation = Nsigma_process.Variation
module Moments = Nsigma_stats.Moments
module Stat_max = Nsigma_stats.Stat_max
module Quantile = Nsigma_stats.Quantile
module Rng = Nsigma_stats.Rng
module Metrics = Nsigma_obs.Metrics
module Trace = Nsigma_obs.Trace

(* Registered at module init so run reports always carry the sta.ssta.*
   keys, zero-valued when no statistical run happened. *)
let m_max_ops = Metrics.counter "sta.ssta.max_ops"
let m_max_clark = Metrics.counter "sta.ssta.max.clark"
let m_max_moment = Metrics.counter "sta.ssta.max.moment"
let m_wire_mc = Metrics.counter "sta.ssta.wire_mc_samples"
let m_frac_mc = Metrics.counter "sta.ssta.cell_frac_samples"

(* Per-reconvergence accuracy signals (arXiv:2401.03588 ablates the max
   operator exactly here).  [tightness] is Clark's P(first input wins) —
   dimensionless in [0,1], recorded through the seconds-bucketed
   histogram as-is, so bucket bounds read as plain numbers.  [delta] is
   |mean(Clark max) − mean(moment max)| in seconds for the same inputs:
   the disagreement between the two operators, i.e. where the choice of
   max actually matters on this netlist.  Both are also emitted as
   per-max-op trace instants ([tightness], [delta_s], [rho]). *)
let h_max_tightness = Metrics.histogram "sta.ssta.max.tightness"
let h_max_delta = Metrics.histogram "sta.ssta.max.delta_seconds"

let tr_max =
  Trace.instant_type ~cat:"ssta" ~args:[ "tightness"; "delta_s"; "rho" ]
    "ssta.max"

let ng = Variation.global_deviate_dim

(* ---------------------------------------------------------------- *)
(* Arrival / delay distributions.                                   *)
(* ---------------------------------------------------------------- *)

type dist = {
  d_mean : float;  (** mean delay / arrival (s) *)
  d_a : float array;  (** linear global sensitivities, length 3 (s) *)
  d_b : float array;  (** quadratic (z²−1) global sensitivities (s) *)
  d_var_l : float;  (** independent (local) variance (s²) *)
  d_m3_l : float;  (** local third central moment (s³) *)
  d_m4_l : float;  (** local fourth central moment (s⁴) *)
}

type delay = {
  dd : dist;
  d_slew_tc : float;
      (** mean Elmore constant of the wire segment, 0 for cell arcs —
          the time constant PERI slew degradation works on *)
}

let zeros () = Array.make ng 0.0

let zero_dist =
  {
    d_mean = 0.0;
    d_a = Array.make ng 0.0;
    d_b = Array.make ng 0.0;
    d_var_l = 0.0;
    d_m3_l = 0.0;
    d_m4_l = 0.0;
  }

(* Moments of the global response G = Σ a_i·z_i + b_i·(z_i²−1) for iid
   standard normal z: per factor Var = a²+2b², m3 = 6a²b+8b³,
   m4 = 3a⁴+60a²b²+60b⁴; across independent factors variances and third
   moments add and the fourth moment gains 6·Σ_{i<j} v_i·v_j. *)
let var_g d =
  let acc = ref 0.0 in
  for i = 0 to ng - 1 do
    let a = d.d_a.(i) and b = d.d_b.(i) in
    acc := !acc +. (a *. a) +. (2.0 *. b *. b)
  done;
  !acc

let m3_g d =
  let acc = ref 0.0 in
  for i = 0 to ng - 1 do
    let a = d.d_a.(i) and b = d.d_b.(i) in
    acc := !acc +. (6.0 *. a *. a *. b) +. (8.0 *. b *. b *. b)
  done;
  !acc

let m4_g d =
  let sum_m4 = ref 0.0 and sum_v = ref 0.0 and sum_v2 = ref 0.0 in
  for i = 0 to ng - 1 do
    let a = d.d_a.(i) and b = d.d_b.(i) in
    let a2 = a *. a and b2 = b *. b in
    let v = a2 +. (2.0 *. b2) in
    sum_m4 := !sum_m4 +. (3.0 *. a2 *. a2) +. (60.0 *. a2 *. b2) +. (60.0 *. b2 *. b2);
    sum_v := !sum_v +. v;
    sum_v2 := !sum_v2 +. (v *. v)
  done;
  !sum_m4 +. (3.0 *. ((!sum_v *. !sum_v) -. !sum_v2))

let variance d = var_g d +. d.d_var_l
let std d = sqrt (variance d)

(* Keep the local remainder a plausible distribution: |γ| ≤ 1 and
   κ ∈ [1.5, 7] (the Cornish-Fisher stable domain).  Moment-matched
   re-splits subtract the weighted global response from the matched
   totals; without bounds the residual can drift into shapes no random
   variable has and compound through hundreds of max operations. *)
let clamp_locals ~var_l ~m3_l ~m4_l =
  let s3 = var_l *. sqrt var_l in
  let v2 = var_l *. var_l in
  ( Float.max (-.s3) (Float.min s3 m3_l),
    Float.max (1.5 *. v2) (Float.min (7.0 *. v2) m4_l) )

let to_summary d =
  let vg = var_g d in
  Moments.of_central ~n:1 ~mean:d.d_mean
    ~m2:(vg +. d.d_var_l)
    ~m3:(m3_g d +. d.d_m3_l)
    ~m4:(m4_g d +. d.d_m4_l +. (6.0 *. vg *. d.d_var_l))

(* Generic split of a summary when no sensitivity information exists:
   [global_frac] of the variance becomes a single linear factor (no
   quadratic term, so no correlated-skew reconstruction).  Wires use
   global_frac = 0; cells go through [dist_of_table] instead. *)
let of_summary ~global_frac (s : Moments.summary) =
  let gf = Float.min 1.0 (Float.max 0.0 global_frac) in
  let m2, m3, m4 = Moments.central_of_summary s in
  let a = zeros () in
  a.(0) <- sqrt (gf *. m2);
  let vg = gf *. m2 in
  let var_l = (1.0 -. gf) *. m2 in
  let m3_l, m4_l =
    clamp_locals ~var_l ~m3_l:m3
      ~m4_l:(m4 -. (3.0 *. vg *. vg) -. (6.0 *. vg *. var_l))
  in
  { d_mean = s.Moments.mean; d_a = a; d_b = zeros (); d_var_l = var_l; d_m3_l = m3_l; d_m4_l = m4_l }

let quantile d ~sigma =
  let s = to_summary d in
  s.Moments.mean
  +. (s.Moments.std
     *. Stat_max.cornish_fisher ~skew:s.Moments.skewness ~kurt:s.Moments.kurtosis
          sigma)

(* ---------------------------------------------------------------- *)
(* The arrival-value algebra.                                       *)
(* ---------------------------------------------------------------- *)

type correlation =
  | Independent  (** reconverging arrivals treated as uncorrelated *)
  | Constant of float  (** fixed correlation for every max *)
  | Tracked
      (** rho from the tracked global coefficients:
          rho = (Σ a·a' + 2b·b') / (sigma·sigma') *)

type config = { op : Stat_max.operator; corr : correlation }

let default_config = { op = Stat_max.Clark; corr = Tracked }

(* A + D: global coefficients add (shared z), local parts add
   independently (third moments add, fourth moments gain the 6·v·v
   cross term).  The G/L split makes the correlated cross-moments exact
   by construction — they are reassembled in [to_summary]. *)
let add_dist (a : dist) (d : dist) =
  {
    d_mean = a.d_mean +. d.d_mean;
    d_a = Array.init ng (fun i -> a.d_a.(i) +. d.d_a.(i));
    d_b = Array.init ng (fun i -> a.d_b.(i) +. d.d_b.(i));
    d_var_l = a.d_var_l +. d.d_var_l;
    d_m3_l = a.d_m3_l +. d.d_m3_l;
    d_m4_l = a.d_m4_l +. d.d_m4_l +. (6.0 *. a.d_var_l *. d.d_var_l);
  }

let cov_g (a : dist) (b : dist) =
  let acc = ref 0.0 in
  for i = 0 to ng - 1 do
    acc :=
      !acc +. (a.d_a.(i) *. b.d_a.(i)) +. (2.0 *. a.d_b.(i) *. b.d_b.(i))
  done;
  !acc

let rho_of corr (a : dist) (b : dist) =
  match corr with
  | Independent -> 0.0
  | Constant r -> r
  | Tracked ->
    let sa = std a and sb = std b in
    if sa *. sb <= 0.0 then 0.0 else cov_g a b /. (sa *. sb)

(* Re-split a max result: the global coefficients follow the Clark
   tightness weighting c' = p·c_a + (1−p)·c_b (the standard linear
   mixture of canonical/sensitivity-based SSTA), rescaled so the global
   share of the matched variance is the tightness-weighted share of the
   inputs.  The rescale matters: the weighted mixture systematically
   under-explains the matched variance, and letting the residual leak
   into the local term de-correlates downstream maxes — each join then
   over-estimates the next, a positive feedback that runs away over
   deep netlists.  The local remainder absorbs the skew and kurtosis
   the global response does not carry. *)
let resplit (r : Stat_max.result) (a : dist) (b : dist) =
  let p = r.Stat_max.p_first in
  let q = 1.0 -. p in
  let m2, m3, m4 = Moments.central_of_summary r.Stat_max.dist in
  let ca = Array.init ng (fun i -> (p *. a.d_a.(i)) +. (q *. b.d_a.(i))) in
  let cb = Array.init ng (fun i -> (p *. a.d_b.(i)) +. (q *. b.d_b.(i))) in
  let g = { zero_dist with d_a = ca; d_b = cb } in
  let vg = var_g g in
  let share d = let v = variance d in if v > 0.0 then var_g d /. v else 0.0 in
  let vg_target =
    Float.min m2
      (Float.max vg (((p *. share a) +. (q *. share b)) *. m2))
  in
  let scale = if vg > 0.0 && vg_target > 0.0 then sqrt (vg_target /. vg) else 1.0 in
  let ca = Array.map (fun x -> x *. scale) ca in
  let cb = Array.map (fun x -> x *. scale) cb in
  let g = { zero_dist with d_a = ca; d_b = cb } in
  let vg = var_g g in
  let var_l = Float.max 0.0 (m2 -. vg) in
  let m3_l, m4_l =
    clamp_locals ~var_l ~m3_l:(m3 -. m3_g g)
      ~m4_l:(m4 -. m4_g g -. (6.0 *. vg *. var_l))
  in
  {
    d_mean = r.Stat_max.dist.Moments.mean;
    d_a = ca;
    d_b = cb;
    d_var_l = var_l;
    d_m3_l = m3_l;
    d_m4_l = m4_l;
  }

let join_dist (cfg : config) (a : dist) (b : dist) =
  Metrics.incr m_max_ops;
  (match cfg.op with
  | Stat_max.Clark -> Metrics.incr m_max_clark
  | Stat_max.Moment -> Metrics.incr m_max_moment);
  let rho = rho_of cfg.corr a b in
  let sa = to_summary a and sb = to_summary b in
  let r = Stat_max.apply cfg.op ~rho sa sb in
  Metrics.observe h_max_tightness r.Stat_max.p_first;
  (* The Clark-vs-moment disagreement costs a second max evaluation —
     as much as the join itself — so only a trace pays for it; it reads
     the same inputs and never feeds back into the arrival, keeping the
     propagated graph identical with observability on or off. *)
  if Trace.enabled () then begin
    let alt =
      Stat_max.apply
        (match cfg.op with
        | Stat_max.Clark -> Stat_max.Moment
        | Stat_max.Moment -> Stat_max.Clark)
        ~rho sa sb
    in
    let delta =
      Float.abs (r.Stat_max.dist.Moments.mean -. alt.Stat_max.dist.Moments.mean)
    in
    Metrics.observe h_max_delta delta;
    Trace.instant tr_max ~a:r.Stat_max.p_first ~b:delta ~c:rho ()
  end;
  resplit r a b

(* Criticality ranks by the +3 sigma arrival (Cornish-Fisher, the same
   quantile convention as reporting) — recorded critical predecessors
   and PO ordering reflect statistical, not nominal, dominance. *)
let key d = quantile d ~sigma:3.0

let algebra (cfg : config) : (delay, dist) Engine_core.algebra =
  {
    source = zero_dist;
    no_delay = { dd = zero_dist; d_slew_tc = 0.0 };
    add = (fun a dl -> add_dist a dl.dd);
    key;
    join = (fun old_v cand -> join_dist cfg old_v cand);
  }

(* ---------------------------------------------------------------- *)
(* The statistical provider: LVF tables + mini-MC decomposition.    *)
(* ---------------------------------------------------------------- *)

type provider = (delay, dist) Engine_core.model

let edge_of = function Provider.Rise -> `Rise | Provider.Fall -> `Fall

(* Same single-pole 20-80% constant as Path_mc's fast hop model: the
   statistical wire provider must mirror the model the MC reference
   uses, so validation error isolates the propagation approximation. *)
let peri_slew_factor = Float.log 4.0 /. 0.6

(* Per-(cell, edge) global response estimated at the reference point:
   linear and quadratic sensitivities of the arc delay AND output slew
   to each global deviate, the fraction of total delay variance the
   corners explain, and the local component of the output slew.  Slew
   responses are what couples consecutive stages: a slow corner slows
   every upstream edge, which further slows every downstream cell — the
   cell–wire/stage interaction a fixed-slew table lookup misses. *)
type arc_response = {
  ar_a : float array;  (* delay linear sensitivities (s) *)
  ar_b : float array;  (* delay quadratic sensitivities (s) *)
  ar_frac : float;  (* global share of delay variance *)
  ar_sa : float array;  (* out-slew linear sensitivities (s) *)
  ar_sb : float array;  (* out-slew quadratic sensitivities (s) *)
  ar_sl : float;  (* out-slew local (mismatch) sigma (s) *)
  ar_slew_mean : float;  (* mean out-slew at the reference point (s) *)
}

(* Global/local sensitivity of a net's slew, stored per (net, edge) as
   the walk reaches each driver: the sensitivities of the driver's
   output slew plus its own inherited input-slew coupling. *)
type slew_sens = {
  ss_a : float array;  (* slew linear global sensitivities (s) *)
  ss_b : float array;  (* slew quadratic global sensitivities (s) *)
  ss_l : float;  (* slew local sigma (s) *)
  ss_root : float;  (* the mean slew these sensitivities describe (s) *)
}

(* Exact round-trip serialisation of an arc regression for the on-disk
   store: hex float literals ("%h") survive printf/float_of_string
   bit-for-bit, so a warm load reproduces the cold computation
   exactly. *)
let arc_response_to_string (r : arc_response) =
  let b = Buffer.create 256 in
  let add f = Buffer.add_string b (Printf.sprintf "%h " f) in
  Array.iter add r.ar_a;
  Array.iter add r.ar_b;
  add r.ar_frac;
  Array.iter add r.ar_sa;
  Array.iter add r.ar_sb;
  add r.ar_sl;
  add r.ar_slew_mean;
  Buffer.contents b

let arc_response_of_string s =
  let toks =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim s))
  in
  let opts = List.map float_of_string_opt toks in
  if List.length opts <> (4 * ng) + 3 || List.exists Option.is_none opts then
    None
  else begin
    let a = Array.of_list (List.map Option.get opts) in
    Some
      {
        ar_a = Array.sub a 0 ng;
        ar_b = Array.sub a ng ng;
        ar_frac = a.(2 * ng);
        ar_sa = Array.sub a ((2 * ng) + 1) ng;
        ar_sb = Array.sub a ((3 * ng) + 1) ng;
        ar_sl = a.((4 * ng) + 1);
        ar_slew_mean = a.((4 * ng) + 2);
      }
  end

(* One net's wire mini-MC result, indexed by tap slot. *)
type wire_net = {
  w_slot : int array;  (* node -> slot of its first tap, -1 if none *)
  w_delays : delay array;  (* per tap slot, the net's taps order *)
}

type handle = {
  h_provider : provider;
  h_invalidate_net : int -> unit;
  h_slew_sig : int -> int64 array;
  h_prewarm : unit -> unit;
}

let handle_of_provider p =
  {
    h_provider = p;
    h_invalidate_net = (fun _ -> ());
    h_slew_sig = (fun _ -> [||]);
    h_prewarm = (fun () -> ());
  }

let lvf_handle ?(seed = 421) ?(wire_samples = 96) ?(frac_samples = 128)
    ?(exec = Executor.default ()) ?(store_dir = Store.default_dir ()) tech
    (lib : Library.t) (design : Design.t) : handle =
  let master = Rng.create ~seed in
  let wire_rng = Rng.derive master ~index:1 in
  let frac_rng = Rng.derive master ~index:2 in
  (* Paired mini-MC per (cell, edge): the same deviate vectors with and
     without local mismatch (local_scale = 0), fast kernel both times.
     iid standard deviates make the second-order regression a moment
     average: a_i = E[d·z_i], b_i = E[d·(z_i²−1)]/2.

     The cache is the memoization seam: every net driven by the same
     (cell, edge) pair shares one regression, because the mini-MC runs
     at the fixed reference operating point (Characterize.reference_slew
     / FO4 load) — the per-net operating point only enters later, via
     the dist_of_table rescale.  On a netlist with hundreds of instances
     of a handful of cell types this collapses the regression cost to
     one run per type. *)
  let frac_cache : (string * int, arc_response) Hashtbl.t = Hashtbl.create 32 in
  (* The store key pins everything the regression depends on: the
     library fingerprint covers technology, grid, kernel and sampling;
     the remaining knobs are this provider's own.  [wire_samples] and
     the executor do not enter — they don't change the result. *)
  let lib_fp = lazy (Library.fingerprint lib) in
  let store_key (cell_name, edge_ix) =
    Printf.sprintf "frac-v1|%s|%s|e%d|n%d|s%d" (Lazy.force lib_fp) cell_name
      edge_ix frac_samples seed
  in
  let rec arc_response (cell : Cell.t) edge =
    let cache_key = (Cell.name cell, Engine_core.edge_index edge) in
    match Hashtbl.find_opt frac_cache cache_key with
    | Some r -> r
    | None -> (
      match
        Option.bind store_dir (fun dir ->
            Store.find ~dir ~key:(store_key cache_key)
              ~decode:arc_response_of_string)
      with
      | Some resp ->
        Hashtbl.add frac_cache cache_key resp;
        resp
      | None -> compute_arc_response cache_key cell edge)
  and compute_arc_response cache_key (cell : Cell.t) edge =
      let resp =
        Metrics.span "sta.ssta.cell_frac" @@ fun () ->
        let sk = Cell.plan tech cell ~output_edge:(edge_of edge) in
        let slew = Characterize.reference_slew in
        let load = Cell.fo4_load tech cell in
        let dim = ng + Arc.skeleton_local_dim sk in
        let rng = Rng.derive frac_rng ~index:(Hashtbl.hash cache_key) in
        let nf = float_of_int frac_samples in
        (* Per-sample results land in index-addressed arrays (each
           worker writes disjoint slots), and the moment accumulators
           fold over them in index order on this domain afterwards — so
           any executor backend reproduces the sequential population bit
           for bit. *)
        let d_fulls = Array.make frac_samples 0.0 in
        let s_fulls = Array.make frac_samples 0.0 in
        let d_globs = Array.make frac_samples 0.0 in
        let s_globs = Array.make frac_samples 0.0 in
        let zs = Array.make_matrix frac_samples ng 0.0 in
        let draw i =
          let g = Rng.derive rng ~index:i in
          let z = Array.init dim (fun _ -> Rng.gaussian g) in
          Array.blit z 0 zs.(i) 0 ng;
          z
        in
        Executor.iter_scratch exec
          ~init:(fun () -> Cell.plan tech cell ~output_edge:(edge_of edge))
          (fun sk i ->
            let z = draw i in
            let run v =
              Arc.fill tech sk v;
              Cell_sim.run_compiled ~kernel:Cell_sim.Fast tech
                (Arc.skeleton_compiled sk) ~input_slew:slew ~load_cap:load
            in
            let r_full = run (Variation.of_deviates tech z) in
            let r_glob =
              run
                { (Variation.of_deviates tech z) with
                  Variation.local_scale = 0.0 }
            in
            d_fulls.(i) <- r_full.Cell_sim.delay;
            s_fulls.(i) <- r_full.Cell_sim.output_slew;
            d_globs.(i) <- r_glob.Cell_sim.delay;
            s_globs.(i) <- r_glob.Cell_sim.output_slew)
          ~n:frac_samples;
        let full = ref Moments.empty and glob = ref Moments.empty in
        let sl_full = ref Moments.empty and sl_glob = ref Moments.empty in
        for i = 0 to frac_samples - 1 do
          full := Moments.add !full d_fulls.(i);
          glob := Moments.add !glob d_globs.(i);
          sl_full := Moments.add !sl_full s_fulls.(i);
          sl_glob := Moments.add !sl_glob s_globs.(i)
        done;
        (* iid standard regressors make the second-order least squares a
           moment average: a_j = E[y·z_j], b_j = E[y·(z_j²−1)]/2. *)
        let regress ys =
          let mean = Array.fold_left ( +. ) 0.0 ys /. nf in
          let a = Array.make ng 0.0 and b = Array.make ng 0.0 in
          for i = 0 to frac_samples - 1 do
            let yc = ys.(i) -. mean in
            for j = 0 to ng - 1 do
              let z = zs.(i).(j) in
              a.(j) <- a.(j) +. (yc *. z /. nf);
              b.(j) <- b.(j) +. (yc *. ((z *. z) -. 1.0) /. (2.0 *. nf))
            done
          done;
          (a, b)
        in
        let da, db = regress d_globs in
        let sa, sb = regress s_globs in
        Metrics.incr m_frac_mc ~by:(2 * frac_samples);
        let vf = Moments.variance !full and vg = Moments.variance !glob in
        let svf = Moments.variance !sl_full and svg = Moments.variance !sl_glob in
        {
          ar_a = da;
          ar_b = db;
          ar_frac = (if vf <= 0.0 then 0.0 else Float.min 1.0 (vg /. vf));
          ar_sa = sa;
          ar_sb = sb;
          ar_sl = sqrt (Float.max 0.0 (svf -. svg));
          ar_slew_mean = Moments.mean !sl_glob;
        }
      in
      Hashtbl.add frac_cache cache_key resp;
      Option.iter
        (fun dir ->
          Store.save ~dir ~key:(store_key cache_key)
            (arc_response_to_string resp))
        store_dir;
      resp
  in
  (* An arc's distribution at its operating point: total moments from
     the LVF table, global share and response shape from the cached
     reference-point regression (rescaled so the global variance is
     frac of the table's). *)
  let dist_of_table (resp : arc_response) (s : Moments.summary) =
    let m2, m3, m4 = Moments.central_of_summary s in
    let vg_target = resp.ar_frac *. m2 in
    let vg_ref =
      let acc = ref 0.0 in
      for i = 0 to ng - 1 do
        acc :=
          !acc
          +. (resp.ar_a.(i) *. resp.ar_a.(i))
          +. (2.0 *. resp.ar_b.(i) *. resp.ar_b.(i))
      done;
      !acc
    in
    if vg_ref <= 0.0 || vg_target <= 0.0 then begin
      let m3_l, m4_l = clamp_locals ~var_l:m2 ~m3_l:m3 ~m4_l:m4 in
      {
        d_mean = s.Moments.mean;
        d_a = zeros ();
        d_b = zeros ();
        d_var_l = m2;
        d_m3_l = m3_l;
        d_m4_l = m4_l;
      }
    end
    else begin
      let r = sqrt (vg_target /. vg_ref) in
      let g =
        {
          zero_dist with
          d_a = Array.map (fun x -> x *. r) resp.ar_a;
          d_b = Array.map (fun x -> x *. r) resp.ar_b;
        }
      in
      let vg = var_g g in
      let var_l = Float.max 0.0 (m2 -. vg) in
      let m3_l, m4_l =
        clamp_locals ~var_l ~m3_l:(m3 -. m3_g g)
          ~m4_l:(m4 -. m4_g g -. (6.0 *. vg *. var_l))
      in
      {
        d_mean = s.Moments.mean;
        d_a = g.d_a;
        d_b = g.d_b;
        d_var_l = var_l;
        d_m3_l = m3_l;
        d_m4_l = m4_l;
      }
    end
  in
  (* Per-net wire distributions: a mini-MC over the net's varied RC tree
     (local BEOL deviates only, exactly Wire_gen.vary) evaluated with
     the same D2M-at-tap metric as Path_mc's fast hop.  Each sample
     refills a worker-owned copy of the tree in place — Wire_gen.vary_into
     draws vary's deviates in vary's order, bump_cap adds the pin caps
     in add_cap's order — and runs one Elmore pass that every tap of the
     net reads; the mean Elmore constant per tap feeds the PERI slew
     degradation.  A net's entry is indexed by tap slot ([w_slot] maps a
     node to the slot of its first tap, -1 elsewhere), so a sink lookup
     is O(1). *)
  let wire_cache : (int, wire_net) Hashtbl.t = Hashtbl.create 64 in
  let wire_dists net =
    match Hashtbl.find_opt wire_cache net with
    | Some w -> w
    | None ->
      let w =
        Metrics.span "sta.ssta.wire_mc" @@ fun () ->
        let base = design.Design.parasitics.(net) in
        let loads = Design.sink_caps tech design ~net in
        let taps = base.Rctree.taps in
        let nt = Array.length taps in
        let n_nodes = Rctree.n_nodes base in
        let rng = Rng.derive wire_rng ~index:net in
        (* Per-sample tap values land in index-addressed arrays (each
           worker writes disjoint slots), and the moment accumulators
           fold over them in index order on this domain afterwards —
           bit-identical to the sequential loop on every backend.  One
           row per tap keeps each array short enough for the minor heap:
           a flat samples x taps array would go straight to the major
           heap on every net with three or more taps, as garbage the
           major GC reclaims late. *)
        let d2ms = Array.init nt (fun _ -> Array.make wire_samples 0.0) in
        let elms = Array.init nt (fun _ -> Array.make wire_samples 0.0) in
        Executor.iter_scratch exec
          ~init:(fun () ->
            ( Rctree.copy base,
              Array.make n_nodes 0.0,
              Array.make n_nodes 0.0,
              Elmore.scratch n_nodes ))
          (fun (tree, res, cap, moments) i ->
            let v = Variation.draw tech (Rng.derive rng ~index:i) in
            Wire_gen.vary_into tech v ~base ~into:tree ~res ~cap;
            List.iter (fun (node, c) -> Rctree.bump_cap tree node c) loads;
            Elmore.moments_into tree moments;
            for j = 0 to nt - 1 do
              d2ms.(j).(i) <- Elmore.d2m_of moments taps.(j);
              elms.(j).(i) <- moments.Elmore.elmore.(taps.(j))
            done)
          ~n:wire_samples;
        let accs = Array.make nt Moments.empty in
        let elmore_sum = Array.make nt 0.0 in
        for j = 0 to nt - 1 do
          for i = 0 to wire_samples - 1 do
            accs.(j) <- Moments.add accs.(j) d2ms.(j).(i);
            elmore_sum.(j) <- elmore_sum.(j) +. elms.(j).(i)
          done
        done;
        Metrics.incr m_wire_mc ~by:wire_samples;
        let w_slot = Array.make n_nodes (-1) in
        for j = nt - 1 downto 0 do
          w_slot.(taps.(j)) <- j
        done;
        {
          w_slot;
          w_delays =
            Array.init nt (fun j ->
                {
                  dd = of_summary ~global_frac:0.0 (Moments.summary accs.(j));
                  d_slew_tc = elmore_sum.(j) /. float_of_int wire_samples;
                });
        }
      in
      Hashtbl.add wire_cache net w;
      w
  in
  (* Slew sensitivities per (net, edge), filled as the topological walk
     reaches each driver — downstream lookups always find their inputs
     already computed (or absent, for PI-driven nets: zero
     sensitivity). *)
  let slew_tab : (int * int, slew_sens) Hashtbl.t = Hashtbl.create 64 in
  (* Incoming slew distribution of a candidate, attenuated through the
     wire degrade: pin = RSS(root, wire), so d(pin)/d(root) = root/pin.
     Returns attenuated sensitivity arrays, local sigma and the total
     slew variance at the pin. *)
  let incoming ~in_net ~in_edge ~input_slew =
    match Hashtbl.find_opt slew_tab (in_net, Engine_core.edge_index in_edge) with
    | None -> None
    | Some ss ->
      let atten =
        if input_slew > 0.0 then Float.min 1.0 (ss.ss_root /. input_slew)
        else 1.0
      in
      let sa = Array.map (fun x -> atten *. x) ss.ss_a in
      let sb = Array.map (fun x -> atten *. x) ss.ss_b in
      let sl = atten *. ss.ss_l in
      let var_s = ref (sl *. sl) in
      for i = 0 to ng - 1 do
        var_s := !var_s +. (sa.(i) *. sa.(i)) +. (2.0 *. sb.(i) *. sb.(i))
      done;
      Some (sa, sb, sl, !var_s)
  in
  (* First derivative w.r.t. input slew: central finite difference on
     the (bilinear) table.  Second derivative: the bilinear surface is
     piecewise linear in slew, so curvature lives only at the grid
     knots — use the divided difference through the three knots
     bracketing the operating point instead. *)
  let dq_ds value_at ~slew =
    let h = 0.1 *. slew in
    (value_at ~slew:(slew +. h) -. value_at ~slew:(slew -. h)) /. (2.0 *. h)
  in
  let curvature value_at (tbl : Characterize.table) ~slew =
    let s = tbl.Characterize.slews in
    let n = Array.length s in
    if n < 3 then 0.0
    else begin
      let j = ref 1 in
      for i = 1 to n - 2 do
        if Float.abs (s.(i) -. slew) < Float.abs (s.(!j) -. slew) then j := i
      done;
      let j = !j in
      let f0 = value_at ~slew:s.(j - 1)
      and f1 = value_at ~slew:s.(j)
      and f2 = value_at ~slew:s.(j + 1) in
      2.0
      *. (((f2 -. f1) /. (s.(j + 1) -. s.(j)))
         -. ((f1 -. f0) /. (s.(j) -. s.(j - 1))))
      /. (s.(j + 1) -. s.(j - 1))
    end
  in
  (* Every instance of a (cell, edge) asks for the same LVF table and
     regression: resolve both once, keyed structurally, so a hit builds
     no string key ([Library.find] and [arc_response] format theirs only
     on a miss). *)
  let arc_tab : (Cell.t * int, Characterize.table * arc_response) Hashtbl.t =
    Hashtbl.create 32
  in
  let resolve (cell : Cell.t) edge =
    let key = (cell, Engine_core.edge_index edge) in
    match Hashtbl.find_opt arc_tab key with
    | Some r -> r
    | None ->
      let tbl = Library.find lib cell ~edge:(edge_of edge) in
      let r = (tbl, arc_response cell edge) in
      Hashtbl.add arc_tab key r;
      r
  in
  let provider =
  {
    Engine_core.m_label = "ssta-lvf";
    m_cell_delay =
      (fun gate ~edge ~in_net ~in_edge ~input_slew ~load_cap ->
        let tbl, resp = resolve gate.Netlist.cell edge in
        let s = Characterize.moments_at tbl ~slew:input_slew ~load:load_cap in
        let base = dist_of_table resp s in
        let dd =
          match incoming ~in_net ~in_edge ~input_slew with
          | None -> base
          | Some (sa, sb, sl, var_s) ->
            let mean_at ~slew =
              (Characterize.moments_at tbl ~slew ~load:load_cap).Moments.mean
            in
            let d1 = dq_ds mean_at ~slew:input_slew in
            let d2 = curvature mean_at tbl ~slew:input_slew in
            (* Stage coupling.  First order: this arc's delay moves with
               its input slew, which responds to the shared corners
               (compounding correlated variance) and to upstream
               mismatch (adding local variance).  Second order: delay
               is convex in slew, so the corner response picks up a
               quadratic term — the source of the correlated skew a
               fixed-slew table lookup cannot contain — and the mean
               shifts by ½·D″·Var(slew) (Jensen).  The table,
               characterized at fixed slew, contains none of this. *)
            let dv = d1 *. d1 *. sl *. sl in
            {
              base with
              d_mean = base.d_mean +. (0.5 *. d2 *. var_s);
              d_a = Array.init ng (fun i -> base.d_a.(i) +. (d1 *. sa.(i)));
              d_b =
                Array.init ng (fun i ->
                    base.d_b.(i) +. (d1 *. sb.(i))
                    +. (0.5 *. d2 *. sa.(i) *. sa.(i)));
              d_var_l = base.d_var_l +. dv;
              d_m4_l =
                base.d_m4_l +. (3.0 *. dv *. dv)
                +. (6.0 *. base.d_var_l *. dv);
            }
        in
        { dd; d_slew_tc = 0.0 });
    m_cell_out_slew =
      (fun gate ~edge ~in_net ~in_edge ~input_slew ~load_cap ->
        let tbl, resp = resolve gate.Netlist.cell edge in
        let slew_at ~slew = Characterize.out_slew_at tbl ~slew ~load:load_cap in
        let out = slew_at ~slew:input_slew in
        (* Direct slew response measured at the reference point, rescaled
           proportionally to the operating-point slew. *)
        let scale =
          if resp.ar_slew_mean > 0.0 then out /. resp.ar_slew_mean else 1.0
        in
        let ca, cb, cl, jensen =
          match incoming ~in_net ~in_edge ~input_slew with
          | None -> (Array.make ng 0.0, Array.make ng 0.0, 0.0, 0.0)
          | Some (sa, sb, sl, var_s) ->
            let s1 = dq_ds slew_at ~slew:input_slew in
            let s2 = curvature slew_at tbl ~slew:input_slew in
            ( Array.init ng (fun i -> s1 *. sa.(i)),
              Array.init ng (fun i ->
                  (s1 *. sb.(i)) +. (0.5 *. s2 *. sa.(i) *. sa.(i))),
              s1 *. sl,
              0.5 *. s2 *. var_s )
        in
        let direct_l = scale *. resp.ar_sl in
        let out = out +. jensen in
        Hashtbl.replace slew_tab
          (gate.Netlist.output, Engine_core.edge_index edge)
          {
            ss_a = Array.init ng (fun i -> (scale *. resp.ar_sa.(i)) +. ca.(i));
            ss_b = Array.init ng (fun i -> (scale *. resp.ar_sb.(i)) +. cb.(i));
            ss_l = sqrt ((direct_l *. direct_l) +. (cl *. cl));
            ss_root = out;
          };
        out);
    m_wire_delay =
      (fun ~net ~driver:_ ~sink:_ ~tree:_ ~tap ->
        let w = wire_dists net in
        let slot =
          if tap >= 0 && tap < Array.length w.w_slot then w.w_slot.(tap) else -1
        in
        if slot >= 0 then w.w_delays.(slot)
        else { dd = zero_dist; d_slew_tc = 0.0 });
    m_wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        let ws = peri_slew_factor *. wire_delay.d_slew_tc in
        sqrt ((slew_at_root *. slew_at_root) +. (ws *. ws)));
  }
  in
  (* Edited nets must recompute their wire mini-MC (new geometry / pin
     caps) and forget their slew sensitivities; both rebuild
     deterministically from per-net derived streams, so recomputing an
     unedited net would reproduce its old entry bit for bit — which is
     what makes clearing only the invalidated nets sound. *)
  let invalidate_net net =
    Hashtbl.remove wire_cache net;
    Hashtbl.remove slew_tab (net, 0);
    Hashtbl.remove slew_tab (net, 1)
  in
  (* Bitwise signature of a net's slew-sensitivity state (both edges,
     presence-tagged): the part of the provider's retained state that
     feeds downstream delays but is invisible in the arrival slot, so
     the incremental engine must include it in its cutoff equality. *)
  let slew_sig net =
    let buf = ref [] in
    for e = 1 downto 0 do
      match Hashtbl.find_opt slew_tab (net, e) with
      | None -> buf := 0L :: !buf
      | Some ss ->
        let fs =
          Array.to_list ss.ss_a @ Array.to_list ss.ss_b
          @ [ ss.ss_l; ss.ss_root ]
        in
        buf := (1L :: List.map Int64.bits_of_float fs) @ !buf
    done;
    Array.of_list !buf
  in
  (* Force every (cell, edge) regression the design can demand — the
     provider's whole cold cost, so timing this isolates the store's
     cold/warm behaviour. *)
  let prewarm () =
    Array.iter
      (fun (g : Netlist.gate) ->
        List.iter
          (fun e -> ignore (arc_response g.Netlist.cell e))
          [ Provider.Rise; Provider.Fall ])
      design.Design.netlist.Netlist.gates
  in
  {
    h_provider = provider;
    h_invalidate_net = invalidate_net;
    h_slew_sig = slew_sig;
    h_prewarm = prewarm;
  }

let lvf_provider ?seed ?wire_samples ?frac_samples ?exec ?store_dir tech lib
    design =
  (lvf_handle ?seed ?wire_samples ?frac_samples ?exec ?store_dir tech lib
     design)
    .h_provider

(* ---------------------------------------------------------------- *)
(* Analysis.                                                        *)
(* ---------------------------------------------------------------- *)

type report = (delay, dist) Engine_core.report

let analyze ?input_slew ?load_model ?(config = default_config) tech
    (provider : provider) design : report =
  Engine_core.analyze ~span:"sta.ssta.analyze" ?input_slew ?load_model
    (algebra config) provider tech design

let arrival (report : report) ~net ~edge = Engine_core.arrival report ~net ~edge
let po_dist (report : report) ~net ~edge = Engine_core.po_arrival report ~net ~edge

let circuit_dist (report : report) =
  match report.Engine_core.pos with
  | [] -> zero_dist
  | po :: _ -> po.Engine_core.po_value

let pos (report : report) =
  List.map
    (fun po ->
      (po.Engine_core.po_net, po.Engine_core.po_edge, po.Engine_core.po_value))
    report.Engine_core.pos

(* ---------------------------------------------------------------- *)
(* Validation against per-path Monte Carlo.                         *)
(* ---------------------------------------------------------------- *)

type validation = {
  va_n_paths : int;  (** PO paths in the MC max population *)
  va_mc_n : int;  (** MC samples *)
  va_mc_seconds : float;  (** wall-clock of the per-path MC reference *)
  va_mc : Moments.summary;  (** max-over-covered-paths population *)
  va_mc_p3 : float;  (** +3 sigma-level empirical quantile *)
  va_mc_m3 : float;  (** -3 sigma-level empirical quantile *)
  va_mc_p3_ci : float * float;  (** 95% interval of [va_mc_p3] *)
  va_mc_m3_ci : float * float;  (** 95% interval of [va_mc_m3] *)
  va_ssta : dist;  (** statistical max over the same covered POs *)
  va_ssta_full : dist;  (** full-circuit dist (all POs) *)
  va_err_mean : float;  (** relative mean error vs MC *)
  va_err_p3 : float;  (** relative +3 sigma quantile error vs MC *)
  va_err_m3 : float;  (** relative -3 sigma quantile error vs MC *)
}

(* Max-over-paths MC reference: sample i draws every path's variation
   stream from the same derived index, so the three global corners are
   shared across paths (the physical coupling block-based SSTA models
   with its global coefficients) while each path re-simulates stage by
   stage with the fast hop model — the same cell/wire model the
   statistical provider mirrors, so the comparison isolates the
   propagation and max approximations.  Runs single-threaded. *)
let validate ?(n = 1000) ?(k = 16) ?(seed = 97) ?(config = default_config)
    ?provider tech (lib : Library.t) (design : Design.t) =
  let scalar = Engine.analyze tech (Provider.nominal lib) design in
  let paths = Engine.worst_paths scalar ~k in
  if paths = [] then invalid_arg "Ssta.validate: design has no PO paths";
  let plans = List.map (Path_mc.plan_of tech design) paths in
  let t0 = Metrics.now () in
  let samples =
    Array.init n (fun i ->
        let best = ref Float.neg_infinity in
        List.iter
          (fun plan ->
            let v = Variation.draw tech (Rng.derive (Rng.create ~seed) ~index:i) in
            let d =
              Path_mc.simulate_planned ~kernel:Cell_sim.Fast tech plan v
                ~record_wire:(fun _ _ -> ())
            in
            if d > !best then best := d)
          plans;
        !best)
  in
  let mc_seconds = Metrics.now () -. t0 in
  let sorted = Array.copy samples in
  Quantile.sort sorted;
  let mc_p3 = Quantile.of_sorted sorted (Quantile.probability_of_sigma 3.0) in
  let mc_m3 = Quantile.of_sorted sorted (Quantile.probability_of_sigma (-3.0)) in
  let mc_p3_ci = Quantile.ci sorted (Quantile.probability_of_sigma 3.0) in
  let mc_m3_ci = Quantile.ci sorted (Quantile.probability_of_sigma (-3.0)) in
  let provider =
    match provider with Some p -> p | None -> lvf_provider tech lib design
  in
  let report = analyze ~config tech provider design in
  (* Statistical max over the same covered POs, worst-first. *)
  let covered =
    List.filter_map
      (fun (path : Path.t) ->
        let edge =
          match List.rev path.Path.hops with
          | h :: _ -> h.Path.out_edge
          | [] -> Provider.Rise
        in
        po_dist report ~net:path.Path.end_net ~edge)
      paths
  in
  let ssta_covered =
    match covered with
    | [] -> circuit_dist report
    | d :: rest -> List.fold_left (join_dist config) d rest
  in
  let rel a b = if b = 0.0 then 0.0 else Float.abs (a -. b) /. Float.abs b in
  let mc = Moments.summary (Moments.of_array samples) in
  {
    va_n_paths = List.length paths;
    va_mc_n = n;
    va_mc_seconds = mc_seconds;
    va_mc = mc;
    va_mc_p3 = mc_p3;
    va_mc_m3 = mc_m3;
    va_mc_p3_ci = mc_p3_ci;
    va_mc_m3_ci = mc_m3_ci;
    va_ssta = ssta_covered;
    va_ssta_full = circuit_dist report;
    va_err_mean = rel ssta_covered.d_mean mc.Moments.mean;
    va_err_p3 = rel (quantile ssta_covered ~sigma:3.0) mc_p3;
    va_err_m3 = rel (quantile ssta_covered ~sigma:(-3.0)) mc_m3;
  }
