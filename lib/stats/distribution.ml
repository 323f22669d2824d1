module Normal = struct
  type t = { mu : float; sigma : float }

  let pdf t x = Special.normal_pdf ((x -. t.mu) /. t.sigma) /. t.sigma
  let cdf t x = Special.normal_cdf ((x -. t.mu) /. t.sigma)
  let quantile t p = t.mu +. (t.sigma *. Special.normal_quantile p)
  let sample t g = Rng.gaussian_mu_sigma g ~mu:t.mu ~sigma:t.sigma
  let fit_moments (s : Moments.summary) = { mu = s.mean; sigma = s.std }
end

module Lognormal = struct
  type t = { mu : float; sigma : float }

  let pdf t x =
    if x <= 0.0 then 0.0
    else Special.normal_pdf ((log x -. t.mu) /. t.sigma) /. (x *. t.sigma)

  let cdf t x =
    if x <= 0.0 then 0.0 else Special.normal_cdf ((log x -. t.mu) /. t.sigma)

  let quantile t p = exp (t.mu +. (t.sigma *. Special.normal_quantile p))
  let sample t g = Rng.lognormal g ~mu:t.mu ~sigma:t.sigma

  let fit_moments (s : Moments.summary) =
    if s.mean <= 0.0 then invalid_arg "Lognormal.fit_moments: mean <= 0";
    let cv = s.std /. s.mean in
    let sigma2 = log1p (cv *. cv) in
    { mu = log s.mean -. (0.5 *. sigma2); sigma = sqrt sigma2 }

  let mean t = exp (t.mu +. (0.5 *. t.sigma *. t.sigma))

  let std t =
    let s2 = t.sigma *. t.sigma in
    mean t *. sqrt (exp s2 -. 1.0)

  let skewness t =
    let w = exp (t.sigma *. t.sigma) in
    (w +. 2.0) *. sqrt (w -. 1.0)
end

module Skew_normal = struct
  type t = { location : float; scale : float; shape : float }

  let pdf t x =
    let z = (x -. t.location) /. t.scale in
    2.0 /. t.scale *. Special.normal_pdf z *. Special.normal_cdf (t.shape *. z)

  let cdf t x =
    let z = (x -. t.location) /. t.scale in
    Special.normal_cdf z -. (2.0 *. Special.owen_t z t.shape)

  let sample t g =
    (* Azzalini's representation: if (u0,u1) are standard bivariate normal
       with correlation δ, then u1 conditioned on sign of u0 is SN. *)
    let delta = t.shape /. sqrt (1.0 +. (t.shape *. t.shape)) in
    let u0 = Rng.gaussian g and v = Rng.gaussian g in
    let u1 = (delta *. u0) +. (sqrt (1.0 -. (delta *. delta)) *. v) in
    let z = if u0 >= 0.0 then u1 else -.u1 in
    t.location +. (t.scale *. z)

  let delta t = t.shape /. sqrt (1.0 +. (t.shape *. t.shape))

  let mean t = t.location +. (t.scale *. delta t *. sqrt (2.0 /. Float.pi))

  let std t =
    let d = delta t in
    t.scale *. sqrt (1.0 -. (2.0 *. d *. d /. Float.pi))

  let skewness t =
    let d = delta t in
    let b = d *. sqrt (2.0 /. Float.pi) in
    (4.0 -. Float.pi) /. 2.0 *. (b ** 3.0) /. ((1.0 -. (b *. b)) ** 1.5)

  (* Maximum |skewness| the family can represent (δ → ±1). *)
  let max_abs_skewness = 0.9952717
  let max_delta = 0.9999

  let fit_moments (s : Moments.summary) =
    let g1 = Float.max (-.max_abs_skewness) (Float.min max_abs_skewness s.skewness) in
    let sign = if g1 < 0.0 then -1.0 else 1.0 in
    let a = Float.abs g1 ** (2.0 /. 3.0) in
    let b = ((4.0 -. Float.pi) /. 2.0) ** (2.0 /. 3.0) in
    let delta =
      if g1 = 0.0 then 0.0
      else sign *. Float.min max_delta (sqrt (Float.pi /. 2.0 *. (a /. (a +. b))))
    in
    let shape =
      if Float.abs delta >= 1.0 then infinity
      else delta /. sqrt (1.0 -. (delta *. delta))
    in
    let ez = delta *. sqrt (2.0 /. Float.pi) in
    let scale = s.std /. sqrt (Float.max 1e-12 (1.0 -. (ez *. ez))) in
    let location = s.mean -. (scale *. ez) in
    { location; scale; shape }

  let quantile t p =
    if not (p > 0.0 && p < 1.0) then
      invalid_arg "Skew_normal.quantile: probability outside (0,1)";
    (* Bracket around the Gaussian guess, then bisect on the CDF. *)
    let guess = t.location +. (t.scale *. Special.normal_quantile p) in
    let width = 8.0 *. t.scale in
    let lo = ref (guess -. width) and hi = ref (guess +. width) in
    while cdf t !lo > p do
      lo := !lo -. width
    done;
    while cdf t !hi < p do
      hi := !hi +. width
    done;
    Optimize.bisect ~f:(fun x -> cdf t x -. p) ~lo:!lo ~hi:!hi ~tol:1e-12 ()
end

module Log_skew_normal = struct
  type t = { log_sn : Skew_normal.t }

  let pdf t x = if x <= 0.0 then 0.0 else Skew_normal.pdf t.log_sn (log x) /. x
  let cdf t x = if x <= 0.0 then 0.0 else Skew_normal.cdf t.log_sn (log x)
  let quantile t p = exp (Skew_normal.quantile t.log_sn p)
  let sample t g = exp (Skew_normal.sample t.log_sn g)

  let fit_samples xs =
    if Array.exists (fun x -> x <= 0.0) xs then
      invalid_arg "Log_skew_normal.fit_samples: non-positive sample";
    let logs = Array.map log xs in
    { log_sn = Skew_normal.fit_moments (Moments.summary_of_array logs) }

  (* E[exp(kY)] for Y skew-normal, from its moment generating function. *)
  let exp_raw_moment t k =
    let sn = t.log_sn in
    let kf = float_of_int k in
    let delta =
      sn.Skew_normal.shape /. sqrt (1.0 +. (sn.Skew_normal.shape *. sn.Skew_normal.shape))
    in
    2.0
    *. exp ((kf *. sn.Skew_normal.location)
            +. (kf *. kf *. sn.Skew_normal.scale *. sn.Skew_normal.scale /. 2.0))
    *. Special.normal_cdf (kf *. sn.Skew_normal.scale *. delta)

  let mean t = exp_raw_moment t 1

  let std t =
    let m1 = exp_raw_moment t 1 and m2 = exp_raw_moment t 2 in
    sqrt (Float.max 0.0 (m2 -. (m1 *. m1)))

  let skewness t =
    let m1 = exp_raw_moment t 1
    and m2 = exp_raw_moment t 2
    and m3 = exp_raw_moment t 3 in
    let var = Float.max 1e-300 (m2 -. (m1 *. m1)) in
    ((m3 -. (3.0 *. m1 *. m2) +. (2.0 *. m1 *. m1 *. m1)) /. (var ** 1.5))

  (* Match the linear-domain mean/std/skewness by searching over
     (log scale, atanh delta); the log-location then follows from the
     mean in closed form, so the search is 2-D and well-behaved. *)
  let fit_moments (m : Moments.summary) =
    if m.Moments.mean <= 0.0 then invalid_arg "Log_skew_normal.fit_moments: mean <= 0";
    let target_cv = m.Moments.std /. m.Moments.mean in
    let target_skew = m.Moments.skewness in
    let build v =
      let scale = exp v.(0) in
      let delta = tanh v.(1) in
      let shape =
        if Float.abs delta >= 0.9999 then 1e4 *. (if delta < 0.0 then -1.0 else 1.0)
        else delta /. sqrt (1.0 -. (delta *. delta))
      in
      (* location 0; rescale afterwards through the mean. *)
      { log_sn = { Skew_normal.location = 0.0; scale; shape } }
    in
    let objective v =
      let t = build v in
      let cv = std t /. mean t in
      let sk = skewness t in
      let e1 = (cv -. target_cv) /. Float.max 0.01 target_cv in
      let e2 = (sk -. target_skew) /. (1.0 +. Float.abs target_skew) in
      (e1 *. e1) +. (e2 *. e2)
    in
    let init = [| log (Float.max 0.05 target_cv); 0.5 |] in
    let best, _ = Optimize.nelder_mead ~max_iter:3000 ~f:objective ~init ~step:0.5 () in
    let t0 = build best in
    (* Shift the location so the mean matches exactly. *)
    let location = log (m.Moments.mean /. mean t0) in
    { log_sn = { t0.log_sn with Skew_normal.location } }
end

module Burr_xii = struct
  type t = { lambda : float; c : float; k : float }

  let pdf t x =
    if x <= 0.0 then 0.0
    else begin
      let z = x /. t.lambda in
      t.c *. t.k /. t.lambda
      *. (z ** (t.c -. 1.0))
      *. ((1.0 +. (z ** t.c)) ** (-.t.k -. 1.0))
    end

  let cdf t x =
    if x <= 0.0 then 0.0
    else 1.0 -. ((1.0 +. ((x /. t.lambda) ** t.c)) ** -.t.k)

  let quantile t p =
    if not (p >= 0.0 && p < 1.0) then
      invalid_arg "Burr_xii.quantile: probability outside [0,1)";
    t.lambda *. ((((1.0 -. p) ** (-1.0 /. t.k)) -. 1.0) ** (1.0 /. t.c))

  let sample t g = quantile t (Rng.uniform g)

  let raw_moment t r =
    let rf = float_of_int r in
    if t.c *. t.k <= rf then
      invalid_arg "Burr_xii.raw_moment: moment does not exist (ck <= r)";
    (t.lambda ** rf) *. t.k *. Special.beta (t.k -. (rf /. t.c)) (1.0 +. (rf /. t.c))

  let fit_quantiles targets =
    let median =
      match List.find_opt (fun (p, _) -> Float.abs (p -. 0.5) < 0.05) targets with
      | Some (_, q) -> q
      | None -> (match targets with (_, q) :: _ -> q | [] ->
          invalid_arg "Burr_xii.fit_quantiles: empty target list")
    in
    if median <= 0.0 then invalid_arg "Burr_xii.fit_quantiles: non-positive median";
    (* Optimise log-parameters so positivity is automatic. *)
    let objective v =
      let lambda = exp v.(0) and c = exp v.(1) and k = exp v.(2) in
      let t = { lambda; c; k } in
      List.fold_left
        (fun acc (p, q) ->
          if q <= 0.0 then acc
          else begin
            let m = quantile t p in
            let rel = (m -. q) /. q in
            acc +. (rel *. rel)
          end)
        0.0 targets
    in
    let init = [| log median; log 4.0; log 1.0 |] in
    let best, _ = Optimize.nelder_mead ~f:objective ~init ~step:0.4 () in
    { lambda = exp best.(0); c = exp best.(1); k = exp best.(2) }

  let fit_samples xs =
    if Array.length xs < 8 then invalid_arg "Burr_xii.fit_samples: too few samples";
    let sorted = Array.copy xs in
    Quantile.sort sorted;
    let probs =
      List.map
        (fun n -> Quantile.probability_of_sigma (float_of_int n))
        Quantile.sigma_levels
    in
    fit_quantiles (List.map (fun p -> (p, Quantile.of_sorted sorted p)) probs)
end
