(** Empirical quantiles and the paper's sigma-level convention.

    The paper names the 0.14%, 2.28%, 15.87%, 50%, 84.13%, 97.72% and
    99.86% quantiles of a delay distribution the −3σ … +3σ "sigma levels"
    (the probabilities a Gaussian would assign to μ+nσ).  {!sigma_levels}
    enumerates them and {!probability_of_sigma} maps any real n to its
    Gaussian tail probability, so the model extends to ±6σ as the paper
    suggests for high-sigma sign-off. *)

val of_sorted : float array -> float -> float
(** [of_sorted xs p] is the [p]-quantile (0 ≤ p ≤ 1) of an ascending-sorted
    sample, using linear interpolation between order statistics (type-7,
    the R/NumPy default: h = (n−1)p).  This is the library's single
    interpolation convention — every quantile, including the sigma-level
    tables and the adaptive-stopping criterion, routes through it.  A
    singleton sample returns its only element for every [p].
    @raise Invalid_argument on an empty sample or p outside [0,1]. *)

val of_sorted_opt : float array -> float -> float option
(** Total variant: [None] on an empty sample (still raises on p outside
    [0,1] — that is a programming error, not a data condition). *)

val sort : float array -> unit
(** Sort ascending by [Float.compare] (NaNs first) in place, without
    allocating.  Elements that compare equal (±0, NaNs with different
    payloads) end up exactly where [Array.sort Float.compare] puts
    them, so the result is bitwise the same. *)

val of_sample : float array -> float -> float
(** Like {!of_sorted} but sorts a copy of the input first. *)

val many_of_sample : float array -> float list -> (float * float) list
(** [many_of_sample xs ps] sorts once and returns [(p, quantile p)] for
    every requested probability. *)

val ci : ?confidence:float -> float array -> float -> float * float
(** [ci xs p] is a distribution-free confidence interval [(lo, hi)] for
    the [p]-quantile of the population behind the ascending-sorted
    sample [xs]: the count of samples below the true quantile is
    Binomial(n, p), so the order statistics at
    [np ± z·√(np(1−p))] bracket it with probability [confidence]
    (default 0.95; normal approximation to the binomial).  Indices are
    clamped into the sample, making the interval conservative at the
    tails.  A singleton sample returns [(xs.(0), xs.(0))].  This is the
    stopping criterion of the adaptive samplers: they stop when the
    relative half-width [(hi − lo)/2 ≤ rtol·|quantile|] at ±3σ.
    @raise Invalid_argument on an empty sample, p outside [0,1] or
    confidence outside (0,1). *)

val sigma_levels : int list
(** The paper's seven levels: [-3; -2; -1; 0; 1; 2; 3]. *)

val probability_of_sigma : float -> float
(** [probability_of_sigma n] = Φ(n), e.g. [3.0 ↦ 0.99865]. *)

val sigma_of_probability : float -> float
(** Inverse of {!probability_of_sigma}. *)

val empirical_sigma_level : float array -> int -> float
(** [empirical_sigma_level xs n] is the nσ sigma-level delay of the sample,
    i.e. its Φ(n) quantile. *)
