(** Interpolation schemes used by the moment-calibration step.

    Eq. (2) of the paper calibrates μ and σ with a bilinear surface in
    (ΔS, ΔC); eq. (3) calibrates γ and κ with per-axis cubics plus the
    ΔS·ΔC cross term.  {!Surface} implements both forms as fitted
    polynomial surfaces; {!Grid2d} provides classical table lookup with
    bilinear interpolation, used by the LVF-style LUTs of the cell
    library. *)

val linear : x0:float -> y0:float -> x1:float -> y1:float -> float -> float
(** Straight-line interpolation through two points (extrapolates). *)

(** Rectangular-grid bilinear lookup, clamping outside the grid — the
    industry-standard NLDM/LVF table access. *)
module Grid2d : sig
  type t

  val create : xs:float array -> ys:float array -> values:float array array -> t
  (** [xs] (strictly increasing, length ≥ 1) indexes rows of [values];
      [ys] indexes columns.  @raise Invalid_argument on shape errors. *)

  val eval : t -> float -> float -> float
  (** Bilinear interpolation of (x, y); coordinates outside the table are
      clamped to its edges, as timing tools do for LUT access. *)

  val xs : t -> float array
  val ys : t -> float array
  val values : t -> float array array

  (** {2 Grid-free access}

      {!eval} is [locate] then [blend] on the four bracketing values.
      A caller that keeps its values in another shape (a grid of
      records, several quantities on one grid) can run the same
      arithmetic without building a [t]: the result is bit-identical to
      {!eval} on a grid holding those values. *)

  type stencil = {
    i0 : int;  (** lower x knot *)
    i1 : int;  (** upper x knot ([i0] at the last knot) *)
    j0 : int;  (** lower y knot *)
    j1 : int;  (** upper y knot *)
    fx : float;  (** clamped position between [i0] and [i1], in [0, 1] *)
    fy : float;
  }

  val locate : xs:float array -> ys:float array -> float -> float -> stencil
  (** Bracketing knots and weights of (x, y), clamped to the grid.  The
      axes are not checked here: they must be non-empty and strictly
      increasing, as {!create} requires. *)

  val blend : stencil -> float -> float -> float -> float -> float
  (** [blend s v00 v01 v10 v11] with [vab] the value at knot
      ([i_a], [j_b]). *)
end

(** Fitted polynomial surfaces over (ΔS, ΔC) of the exact shapes used in
    eqs. (2) and (3). *)
module Surface : sig
  type t

  val fit_bilinear :
    points:(float * float) array -> values:float array -> t
  (** Least-squares fit of v ≈ v₀ + p₁ΔS + p₂ΔC + kΔSΔC (eq. 2 form). *)

  val fit_cubic : points:(float * float) array -> values:float array -> t
  (** Least-squares fit of
      v ≈ v₀ + p₁ΔS + p₂ΔC + q₁ΔS² + q₂ΔC² + r₁ΔS³ + r₂ΔC³ + kΔSΔC
      (eq. 3 form). *)

  val eval : t -> float -> float -> float
  val coefficients : t -> float array
  (** Raw fitted coefficients, constant term first. *)

  val r2 : t -> float
end
