(** Statistical cell characterisation — the LVF-table generator.

    For every (input slew, output load) grid point, run a Monte-Carlo
    population of the cell's worst arc through the transient simulator
    and record the first four delay moments, the seven sigma-level
    quantiles, and the mean output slew.  This reproduces the flow of
    Fig. 5 of the paper up to (and excluding) the model fitting, which
    lives in the core library. *)

type point = {
  slew : float;
  load : float;
  moments : Nsigma_stats.Moments.summary;
  quantiles : float array;  (** seven entries, sigma levels −3 … +3 *)
  mean_out_slew : float;
}

type table = {
  cell : Cell.t;
  edge : [ `Rise | `Fall ];
  vdd : float;
  n_mc : int;
  kernel : Nsigma_spice.Cell_sim.kernel;
      (** the simulation kernel the population was measured with *)
  sampling : Nsigma_stats.Sampler.backend;
      (** the deviate stream the population was drawn from *)
  rtol : float option;
      (** adaptive-stopping tolerance used, [None] for fixed-count runs *)
  slews : float array;  (** ascending *)
  loads : float array;  (** ascending *)
  points : point array array;  (** indexed [slew][load] *)
}

val reference_slew : float
(** 10 ps — the paper's S_ref. *)

val reference_load : float
(** 0.4 fF — the paper's C_ref. *)

val default_slews : float array
(** 10, 25, 50, 100, 200, 300 ps (the paper sweeps 10–300 ps). *)

val default_loads : float array
(** 0.1, 0.4, 1, 2, 4, 6 fF (the paper sweeps 0.1–6 fF for the INVx1). *)

val loads_for : Nsigma_process.Technology.t -> Cell.t -> float array
(** The default load axis for a cell: fractions 0.05–3.5 of its own FO4
    load (with C_ref inserted when it falls inside the span), so strong
    cells are characterised over loads they actually see while the FO4
    point of Table II stays exactly on the grid. *)

val characterize :
  ?n_mc:int ->
  ?seed:int ->
  ?slews:float array ->
  ?loads:float array ->
  ?exec:Nsigma_exec.Executor.t ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  ?sampling:Nsigma_stats.Sampler.backend ->
  ?rtol:float ->
  Nsigma_process.Technology.t ->
  Cell.t ->
  edge:[ `Rise | `Fall ] ->
  table
(** Run the characterisation ([n_mc] defaults to 2000 samples per grid
    point; [loads] defaults to {!loads_for}).  Both axes go through
    {!check_axis} before any sampling.  Grid points are
    independent work items scheduled on [exec] (default
    [Executor.default ()]), each deriving its sample stream from its own
    grid index: the table is bit-identical for a fixed seed on every
    backend and pool size.  [kernel] selects the simulation engine
    (default {!Nsigma_spice.Cell_sim.default_kernel}[ ()], i.e. the fast
    analytic path unless [NSIGMA_KERNEL] says otherwise); the choice is
    recorded in the table and in the .lvf cache fingerprint.

    [sampling] selects the deviate stream per grid point (default
    {!Nsigma_stats.Sampler.default_backend}[ ()]): the [Mc] default
    reproduces the pre-sampler populations bit-exactly, while
    [Antithetic] / [Lhs] / [Sobol] trade that replay for variance
    reduction.  [rtol] turns on adaptive stopping per grid point
    ({!Nsigma_spice.Monte_carlo.arc_delays_sampled}): each point stops
    as soon as both ±3σ quantile CIs are within the relative tolerance,
    capped at [n_mc] samples.  Both choices are recorded in the table
    and in the .lvf cache fingerprint. *)

val check_axis : string -> float array -> unit
(** [check_axis name a] accepts a table axis that is non-empty, finite
    and strictly increasing — what bilinear lookup needs.  Every table
    is checked once where it is made ({!characterize},
    [Library.load]), so the lookups below never re-check.
    @raise Invalid_argument naming the axis otherwise. *)

val grid_signature : string
(** Canonical dump of the characterisation-grid constants (default slew
    axis, FO4 load fractions, reference condition, sigma levels).  Mixed
    into the library cache fingerprint so a cache characterised under an
    older grid is detected as stale. *)

val point_at : table -> slew:float -> load:float -> point
(** Nearest grid point (exact match expected; nearest otherwise). *)

val moments_at : table -> slew:float -> load:float -> Nsigma_stats.Moments.summary
(** Bilinear interpolation of each moment across the grid — the
    LVF-style lookup a conventional tool would use.  Points outside the
    grid clamp to its edges.  The lookups read [points] in place with
    {!Nsigma_stats.Interpolate.Grid2d.locate}/[blend], so each value is
    bit-identical to [Grid2d.eval] on a [Grid2d] of that field, without
    building one. *)

val mean_at : table -> slew:float -> load:float -> float
(** The mean delay alone: bitwise [(moments_at table ~slew ~load).mean],
    one blend instead of four. *)

val out_slew_at : table -> slew:float -> load:float -> float
(** Bilinear interpolation of the mean output slew (for slew
    propagation in STA), same arithmetic as {!moments_at}. *)

val quantile_at : table -> slew:float -> load:float -> sigma:int -> float
(** Bilinear interpolation of an empirical sigma-level quantile, same
    arithmetic as {!moments_at}.
    @raise Invalid_argument if [sigma] is outside -3..3. *)

val reference_point : table -> point
(** The grid point at (S_ref, C_ref).
    @raise Invalid_argument if the grid does not contain it. *)
