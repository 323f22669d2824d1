(** Block-based statistical static timing analysis.

    One topological pass propagates four-moment delay distributions
    (μ, σ, γ, κ — the same parameterisation the N-sigma model
    calibrates) per net and edge through the whole netlist: the
    {!Engine_core} walk instantiated with a distribution algebra whose
    sum is exact moment arithmetic and whose reconvergence join is a
    statistical max ({!Nsigma_stats.Stat_max}).

    Each distribution is decomposed into a globally-correlated response
    and an independent local remainder.  The global response is a
    reduced second-order model in the three shared process-corner
    deviates z = (dvth_n, dvth_p, dbeta):

    {v G = Σᵢ aᵢ·zᵢ + bᵢ·(zᵢ² − 1) v}

    Linear and quadratic coefficients add along a path, so correlated
    variance AND correlated skewness compound exactly — near-threshold
    delay is strongly convex in the vth corners, and a linear-only
    global model visibly under-predicts the +3σ tail.  The tracked
    coefficients supply the correlation of reconverging arrivals and
    are re-weighted through each max by the Clark tightness
    probability.

    This is the scalable alternative to {!Path_mc}: per-path MC costs
    O(paths × samples × stages) simulations, the block-based pass costs
    one table lookup per arc plus one statistical max per reconvergent
    input — {!validate} measures both against each other. *)

type dist = {
  d_mean : float;  (** mean delay / arrival (s) *)
  d_a : float array;
      (** linear global sensitivities, one per global deviate (s) *)
  d_b : float array;  (** quadratic (z²−1) global sensitivities (s) *)
  d_var_l : float;  (** independent (local) variance (s²) *)
  d_m3_l : float;  (** local third central moment (s³) *)
  d_m4_l : float;  (** local fourth central moment (s⁴) *)
}
(** Total variance is [Σ aᵢ² + 2bᵢ² + d_var_l]; total third and fourth
    central moments reassemble the global response's non-Gaussian
    moments with the local remainder (see {!to_summary}). *)

type delay = {
  dd : dist;
  d_slew_tc : float;
      (** mean Elmore constant of the wire segment (0 for cell arcs) —
          what PERI slew degradation works on *)
}

val zero_dist : dist
val variance : dist -> float
val std : dist -> float

val to_summary : dist -> Nsigma_stats.Moments.summary
(** Reassemble total central moments: the global response contributes
    Var = Σ aᵢ²+2bᵢ², m3 = Σ 6aᵢ²bᵢ+8bᵢ³, m4 = Σ 3aᵢ⁴+60aᵢ²bᵢ²+60bᵢ⁴
    plus independent-factor cross terms, and the local remainder adds
    independently. *)

val of_summary : global_frac:float -> Nsigma_stats.Moments.summary -> dist
(** Generic split when no sensitivity information exists: [global_frac]
    (clamped to [0,1]) of the variance becomes a single linear factor
    (no quadratic term).  Wires use [global_frac = 0.]. *)

val quantile : dist -> sigma:float -> float
(** The nσ sigma-level delay of a distribution via the same
    Cornish–Fisher expansion {!Nsigma_stats.Stat_max.moment} uses —
    [quantile d ~sigma:3.0] is the +3σ sign-off arrival. *)

(** {2 Configuration} *)

type correlation =
  | Independent  (** reconverging arrivals treated as uncorrelated *)
  | Constant of float  (** fixed correlation for every max *)
  | Tracked
      (** ρ from the tracked global coefficients:
          ρ = (Σ aᵢ·aᵢ' + 2bᵢ·bᵢ') / (σ·σ') — signed, so arcs driven by
          different corners (e.g. rise/fall) decorrelate naturally *)

type config = { op : Nsigma_stats.Stat_max.operator; corr : correlation }

val default_config : config
(** Clark max with {!Tracked} correlation. *)

val algebra : config -> (delay, dist) Engine_core.algebra
(** The arrival-value algebra (exposed for tests): add is the
    correlated moment sum, join the statistical max re-split by Clark
    tightness, key the +3σ Cornish–Fisher arrival.  Join operations
    tick the [sta.ssta.max_ops] / [sta.ssta.max.{clark,moment}]
    counters. *)

(** {2 Providers} *)

type provider = (delay, dist) Engine_core.model

type handle = {
  h_provider : provider;
  h_invalidate_net : int -> unit;
      (** Drop the provider's per-net retained state (wire mini-MC
          results, slew sensitivities) so the next query recomputes it
          from the edited design.  Per-net derived RNG streams make the
          recomputation of {e unedited} nets reproduce their old
          entries bit for bit, which is what makes selective
          invalidation sound.  The first call also arms the
          provider's per-arc cell memo (see {!lvf_handle}). *)
  h_slew_mark : int -> unit;
      (** Remember the provider's slew-sensitivity state for a net
          (both edges) — the reference [h_slew_changed] compares
          against.  Allocation-free. *)
  h_slew_changed : int -> bool;
      (** Whether the net's slew-sensitivity state differs from the one
          last marked, presence-tagged and float-bitwise.  Slew
          sensitivities feed downstream delay coupling without being
          visible in the arrival slot, so the incremental engine's
          cutoff equality must include this comparison.  A provider
          with no such state answers [false].  Allocation-free. *)
  h_prewarm : unit -> unit;
      (** Force every per-(cell, edge) regression the design can
          demand — the provider's whole cold cost, isolated so callers
          can time cold vs store-warm startup. *)
}
(** A provider plus the invalidation hooks the incremental engine
    ({!Incremental}) needs.  {!lvf_handle} builds the real one;
    {!handle_of_provider} wraps a stateless provider with no-op
    hooks. *)

val handle_of_provider : provider -> handle
(** No-op hooks — correct for providers that retain no per-net state
    (e.g. synthetic test providers or the scalar engine's models). *)

val lvf_handle :
  ?seed:int ->
  ?wire_samples:int ->
  ?frac_samples:int ->
  ?exec:Nsigma_exec.Executor.t ->
  ?store_dir:string option ->
  Nsigma_process.Technology.t ->
  Nsigma_liberty.Library.t ->
  Design.t ->
  handle
(** {!lvf_provider} plus incremental hooks.  [store_dir] selects the
    content-addressed on-disk store for the per-(cell, edge) moment
    regressions ({!Nsigma_liberty.Store}): keys are derived from the
    library's v4 fingerprint plus the provider knobs that shape the
    result ([frac_samples], [seed]), and payloads round-trip
    exactly (hex float literals), so a store-warm provider is bitwise
    identical to a cold one.  Default {!Nsigma_liberty.Store.default_dir}
    (the [NSIGMA_PROVIDER_CACHE] environment directory); pass
    [~store_dir:None] to disable, [~store_dir:(Some dir)] to pin a
    directory.  Hits/misses/stale artifacts tick the
    [provider.store.*] counters.

    From the first [h_invalidate_net] on, cell delays and output slews
    are memoised per arc candidate (gate, input pin, input edge, output
    edge): a call whose cell (by identity), input net and edge, input
    slew and load bits and upstream slew-sensitivity bits all equal
    that candidate's last evaluation returns the stored result, so an
    edit re-evaluates only the arcs whose inputs moved and every result
    stays bitwise the unmemoised one.  The memo holds one slot per
    candidate (Σ pins × input edges of the kind × 2), unboxed; a cold
    pass never makes it.  Calls tick [sta.ssta.cell_memo.hits] and
    [sta.ssta.cell_memo.misses] once armed. *)

val lvf_provider :
  ?seed:int ->
  ?wire_samples:int ->
  ?frac_samples:int ->
  ?exec:Nsigma_exec.Executor.t ->
  ?store_dir:string option ->
  Nsigma_process.Technology.t ->
  Nsigma_liberty.Library.t ->
  Design.t ->
  provider
(** Statistical delays from the characterized LVF tables.  Cell arcs
    look up {!Nsigma_liberty.Characterize.moments_at} at the propagated
    mean slew and lumped load.  The global/local decomposition is
    estimated per (cell, edge) by a paired mini-MC ([frac_samples],
    fast kernel, the same deviate vectors with and without local
    mismatch) at the reference point: the globals-only population
    yields the variance fraction explained by the corners and, by
    moment regression (aᵢ = E[d·zᵢ], bᵢ = E[d·(zᵢ²−1)]/2 — exact for
    iid standard deviates), the linear and quadratic sensitivity shape,
    rescaled to the table's variance at the operating point.  Wire
    segments get a per-net mini-MC ([wire_samples] outcomes of
    {!Nsigma_rcnet.Wire_gen.vary}) evaluated with the same D2M-at-tap
    metric and PERI slew model as {!Path_mc}'s fast hop, so validation
    error isolates the propagation approximation.

    Both mini-MC loops run on [exec] (default
    {!Nsigma_exec.Executor.default}[ ()]): workers fill index-addressed
    per-sample arrays and the moment accumulators fold over them in
    index order on the calling domain, so populations are bit-identical
    on every backend (test_ssta asserts this for the cell mini-MC).

    The regression is memoized per (cell name, edge): it runs at the
    fixed reference operating point (reference slew, FO4 load), so every
    net driven by the same arc shares one mini-MC, and only the
    per-operating-point table rescale differs between nets.  All caches
    fill lazily on first use on the calling domain and are owned by the
    returned provider (not thread-safe). *)

(** {2 Analysis} *)

type report = (delay, dist) Engine_core.report

val analyze :
  ?input_slew:float ->
  ?load_model:[ `Total | `Effective ] ->
  ?config:config ->
  Nsigma_process.Technology.t ->
  provider ->
  Design.t ->
  report
(** One statistical pass (span [sta.ssta.analyze]).
    @raise Invalid_argument on a cyclic netlist. *)

val arrival : report -> net:int -> edge:Provider.edge -> dist Engine_core.net_arrival option
val po_dist : report -> net:int -> edge:Provider.edge -> dist option
val circuit_dist : report -> dist
(** Worst PO arrival distribution (by +3σ); {!zero_dist} if no POs. *)

val pos : report -> (int * Provider.edge * dist) list
(** All PO arrival distributions, worst-first. *)

(** {2 Validation against per-path Monte Carlo} *)

type validation = {
  va_n_paths : int;  (** PO paths in the MC max population *)
  va_mc_n : int;  (** MC samples *)
  va_mc_seconds : float;
      (** wall-clock of the per-path MC reference, on [exec] *)
  va_mc : Nsigma_stats.Moments.summary;  (** max-over-covered-paths population *)
  va_mc_p3 : float;  (** +3 sigma-level empirical quantile *)
  va_mc_m3 : float;  (** −3 sigma-level empirical quantile *)
  va_mc_p3_ci : float * float;
      (** 95% distribution-free interval of [va_mc_p3] ({!Nsigma_stats.Quantile.ci}) *)
  va_mc_m3_ci : float * float;  (** the same for [va_mc_m3] *)
  va_ssta : dist;  (** statistical max over the same covered POs *)
  va_ssta_full : dist;  (** full-circuit dist (all POs) *)
  va_err_mean : float;  (** relative mean error vs MC *)
  va_err_p3 : float;  (** relative +3σ quantile error vs MC *)
  va_err_m3 : float;  (** relative −3σ quantile error vs MC *)
}

val validate :
  ?n:int ->
  ?k:int ->
  ?seed:int ->
  ?config:config ->
  ?exec:Nsigma_exec.Executor.t ->
  ?provider:provider ->
  Nsigma_process.Technology.t ->
  Nsigma_liberty.Library.t ->
  Design.t ->
  validation
(** Compare the block-based pass against a max-over-paths per-path MC
    reference at matched coverage: the [k] (default 16) worst distinct
    POs of the nominal engine, [n] (default 1000) samples each, every
    path's sample [i] sharing the global corners (seed-derived) so the
    population reflects the physical cross-path correlation.  Both
    sides use the same fast hop model.  The MC samples run on [exec]
    (default {!Nsigma_exec.Executor.default}[ ()]), bit-identical on
    every backend.  [provider] defaults to a fresh
    {!lvf_provider}; passing one already filled by an earlier pass makes
    the SSTA side a warm re-run, so a speedup is taken against the
    caller's own cold pass, not timed here.
    @raise Invalid_argument if the design has no PO paths. *)
