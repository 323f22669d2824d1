(** Incremental statistical re-timing.

    One full {!Ssta} pass builds a retained state: the per-net arrival
    slots, the {!Engine_core.ctx} (topological order, sink indices) and
    the provider's per-net caches.  Each {!apply} then validates and
    applies one netlist edit, seeds a rank-ordered dirty worklist from
    the edit's invalidated nets (their drivers and sink gates), and
    re-evaluates gates with {!Engine_core.eval_gate} — the exact
    per-gate step of the full pass — in topological-rank order, each
    gate at most once per edit.

    {b Cutoff rule (bitwise).}  A re-evaluated gate whose output slots
    (arrival distribution and slew, compared as float bits) {e and}
    provider slew-sensitivity state ({!Ssta.handle.h_slew_changed})
    equal the retained values cannot change anything downstream — every
    downstream quantity is a deterministic function of exactly those
    values — so its fanout is not enqueued.  A buffer-chain edit
    touches O(depth-to-reconvergence) gates, not O(gates), and
    {!report} after any edit sequence is bit-for-bit the report a
    from-scratch {!Ssta.analyze} of the edited design would produce
    ({!reports_bit_identical} checks exactly this).

    {b PO results.}  The keyed PO results ({!Engine_core.po_results_of})
    are retained per entry of [primary_outputs].  An edit recomputes
    only those of the PO nets it invalidated or whose driver it
    re-evaluated (nothing else they read can change) and merges them
    into the retained worst-first {!Engine_core.ranking}: an edit costs
    its cone plus one O(n) pass over cached keys and the n conses of
    the PO list, and nothing when its cone reaches no PO.

    Instrumented with the [sta.incr.*] counters (edits, invalidated
    nets, dirty gates, cutoff hits, PO results recomputed as
    [po_updates]), the [sta.incr.apply] metrics span with
    [sta.incr.pos] around the PO update inside it, and an [incr.edit]
    trace span (+ per-edit stats instant). *)

type t
(** Retained analysis state for one design.  Owns its design and
    provider handle: edits mutate the design in place, so don't share
    either with a concurrently-used analysis. *)

type stats = {
  st_invalidated : int;  (** nets invalidated by the edit *)
  st_dirty : int;  (** gates re-evaluated *)
  st_cutoffs : int;
      (** re-evaluated gates whose outputs were bitwise unchanged
          (propagation stopped there) *)
  st_seconds : float;  (** wall-clock of this [apply] *)
}

val init :
  ?input_slew:float ->
  ?load_model:[ `Total | `Effective ] ->
  ?config:Ssta.config ->
  Nsigma_process.Technology.t ->
  Ssta.handle ->
  Design.t ->
  t
(** Run the initial full pass (span [sta.incr.init]) and retain its
    state.  @raise Invalid_argument on a cyclic netlist. *)

val apply : t -> Nsigma_netlist.Edit.t -> stats
(** Validate, apply and re-time one edit.
    @raise Nsigma_netlist.Edit.Edit_error on an ill-formed edit (the
    state is unchanged in that case — validation precedes mutation). *)

val report : t -> Ssta.report
(** The current analysis result — after [n] applies, bitwise equal to
    [Ssta.analyze] of the edited design. *)

val reports_bit_identical : Ssta.report -> Ssta.report -> bool
(** Float-bit equality of all arrival slots (value and slew, both
    edges, every net) and of the worst-first PO list (net, edge,
    arrival distribution). *)
