(** Generic arrival-propagation core, parameterised over an
    arrival-value algebra.

    One topological walk serves every timing engine: the scalar corner
    engine ({!Engine}) instantiates the algebra with plain floats
    (['d = 'a = float], add = (+.), join = max, key = identity), and the
    statistical engine ({!Ssta}) instantiates it with four-moment
    distributions whose join is a statistical max
    ({!Nsigma_stats.Stat_max}).  The walk itself — unateness, sink/tap
    bookkeeping, predecessor recording, PO wire segments, worst-first
    ordering — is shared, so the two engines agree on circuit structure
    by construction. *)

module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell

type ('d, 'a) algebra = {
  source : 'a;  (** arrival at a primary input (t = 0) *)
  no_delay : 'd;  (** the free wire segment of a PI-driven net *)
  add : 'a -> 'd -> 'a;  (** propagate an arrival through a delay *)
  key : 'a -> float;  (** criticality ranking (scalar: the time itself) *)
  join : 'a -> 'a -> 'a;
      (** merge the accumulated arrival (first) with a new candidate
          (second) at a reconvergent input *)
}
(** The algebra must satisfy: [key (join a b) >= max (key a) (key b)] up
    to the model's approximation, and [join] with a strictly-dominated
    operand should be close to the dominating one.  The scalar instance
    satisfies both exactly. *)

type ('d, 'a) model = {
  m_label : string;
  m_cell_delay :
    Netlist.gate ->
    edge:Provider.edge ->
    in_net:int ->
    in_edge:Provider.edge ->
    input_slew:float ->
    load_cap:float ->
    'd;
  m_cell_out_slew :
    Netlist.gate ->
    edge:Provider.edge ->
    in_net:int ->
    in_edge:Provider.edge ->
    input_slew:float ->
    load_cap:float ->
    float;
  m_wire_delay :
    net:int ->
    driver:Cell.t option ->
    sink:Cell.t option ->
    tree:Nsigma_rcnet.Rctree.t ->
    tap:int ->
    'd;
  m_wire_slew_degrade : wire_delay:'d -> slew_at_root:float -> float;
}
(** A delay model producing ['d]-valued delays — the generic
    counterpart of {!Provider.t}.  The cell hooks additionally see the
    candidate's input net and edge ([in_net]/[in_edge]) so statistical
    providers can propagate per-net slew sensitivities (the cell–wire
    interaction term); scalar providers ignore them. *)

type 'a net_arrival = { value : 'a; slew : float }

type 'd pred = {
  p_gate : int;
  p_in_net : int;
  p_in_edge : Provider.edge;
  p_tap : int;
  p_wire_delay : 'd;
  p_pin_slew : float;
  p_cell_delay : 'd;
  p_load : float;
}
(** The argmax-criticality predecessor recorded at each slot. *)

type ('d, 'a) slot = { arr : 'a net_arrival; pred : 'd pred option }

type ('d, 'a) po_result = {
  po_net : int;
  po_edge : Provider.edge;
  po_tap : int;
  po_wire : 'd;
  po_value : 'a;  (** arrival including the final wire segment *)
}

type ('d, 'a) report = {
  design : Design.t;
  slots : ('d, 'a) slot option array array;  (** [net].[edge index] *)
  pos : ('d, 'a) po_result list;  (** sorted worst-first by [key] *)
}

val edge_index : Provider.edge -> int

val in_edges_for : Cell.kind -> Provider.edge -> Provider.edge list
(** Input-edge candidates that can cause the given output edge:
    XOR-class cells consider both polarities, inverting cells flip. *)

type ('d, 'a) ctx = {
  c_alg : ('d, 'a) algebra;
  c_model : ('d, 'a) model;
  c_tech : Nsigma_process.Technology.t;
  c_design : Design.t;
  c_input_slew : float;
  c_load_model : [ `Total | `Effective ];
  c_sink_index : int array array;
      (** per gate, per pin: position in the input net's fanout list *)
  c_order : int array;  (** {!Netlist.topo_order} of the netlist *)
}
(** Everything the per-gate evaluation step needs, precomputed once.
    The incremental engine ({!Incremental}) retains a ctx across edits
    so that re-evaluating a single gate replays the exact computation
    the full pass would have performed — the foundation of its bitwise
    early-cutoff rule. *)

val make_ctx :
  ?input_slew:float ->
  ?load_model:[ `Total | `Effective ] ->
  ('d, 'a) algebra ->
  ('d, 'a) model ->
  Nsigma_process.Technology.t ->
  Design.t ->
  ('d, 'a) ctx
(** @raise Invalid_argument on a cyclic netlist. *)

val init_sources : ('d, 'a) ctx -> ('d, 'a) slot option array array -> unit
(** Write the primary-input source slots (both edges). *)

val eval_gate : ('d, 'a) ctx -> ('d, 'a) slot option array array -> int -> unit
(** Evaluate one gate from its input slots and write its output net's
    slots — exactly the per-gate step of the full topological pass.
    Each pin's wire delay is asked of the model once, at the pin's
    first present input slot, and shared by its candidates. *)

val po_results_of :
  ('d, 'a) ctx -> ('d, 'a) slot option array array -> net:int ->
  (float * ('d, 'a) po_result) list
(** The PO results of one primary-output net, each paired with the
    algebra's [key] of its [po_value], Rise first.  The net's wire
    delay is asked of the model once, at the first present slot. *)

type 'r ranking
(** The worst-first ranking of a pass's PO results, kept sorted across
    updates.  Its one ordering rule: the higher key first under
    [Float.compare] (NaN last, -0 ties +0), ties broken by the higher
    (entry, result index) first — exactly the stable worst-first sort
    of the list a full pass conses entry by entry.  Each entry holds at
    most two results (one per edge). *)

val ranking_of_keyed : (float * 'r) list array -> 'r ranking
(** The ranking of each entry's keyed results (index [i] holds entry
    [i]'s, as {!po_results_of} orders them).
    @raise Invalid_argument if an entry holds more than two results. *)

val ranking_replace : 'r ranking -> entry:int -> (float * 'r) list -> unit
(** Stage new keyed results for [entry], replacing its old ones at the
    next {!ranking_commit}; {!ranking_list} is stale until then.
    @raise Invalid_argument if [entry] is already staged or the list
    holds more than two results. *)

val ranking_commit : 'r ranking -> unit
(** Apply the staged replacements: the staged entries' old ranks are
    dropped, the k new results sorted alone and merged in from the
    back.  O(n + k log k), allocation-free; nothing when nothing is
    staged. *)

val ranking_list : 'r ranking -> 'r list
(** The results in rank order (n conses). *)

val analyze_keyed :
  ?span:string -> ('d, 'a) ctx ->
  ('d, 'a) report * ('d, 'a) po_result ranking
(** One topological pass over a prebuilt ctx, also returning the
    ranking its [pos] was read from (one entry per entry of
    [primary_outputs]). *)

val analyze :
  ?span:string ->
  ?input_slew:float ->
  ?load_model:[ `Total | `Effective ] ->
  ('d, 'a) algebra ->
  ('d, 'a) model ->
  Nsigma_process.Technology.t ->
  Design.t ->
  ('d, 'a) report
(** One topological pass.  [span] names the {!Nsigma_obs.Metrics.span}
    wrapping the walk (default ["sta.analyze"]).
    @raise Invalid_argument on a cyclic netlist. *)

val arrival : ('d, 'a) report -> net:int -> edge:Provider.edge -> 'a net_arrival option
val design_of : ('d, 'a) report -> Design.t
val po_arrival : ('d, 'a) report -> net:int -> edge:Provider.edge -> 'a option

val preds_of :
  ('d, 'a) report -> ('d, 'a) po_result -> ('d pred * Provider.edge * int) list
(** Predecessor chain of a PO result, source-first; each element is
    [(pred, out_edge, out_net)] of one hop. *)

val distinct_pos : ('d, 'a) report -> k:int -> ('d, 'a) po_result list
(** Worst PO results keeping only the worst edge per distinct PO net,
    truncated to [k]. *)
