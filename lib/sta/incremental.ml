(* Incremental statistical re-timing.

   After one full Ssta pass, the arrival slots, the Engine_core ctx
   (topo order, sink indices) and the provider's per-net caches are
   retained.  A netlist edit invalidates a small set of nets; the
   drivers and sink gates of those nets seed a rank-ordered worklist,
   and gates are re-evaluated in topological-rank order with
   Engine_core.eval_gate — the exact per-gate step of the full pass.

   Early cutoff is bitwise: a gate whose recomputed output slots (dist
   and slew, compared as float bits) AND provider slew-sensitivity
   state equal the retained ones cannot change anything downstream
   — every downstream quantity is a deterministic function of exactly
   those values — so its fanout is not enqueued.  A buffer-chain edit
   therefore touches O(depth-to-reconvergence) gates, not O(gates), and
   the resulting report is bit-for-bit the report a from-scratch
   analysis of the edited design would produce.

   The keyed PO results are retained per primary output as well, in a
   worst-first ranking kept sorted across edits.  A PO result reads
   only its net's arrival slots, the net's wire state and the tap of
   its PO sink: the slots change only when the net's driver is
   re-evaluated, the wire state and the tap only when the net is
   invalidated.  So an edit recomputes the results of just those PO
   nets and merges them into the ranking: its PO cost beyond them is
   one O(n) pass over the cached keys (drop the stale ranks, merge the
   k new ones in from the back) and the n conses of the PO list.

   Worklist ordering guarantees single evaluation per gate per edit:
   the heap pops in nondecreasing rank and every push targets a
   strictly higher rank (a gate's fanout is downstream of it), so no
   popped gate is ever pushed again. *)

module Netlist = Nsigma_netlist.Netlist
module Edit = Nsigma_netlist.Edit
module Metrics = Nsigma_obs.Metrics
module Trace = Nsigma_obs.Trace

(* Registered at module init so run reports always carry the sta.incr.*
   keys, zero-valued when no incremental work happened. *)
let m_edits = Metrics.counter "sta.incr.edits"
let m_invalidated = Metrics.counter "sta.incr.invalidated_nets"
let m_dirty = Metrics.counter "sta.incr.dirty_gates"
let m_cutoffs = Metrics.counter "sta.incr.cutoff_hits"
let m_po_updates = Metrics.counter "sta.incr.po_updates"

let tr_edit = Trace.span_type ~cat:"incr" "incr.edit"

let tr_edit_stats =
  Trace.instant_type ~cat:"incr"
    ~args:[ "invalidated"; "dirty_gates"; "cutoff_hits" ]
    "incr.edit.stats"

(* Minimal binary min-heap over ints (topological ranks). *)
module Int_heap = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }
  let is_empty h = h.n = 0

  let push h x =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if h.a.(p) > h.a.(!i) then begin
        let tmp = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.n && h.a.(l) < h.a.(!s) then s := l;
      if r < h.n && h.a.(r) < h.a.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !s
      end
    done;
    top
end

type t = {
  ctx : (Ssta.delay, Ssta.dist) Engine_core.ctx;
  handle : Ssta.handle;
  slots : (Ssta.delay, Ssta.dist) Engine_core.slot option array array;
  rank : int array;  (* gate -> position in ctx.c_order *)
  queued : bool array;  (* gate -> currently in the heap *)
  heap : Int_heap.t;
  ranking : (Ssta.delay, Ssta.dist) Engine_core.po_result Engine_core.ranking;
      (* the keyed results of each primary_outputs entry, worst first *)
  is_po : bool array;  (* net -> listed in primary_outputs *)
  po_dirty : bool array;  (* net -> a PO net whose results are stale *)
  mutable n_po_dirty : int;
  mutable pos : (Ssta.delay, Ssta.dist) Engine_core.po_result list;
}

type stats = {
  st_invalidated : int;
  st_dirty : int;  (* gates re-evaluated *)
  st_cutoffs : int;  (* re-evaluated gates whose outputs were bitwise unchanged *)
  st_seconds : float;
}

(* --- bitwise equality on retained state ----------------------------- *)

let[@inline] feq (a : float) (b : float) =
  Int64.bits_of_float a = Int64.bits_of_float b

let arr_eq (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (feq a.(i) b.(i)) then ok := false
  done;
  !ok

let dist_eq (a : Ssta.dist) (b : Ssta.dist) =
  feq a.Ssta.d_mean b.Ssta.d_mean
  && arr_eq a.Ssta.d_a b.Ssta.d_a
  && arr_eq a.Ssta.d_b b.Ssta.d_b
  && feq a.Ssta.d_var_l b.Ssta.d_var_l
  && feq a.Ssta.d_m3_l b.Ssta.d_m3_l
  && feq a.Ssta.d_m4_l b.Ssta.d_m4_l

(* Predecessor records are deterministic functions of the compared
   inputs, so arrival value + slew equality is enough for cutoff: a
   downstream gate re-evaluated from bitwise-equal inputs reproduces
   its retained slot, pred included. *)
let slot_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (s1 : (Ssta.delay, Ssta.dist) Engine_core.slot), Some s2 ->
    dist_eq s1.Engine_core.arr.Engine_core.value
      s2.Engine_core.arr.Engine_core.value
    && feq s1.Engine_core.arr.Engine_core.slew
         s2.Engine_core.arr.Engine_core.slew
  | _ -> false

(* --- lifecycle ------------------------------------------------------ *)

let init ?input_slew ?load_model ?(config = Ssta.default_config) tech
    (handle : Ssta.handle) design =
  let ctx =
    Engine_core.make_ctx ?input_slew ?load_model (Ssta.algebra config)
      handle.Ssta.h_provider tech design
  in
  let report, ranking =
    Engine_core.analyze_keyed ~span:"sta.incr.init" ctx
  in
  let nl = design.Design.netlist in
  let n_gates = Array.length nl.Netlist.gates in
  let rank = Array.make n_gates 0 in
  Array.iteri (fun r gi -> rank.(gi) <- r) ctx.Engine_core.c_order;
  let is_po = Array.make nl.Netlist.n_nets false in
  Array.iter (fun po -> is_po.(po) <- true) nl.Netlist.primary_outputs;
  {
    ctx;
    handle;
    slots = report.Engine_core.slots;
    rank;
    queued = Array.make n_gates false;
    heap = Int_heap.create ();
    ranking;
    is_po;
    po_dirty = Array.make nl.Netlist.n_nets false;
    n_po_dirty = 0;
    pos = report.Engine_core.pos;
  }

let report t : Ssta.report =
  {
    Engine_core.design = t.ctx.Engine_core.c_design;
    slots = t.slots;
    pos = t.pos;
  }

let mark_po t net =
  if t.is_po.(net) && not t.po_dirty.(net) then begin
    t.po_dirty.(net) <- true;
    t.n_po_dirty <- t.n_po_dirty + 1
  end

(* Recompute the marked PO nets' results and merge them into the
   ranking; the other entries are still exactly what a full pass would
   produce.  Returns the number of PO results recomputed. *)
let update_pos t =
  Metrics.span "sta.incr.pos" @@ fun () ->
  if t.n_po_dirty = 0 then 0
  else begin
    let outputs =
      t.ctx.Engine_core.c_design.Design.netlist.Netlist.primary_outputs
    in
    let updates = ref 0 in
    Array.iteri
      (fun entry po ->
        if t.po_dirty.(po) then begin
          let keyed = Engine_core.po_results_of t.ctx t.slots ~net:po in
          Engine_core.ranking_replace t.ranking ~entry keyed;
          updates := !updates + List.length keyed
        end)
      outputs;
    Array.iter (fun po -> t.po_dirty.(po) <- false) outputs;
    t.n_po_dirty <- 0;
    Engine_core.ranking_commit t.ranking;
    t.pos <- Engine_core.ranking_list t.ranking;
    !updates
  end

let apply t edit =
  let t_start = Metrics.now () in
  Metrics.span "sta.incr.apply" @@ fun () ->
  Trace.with_span tr_edit @@ fun () ->
  let design = t.ctx.Engine_core.c_design in
  let invalidated = Design.apply_edit design edit in
  List.iter t.handle.Ssta.h_invalidate_net invalidated;
  let push gi =
    if gi >= 0 && not t.queued.(gi) then begin
      t.queued.(gi) <- true;
      Int_heap.push t.heap t.rank.(gi)
    end
  in
  (* Frontier: the driver of an invalidated net sees a new load; its
     sink gates see a new wire delay / pin slew. *)
  List.iter
    (fun net ->
      mark_po t net;
      push design.Design.drivers.(net);
      List.iter (fun (g, _) -> push g) design.Design.fanouts.(net))
    invalidated;
  let dirty = ref 0 and cutoffs = ref 0 in
  while not (Int_heap.is_empty t.heap) do
    let gi = t.ctx.Engine_core.c_order.(Int_heap.pop t.heap) in
    t.queued.(gi) <- false;
    incr dirty;
    let out_net =
      design.Design.netlist.Netlist.gates.(gi).Netlist.output
    in
    let before0 = t.slots.(out_net).(0) in
    let before1 = t.slots.(out_net).(1) in
    t.handle.Ssta.h_slew_mark out_net;
    Engine_core.eval_gate t.ctx t.slots gi;
    mark_po t out_net;
    let changed =
      (not (slot_eq before0 t.slots.(out_net).(0)))
      || (not (slot_eq before1 t.slots.(out_net).(1)))
      || t.handle.Ssta.h_slew_changed out_net
    in
    if changed then
      List.iter (fun (g, _) -> push g) design.Design.fanouts.(out_net)
    else incr cutoffs
  done;
  let po_updates = update_pos t in
  let n_invalidated = List.length invalidated in
  Metrics.incr m_edits;
  Metrics.incr m_invalidated ~by:n_invalidated;
  Metrics.incr m_dirty ~by:!dirty;
  Metrics.incr m_cutoffs ~by:!cutoffs;
  Metrics.incr m_po_updates ~by:po_updates;
  if Trace.enabled () then
    Trace.instant tr_edit_stats
      ~a:(float_of_int n_invalidated)
      ~b:(float_of_int !dirty)
      ~c:(float_of_int !cutoffs) ();
  {
    st_invalidated = n_invalidated;
    st_dirty = !dirty;
    st_cutoffs = !cutoffs;
    st_seconds = Metrics.now () -. t_start;
  }

(* --- report comparison ---------------------------------------------- *)

let po_eq (a : (Ssta.delay, Ssta.dist) Engine_core.po_result)
    (b : (Ssta.delay, Ssta.dist) Engine_core.po_result) =
  a.Engine_core.po_net = b.Engine_core.po_net
  && a.Engine_core.po_edge = b.Engine_core.po_edge
  && dist_eq a.Engine_core.po_value b.Engine_core.po_value

let reports_bit_identical (a : Ssta.report) (b : Ssta.report) =
  Array.length a.Engine_core.slots = Array.length b.Engine_core.slots
  && (let ok = ref true in
      Array.iteri
        (fun net row ->
          for e = 0 to 1 do
            if not (slot_eq row.(e) b.Engine_core.slots.(net).(e)) then
              ok := false
          done)
        a.Engine_core.slots;
      !ok)
  && List.length a.Engine_core.pos = List.length b.Engine_core.pos
  && List.for_all2 po_eq a.Engine_core.pos b.Engine_core.pos
