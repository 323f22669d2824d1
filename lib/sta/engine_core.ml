(* Generic arrival-propagation core.

   The topological walk, unateness handling, sink/tap bookkeeping and
   predecessor recording are identical for every timing engine in the
   repository; what differs is the *arrival value algebra* — what a
   delay is, how it is added to an arrival, how reconverging arrivals
   merge, and how candidates are ranked for criticality.  The scalar
   corner engine ({!Engine}) instantiates this core with plain floats
   (add = (+.), join = max); the statistical engine ({!Ssta})
   instantiates it with four-moment distributions (join = Clark or
   moment-matching statistical max). *)

module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Metrics = Nsigma_obs.Metrics

type ('d, 'a) algebra = {
  source : 'a;  (* arrival at a primary input (t = 0) *)
  no_delay : 'd;  (* the free wire segment of a PI-driven net *)
  add : 'a -> 'd -> 'a;  (* propagate an arrival through a delay *)
  key : 'a -> float;  (* criticality ranking (scalar: the time itself) *)
  join : 'a -> 'a -> 'a;  (* merge old and candidate arrival (old first) *)
}

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

let edge_index = function Provider.Rise -> 0 | Provider.Fall -> 1

(* Input-edge candidates that can cause the given output edge. *)
let in_edges_for kind out_edge =
  match kind with
  | Cell.Xor2 | Cell.Xnor2 -> [ Provider.Rise; Provider.Fall ]
  | _ ->
    if Cell.inverting kind then [ Provider.flip out_edge ] else [ out_edge ]

(* Everything the per-gate evaluation step needs, precomputed once per
   analysis and retained by the incremental engine so a re-timing pass
   replays the exact computation [analyze] would have performed. *)
type ('d, 'a) ctx = {
  c_alg : ('d, 'a) algebra;
  c_model : ('d, 'a) model;
  c_tech : Nsigma_process.Technology.t;
  c_design : Design.t;
  c_input_slew : float;
  c_load_model : [ `Total | `Effective ];
  c_sink_index : int array array;  (* gate -> pin -> fanout position *)
  c_order : int array;
}

let make_ctx ?(input_slew = Provider.input_slew_default)
    ?(load_model = `Total) (alg : ('d, 'a) algebra) (model : ('d, 'a) model)
    tech (design : Design.t) : ('d, 'a) ctx =
  let nl = design.Design.netlist in
  (* Sink index of each gate pin within its input net's fanout list —
     each (gate, pin) pair appears in exactly one net's sink list. *)
  let sink_index =
    Array.map (fun g -> Array.map (fun _ -> 0) g.Netlist.inputs) nl.Netlist.gates
  in
  Array.iter
    (fun sinks ->
      List.iteri
        (fun k (gate, pin) -> if gate >= 0 then sink_index.(gate).(pin) <- k)
        sinks)
    design.Design.fanouts;
  {
    c_alg = alg;
    c_model = model;
    c_tech = tech;
    c_design = design;
    c_input_slew = input_slew;
    c_load_model = load_model;
    c_sink_index = sink_index;
    c_order = Netlist.topo_order nl;
  }

let init_sources (ctx : ('d, 'a) ctx) slots =
  Array.iter
    (fun pi ->
      let slot =
        Some
          {
            arr = { value = ctx.c_alg.source; slew = ctx.c_input_slew };
            pred = None;
          }
      in
      slots.(pi).(0) <- slot;
      slots.(pi).(1) <- slot)
    ctx.c_design.Design.netlist.Netlist.primary_inputs

let cell_of_driver (ctx : ('d, 'a) ctx) net =
  let d = ctx.c_design.Design.drivers.(net) in
  if d < 0 then None
  else Some ctx.c_design.Design.netlist.Netlist.gates.(d).Netlist.cell

let eval_gate (ctx : ('d, 'a) ctx) slots gi =
  let alg = ctx.c_alg and model = ctx.c_model in
  let design = ctx.c_design and tech = ctx.c_tech in
  let gate = design.Design.netlist.Netlist.gates.(gi) in
  let out_net = gate.Netlist.output in
  let load =
    match ctx.c_load_model with
    | `Total -> Design.total_load tech design ~net:out_net
    | `Effective ->
      Design.effective_load tech design ~net:out_net ~driver:gate.Netlist.cell
  in
  (* A pin's tap and wire delay depend on the pin alone, not on the
     candidate's edges: each is computed at the pin's first present
     input slot (where every candidate used to ask for it) and reused
     by the pin's later candidates of both output edges.  A tap is a
     tree node index, so -1 marks a pin not yet reached. *)
  let n_pins = Array.length gate.Netlist.inputs in
  let pin_tap = Array.make n_pins (-1) in
  let pin_wire = Array.make n_pins alg.no_delay in
  let wire_of_pin pin in_net =
    if pin_tap.(pin) < 0 then begin
      let k = ctx.c_sink_index.(gi).(pin) in
      let tap = Design.tap_of_sink design ~net:in_net ~sink_index:k in
      pin_tap.(pin) <- tap;
      if design.Design.drivers.(in_net) >= 0 then
        pin_wire.(pin) <-
          model.m_wire_delay ~net:in_net
            ~driver:(cell_of_driver ctx in_net)
            ~sink:(Some gate.Netlist.cell)
            ~tree:(Design.loaded_parasitic tech design ~net:in_net)
            ~tap
    end
  in
  List.iter
    (fun out_edge ->
      let best = ref None in
      Array.iteri
        (fun pin in_net ->
          List.iter
            (fun in_edge ->
              match slots.(in_net).(edge_index in_edge) with
              | None -> ()
              | Some { arr; _ } ->
                wire_of_pin pin in_net;
                let tap = pin_tap.(pin) and wire_delay = pin_wire.(pin) in
                let pin_slew =
                  if design.Design.drivers.(in_net) < 0 then arr.slew
                  else
                    model.m_wire_slew_degrade ~wire_delay
                      ~slew_at_root:arr.slew
                in
                let cell_delay =
                  model.m_cell_delay gate ~edge:out_edge ~in_net ~in_edge
                    ~input_slew:pin_slew ~load_cap:load
                in
                let value = alg.add (alg.add arr.value wire_delay) cell_delay in
                let pred =
                  {
                    p_gate = gi;
                    p_in_net = in_net;
                    p_in_edge = in_edge;
                    p_tap = tap;
                    p_wire_delay = wire_delay;
                    p_pin_slew = pin_slew;
                    p_cell_delay = cell_delay;
                    p_load = load;
                  }
                in
                (match !best with
                | None -> best := Some (value, pred)
                | Some (old_value, old_pred) ->
                  (* Merge arrivals through [join]; the recorded
                     predecessor is the argmax of [key] — for the
                     scalar algebra this reproduces the strict
                     [time > t] keep-new rule exactly. *)
                  let keep_new = alg.key value > alg.key old_value in
                  best :=
                    Some
                      ( alg.join old_value value,
                        if keep_new then pred else old_pred )))
            (in_edges_for gate.Netlist.cell.Cell.kind out_edge))
        gate.Netlist.inputs;
      match !best with
      | None -> ()
      | Some (value, pred) ->
        let out_slew =
          model.m_cell_out_slew gate ~edge:out_edge ~in_net:pred.p_in_net
            ~in_edge:pred.p_in_edge ~input_slew:pred.p_pin_slew
            ~load_cap:load
        in
        slots.(out_net).(edge_index out_edge) <-
          Some { arr = { value; slew = out_slew }; pred = Some pred })
    [ Provider.Rise; Provider.Fall ]

(* Per-net PO results, each paired with its [key], in the exact order
   the full pass conses them (Rise pushed first).  The net's wire delay
   is the same for both edges: it is computed once, at the first
   present slot. *)
let po_results_of (ctx : ('d, 'a) ctx) slots ~net:po =
  let alg = ctx.c_alg and model = ctx.c_model in
  let design = ctx.c_design in
  let sinks = design.Design.fanouts.(po) in
  let po_sink_index =
    match List.find_index (fun (gate, _) -> gate = -1) sinks with
    | Some k -> k
    | None -> 0
  in
  let tap = Design.tap_of_sink design ~net:po ~sink_index:po_sink_index in
  let wire =
    lazy
      (if design.Design.drivers.(po) < 0 then alg.no_delay
       else
         model.m_wire_delay ~net:po ~driver:(cell_of_driver ctx po) ~sink:None
           ~tree:(Design.loaded_parasitic ctx.c_tech design ~net:po)
           ~tap)
  in
  let results = ref [] in
  List.iter
    (fun edge ->
      match slots.(po).(edge_index edge) with
      | None -> ()
      | Some { arr; _ } ->
        let wire = Lazy.force wire in
        let value = alg.add arr.value wire in
        results :=
          ( alg.key value,
            {
              po_net = po;
              po_edge = edge;
              po_tap = tap;
              po_wire = wire;
              po_value = value;
            } )
          :: !results)
    [ Provider.Rise; Provider.Fall ];
  List.rev !results

(* --- the worst-first PO ranking ------------------------------------- *)

(* The ranking's one ordering rule, shared by the cold pass and the
   incremental update: the higher key first under [Float.compare] (so
   NaN ranks last and -0 ties +0), ties broken by the higher ordinal
   [2 * entry + result index] first.  A pass conses the PO results
   entry by entry, so its list holds the higher ordinals first, and
   this rule is exactly the stable worst-first sort of that list. *)
let[@inline] ranks_before ka oa kb ob =
  let c = Float.compare ka kb in
  c > 0 || (c = 0 && oa > ob)

let[@inline] ranks_after keys ords i j =
  ranks_before keys.(j) ords.(j) keys.(i) ords.(i)

let swap_ranks (keys : float array) ords i j =
  let k = keys.(i) and o = ords.(i) in
  keys.(i) <- keys.(j);
  ords.(i) <- ords.(j);
  keys.(j) <- k;
  ords.(j) <- o

let rec sift_down keys ords i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && ranks_after keys ords (l + 1) l then l + 1 else l in
    if ranks_after keys ords c i then begin
      swap_ranks keys ords i c;
      sift_down keys ords c n
    end
  end

(* Heap sort of the first [n] (key, ordinal) pairs into rank order: no
   allocation, and no stability needed since ordinals are distinct. *)
let sort_ranks keys ords n =
  for i = (n / 2) - 1 downto 0 do
    sift_down keys ords i n
  done;
  for last = n - 1 downto 1 do
    swap_ranks keys ords 0 last;
    sift_down keys ords 0 last
  done

type 'r ranking = {
  rk_keyed : (float * 'r) list array;  (* entry -> its keyed results *)
  mutable rk_n : int;
  rk_keys : float array;  (* rank -> key *)
  rk_ords : int array;  (* rank -> ordinal *)
  mutable rk_n_fresh : int;  (* staged results, in rk_fresh_* *)
  rk_fresh_keys : float array;
  rk_fresh_ords : int array;
  rk_staged : Bytes.t;  (* entry -> staged since the last commit *)
  mutable rk_any_staged : bool;
}

let check_results keyed =
  if List.compare_length_with keyed 2 > 0 then
    invalid_arg "Engine_core.ranking: more than two results per entry"

(* Append an entry's keyed results as (key, ordinal) pairs from [n];
   returns the new count. *)
let rec push_keyed keys ords n ~entry idx = function
  | [] -> n
  | (key, _) :: rest ->
    keys.(n) <- key;
    ords.(n) <- (2 * entry) + idx;
    push_keyed keys ords (n + 1) ~entry (idx + 1) rest

let ranking_of_keyed keyed =
  Array.iter check_results keyed;
  let n_entries = Array.length keyed in
  let cap = 2 * n_entries in
  let r =
    {
      rk_keyed = Array.copy keyed;
      rk_n = 0;
      rk_keys = Array.create_float cap;
      rk_ords = Array.make cap 0;
      rk_n_fresh = 0;
      rk_fresh_keys = Array.create_float cap;
      rk_fresh_ords = Array.make cap 0;
      rk_staged = Bytes.make n_entries '\000';
      rk_any_staged = false;
    }
  in
  let n = ref 0 in
  Array.iteri
    (fun entry l -> n := push_keyed r.rk_keys r.rk_ords !n ~entry 0 l)
    keyed;
  sort_ranks r.rk_keys r.rk_ords !n;
  r.rk_n <- !n;
  r

let ranking_replace r ~entry keyed =
  check_results keyed;
  if Bytes.get r.rk_staged entry <> '\000' then
    invalid_arg "Engine_core.ranking_replace: entry staged twice";
  Bytes.set r.rk_staged entry '\001';
  r.rk_any_staged <- true;
  r.rk_keyed.(entry) <- keyed;
  r.rk_n_fresh <-
    push_keyed r.rk_fresh_keys r.rk_fresh_ords r.rk_n_fresh ~entry 0 keyed

(* Drop the staged entries' old ranks (a stable compaction), sort the
   k staged results alone and merge them in from the back: O(n + k log
   k) and no allocation. *)
let ranking_commit r =
  if r.rk_any_staged then begin
    let keys = r.rk_keys and ords = r.rk_ords in
    let m = ref 0 in
    for i = 0 to r.rk_n - 1 do
      let o = ords.(i) in
      if Bytes.unsafe_get r.rk_staged (o lsr 1) = '\000' then begin
        keys.(!m) <- keys.(i);
        ords.(!m) <- o;
        incr m
      end
    done;
    let fkeys = r.rk_fresh_keys and fords = r.rk_fresh_ords in
    let k = r.rk_n_fresh in
    sort_ranks fkeys fords k;
    let i = ref (!m - 1) and j = ref (k - 1) in
    while !j >= 0 do
      let w = !i + !j + 1 in
      if !i >= 0 && ranks_before fkeys.(!j) fords.(!j) keys.(!i) ords.(!i)
      then begin
        keys.(w) <- keys.(!i);
        ords.(w) <- ords.(!i);
        decr i
      end
      else begin
        keys.(w) <- fkeys.(!j);
        ords.(w) <- fords.(!j);
        decr j
      end
    done;
    r.rk_n <- !m + k;
    Bytes.fill r.rk_staged 0 (Bytes.length r.rk_staged) '\000';
    r.rk_any_staged <- false;
    r.rk_n_fresh <- 0
  end

let ranked_result r ord =
  match (r.rk_keyed.(ord lsr 1), ord land 1) with
  | (_, x) :: _, 0 -> x
  | _ :: (_, y) :: _, _ -> y
  | _ -> assert false

let ranking_list r =
  let l = ref [] in
  for i = r.rk_n - 1 downto 0 do
    l := ranked_result r r.rk_ords.(i) :: !l
  done;
  !l

let analyze_keyed ?(span = "sta.analyze") (ctx : ('d, 'a) ctx) =
  Metrics.span span @@ fun () ->
  let nl = ctx.c_design.Design.netlist in
  let slots = Array.make_matrix nl.Netlist.n_nets 2 None in
  init_sources ctx slots;
  Array.iter (fun gi -> eval_gate ctx slots gi) ctx.c_order;
  (* Primary-output arrivals through their final wire segment. *)
  let ranking =
    ranking_of_keyed
      (Array.map
         (fun po -> po_results_of ctx slots ~net:po)
         nl.Netlist.primary_outputs)
  in
  ({ design = ctx.c_design; slots; pos = ranking_list ranking }, ranking)

let analyze ?span ?input_slew ?load_model (alg : ('d, 'a) algebra)
    (model : ('d, 'a) model) tech (design : Design.t) : ('d, 'a) report =
  fst
    (analyze_keyed ?span
       (make_ctx ?input_slew ?load_model alg model tech design))

let arrival report ~net ~edge =
  Option.map (fun s -> s.arr) report.slots.(net).(edge_index edge)

let design_of report = report.design

let po_arrival report ~net ~edge =
  List.find_opt (fun po -> po.po_net = net && po.po_edge = edge) report.pos
  |> Option.map (fun po -> po.po_value)

(* Predecessor chain of a PO result, source-first, each paired with the
   output edge it produced — the raw material for path extraction. *)
let preds_of report (po : ('d, 'a) po_result) =
  let rec walk net edge acc =
    match report.slots.(net).(edge_index edge) with
    | None | Some { pred = None; _ } -> acc
    | Some { pred = Some p; _ } ->
      walk p.p_in_net p.p_in_edge ((p, edge, net) :: acc)
  in
  walk po.po_net po.po_edge []

let distinct_pos report ~k =
  let seen = Hashtbl.create 16 in
  let distinct =
    List.filter
      (fun po ->
        if Hashtbl.mem seen po.po_net then false
        else begin
          Hashtbl.add seen po.po_net ();
          true
        end)
      report.pos
  in
  List.filteri (fun i _ -> i < k) distinct
