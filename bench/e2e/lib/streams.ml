(* Seeded input streams: the eco edit stream and the serve query
   stream.  Both are pure functions of (seed, netlist), so a run is
   reproducible from its seed and two seeds give two different
   streams.  Sampling is stratified so a short run sees the same mix of
   cheap and expensive operations whatever the seed: the per-seed
   variation that remains is which gate within a stratum, not how many
   deep edits a run happens to draw. *)

module N = Nsigma_netlist.Netlist
module Edit = Nsigma_netlist.Edit
module Cell = Nsigma_liberty.Cell

(* Longest downstream distance (gate stages) from each gate to a
   primary output.  Every gate downstream of g is strictly shallower,
   so depth bounds how far an edit at g can propagate. *)
let downstream_depth (nl : N.t) fanouts =
  let order = N.topo_order nl in
  let depth = Array.make (Array.length nl.N.gates) 0 in
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    depth.(g) <-
      List.fold_left
        (fun acc (sg, _) -> if sg >= 0 then max acc (1 + depth.(sg)) else acc)
        0
        fanouts.(nl.N.gates.(g).N.output)
  done;
  depth

(* Each gate's transitive fan-out cone (itself included) as a bitset:
   an edit there can re-time at most these gates.  Built by bitset
   union in reverse topological order. *)
let cones (nl : N.t) fanouts =
  let n = Array.length nl.N.gates in
  let words = (n + 62) / 63 in
  let cones = Array.make_matrix n words 0 in
  let order = N.topo_order nl in
  for i = n - 1 downto 0 do
    let g = order.(i) in
    let c = cones.(g) in
    c.(g / 63) <- c.(g / 63) lor (1 lsl (g mod 63));
    List.iter
      (fun (sg, _) ->
        if sg >= 0 then
          let s = cones.(sg) in
          for w = 0 to words - 1 do
            c.(w) <- c.(w) lor s.(w)
          done)
      fanouts.(nl.N.gates.(g).N.output)
  done;
  cones

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let union_size rows =
  match rows with
  | [] -> 0
  | r :: _ ->
    let total = ref 0 in
    for w = 0 to Array.length r - 1 do
      total := !total + popcount (List.fold_left (fun acc row -> acc lor row.(w)) 0 rows)
    done;
    !total

(* Stratified draws from a pool of edit sites: the pool is sorted by
   the work an edit there causes (its cone size) and cut into
   [n_strata] equal strata; every round of [n_strata] draws visits each
   stratum once, in a fixed order, picking uniformly inside it.  A run
   made of whole rounds therefore draws the same spread of cheap and
   expensive edits whatever the seed. *)
let n_strata = 8

type strata = { strata : int array array; mutable next : int }

let make_strata ~cost pool =
  let pool = Array.copy pool in
  Array.stable_sort (fun a b -> compare (cost a) (cost b)) pool;
  let n = Array.length pool in
  let k = max 1 (min n_strata n) in
  {
    strata = Array.init k (fun s -> Array.sub pool (s * n / k) (((s + 1) * n / k) - (s * n / k)));
    next = 0;
  }

let draw st s =
  let stratum = s.strata.(s.next mod Array.length s.strata) in
  s.next <- s.next + 1;
  stratum.(Random.State.int st (Array.length stratum))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- eco: netlist edits ---- *)

let endpoint_depth = 6

type eco = {
  nl : N.t;
  st : Random.State.t;
  fanouts : (int * int) list array;
  strength : int array;  (* drive strength per gate after the edits drawn so far *)
  samplers : strata array;  (* [region * 3 + kind] *)
  mutable drawn : int;
}

(* Edit i: two of every three land in the endpoint region (downstream
   depth <= 6, where timing ECOs are made), the third anywhere; the kind
   rotates through swap / scale / bump so every (region, kind) pair
   recurs every nine edits, and every sampler completes a round of
   strata every [round] edits. *)
let round = 9 * n_strata

let region i = if i mod 3 = 2 then 1 else 0
let kind i = (i + (i / 3)) mod 3

let eco ~seed (nl : N.t) =
  let fanouts = N.fanouts_of nl in
  let drivers = N.driver_of nl in
  let depth = downstream_depth nl fanouts in
  let cones = cones nl fanouts in
  let n = Array.length nl.N.gates in
  let gates = Array.init n Fun.id in
  let shallow = List.filter (fun g -> depth.(g) <= endpoint_depth) (Array.to_list gates) in
  (* A swap also reloads its input nets, re-timing their drivers: an
     endpoint swap site keeps that whole frontier in the endpoint
     region, and its cost is the union of the frontier's cones. *)
  let swap_frontier g =
    cones.(g)
    :: List.filter_map
         (fun net -> if drivers.(net) >= 0 then Some cones.(drivers.(net)) else None)
         (Array.to_list nl.N.gates.(g).N.inputs)
  in
  let shallow_swap =
    List.filter
      (fun g ->
        Array.for_all
          (fun net -> drivers.(net) < 0 || depth.(drivers.(net)) <= endpoint_depth)
          nl.N.gates.(g).N.inputs)
      shallow
  in
  let pool l = if l = [] then gates else Array.of_list l in
  (* A load bump needs a sink on the driven net. *)
  let has_sink g = fanouts.(nl.N.gates.(g).N.output) <> [] in
  let swap_cost = Array.map (fun g -> union_size (swap_frontier g)) gates in
  let cone_cost = Array.map (fun row -> union_size [ row ]) cones in
  let sampler region kind =
    let cost = if kind = 0 then fun g -> swap_cost.(g) else fun g -> cone_cost.(g) in
    let sites =
      match (region, kind) with
      | 0, 0 -> pool shallow_swap
      | 0, 1 -> pool shallow
      | 0, _ -> pool (List.filter has_sink shallow)
      | _, 2 -> pool (List.filter has_sink (Array.to_list gates))
      | _ -> gates
    in
    make_strata ~cost sites
  in
  {
    nl;
    st = Random.State.make [| 0xec0; seed |];
    fanouts;
    strength = Array.map (fun g -> g.N.cell.Cell.strength) nl.N.gates;
    samplers = Array.init 6 (fun i -> sampler (i / 3) (i mod 3));
    drawn = 0;
  }

let next_edit e =
  let i = e.drawn in
  e.drawn <- i + 1;
  let st = e.st in
  let sampler = e.samplers.((region i * 3) + kind i) in
  match kind i with
  | 0 ->
    let g = draw st sampler in
    let cur = e.strength.(g) in
    let choices = List.filter (fun s -> s <> cur) Cell.standard_strengths in
    let strength = List.nth choices (Random.State.int st (List.length choices)) in
    e.strength.(g) <- strength;
    Edit.Swap_cell
      { gate = g; cell = Cell.make e.nl.N.gates.(g).N.cell.Cell.kind ~strength }
  | 1 ->
    let g = draw st sampler in
    let r_scale = 0.8 +. Random.State.float st 0.7 in
    let c_scale = 0.8 +. Random.State.float st 0.7 in
    Edit.Scale_wire { net = e.nl.N.gates.(g).N.output; r_scale; c_scale }
  | _ ->
    let g = draw st sampler in
    let net = e.nl.N.gates.(g).N.output in
    let sink = Random.State.int st (List.length e.fanouts.(net)) in
    let delta_cap = (0.2 +. Random.State.float st 1.8) *. 1e-15 in
    Edit.Bump_sink_load { net; sink; delta_cap }

(* ---- serve: daemon queries ---- *)

type query_class = Ssta | Scalar | Path_mc | Retime

let class_name = function
  | Ssta -> "analyze"
  | Scalar -> "scalar"
  | Path_mc -> "path_mc"
  | Retime -> "retime"

let classes = [ Ssta; Scalar; Path_mc; Retime ]

(* 35% cached SSTA analyze, 15% N-sigma scalar analyze, 30% path_mc
   and 20% retime, with circuits and max operators split evenly: one
   shuffled deck of eighty per round, so every 80 queries of a
   connection carry exactly this mix. *)
let deck =
  let cards cls circuit max_op k = List.init k (fun _ -> (cls, circuit, max_op)) in
  Array.of_list
    (List.concat
       [
         cards Ssta "c432" "clark" 7; cards Ssta "c432" "moment" 7;
         cards Ssta "c5315" "clark" 7; cards Ssta "c5315" "moment" 7;
         cards Scalar "c432" "" 6; cards Scalar "c5315" "" 6;
         cards Path_mc "c432" "" 12; cards Path_mc "c5315" "" 12;
         cards Retime "c432" "clark" 16;
       ])

let serve_circuits = [| "c432"; "c5315" |]
let retime_circuit = "c432"
let path_mc_n = 40

type serve = {
  q_st : Random.State.t;
  cards : (query_class * string * string) array;
  mutable card : int;
  retime_nl : N.t;
  edits : eco;
  mutable id : int;
}

let serve ~seed ~conn ~first_id (retime_nl : N.t) =
  {
    q_st = Random.State.make [| 0x5e7e; seed; conn |];
    cards = Array.copy deck;
    card = Array.length deck;
    retime_nl;
    edits = eco ~seed:((seed * 7919) + conn) retime_nl;
    id = first_id;
  }

let retime_line ~id nl edit =
  Printf.sprintf
    {|{"id": %d, "op": "retime", "circuit": %S, "max": "clark", "edit": %S}|}
    id retime_circuit (Edit.to_json nl edit)

let next_query q =
  if q.card >= Array.length q.cards then begin
    shuffle q.q_st q.cards;
    q.card <- 0
  end;
  let cls, circuit, max_op = q.cards.(q.card) in
  q.card <- q.card + 1;
  let id = q.id in
  q.id <- id + 1;
  let line =
    match cls with
    | Ssta -> Printf.sprintf {|{"id": %d, "op": "analyze", "circuit": %S, "max": %S}|} id circuit max_op
    | Scalar ->
      Printf.sprintf {|{"id": %d, "op": "analyze", "circuit": %S, "engine": "scalar"}|} id circuit
    | Path_mc ->
      Printf.sprintf {|{"id": %d, "op": "path_mc", "circuit": %S, "n": %d}|} id circuit path_mc_n
    | Retime -> retime_line ~id q.retime_nl (next_edit q.edits)
  in
  (cls, line)
