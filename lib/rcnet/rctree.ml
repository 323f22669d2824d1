type node = {
  name : string;
  parent : int;
  mutable res : float;
  mutable cap : float;
}

type t = {
  nodes : node array;
  taps : int array;
  children : int list array;
}

let build_children nodes =
  let n = Array.length nodes in
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    let p = nodes.(i).parent in
    children.(p) <- i :: children.(p)
  done;
  children

let create ~nodes ~taps =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Rctree.create: empty tree";
  if nodes.(0).parent <> -1 then invalid_arg "Rctree.create: node 0 must be the root";
  if nodes.(0).res <> 0.0 then invalid_arg "Rctree.create: root resistance must be 0";
  Array.iteri
    (fun i nd ->
      if i > 0 then begin
        if nd.parent < 0 || nd.parent >= i then
          invalid_arg "Rctree.create: parents must precede children";
        if nd.res <= 0.0 then
          invalid_arg "Rctree.create: segment resistance must be positive"
      end;
      if nd.cap < 0.0 then invalid_arg "Rctree.create: negative capacitance")
    nodes;
  Array.iter
    (fun tap ->
      if tap < 0 || tap >= n then invalid_arg "Rctree.create: tap out of range")
    taps;
  { nodes; taps; children = build_children nodes }

let n_nodes t = Array.length t.nodes

let total_cap t = Array.fold_left (fun acc nd -> acc +. nd.cap) 0.0 t.nodes

let total_res t = Array.fold_left (fun acc nd -> acc +. nd.res) 0.0 t.nodes

let add_cap t i c =
  if i < 0 || i >= n_nodes t then invalid_arg "Rctree.add_cap: index out of range";
  let nodes =
    Array.mapi (fun j nd -> if j = i then { nd with cap = nd.cap +. c } else nd) t.nodes
  in
  { t with nodes }

let scale t ~res_factor ~cap_factor =
  let nodes =
    Array.mapi
      (fun i nd ->
        {
          nd with
          res = (if i = 0 then 0.0 else nd.res *. res_factor);
          cap = nd.cap *. cap_factor;
        })
      t.nodes
  in
  { t with nodes }

let map_segments t f =
  let nodes =
    Array.mapi
      (fun i nd ->
        let res, cap = f i nd in
        if i = 0 then { nd with res = 0.0; cap }
        else { nd with res; cap })
      t.nodes
  in
  create ~nodes ~taps:t.taps

(* In-place refresh for sampling-plan scratch trees.  [copy] gives the
   caller a tree whose node records are private to it (name strings,
   taps and children are immutable and stay shared); [refill]/[bump_cap]
   then mutate only such owned copies — functional constructors like
   [add_cap] share node records, so mutating a tree one did not [copy]
   would corrupt its siblings. *)
let copy t = { t with nodes = Array.map (fun nd -> { nd with res = nd.res }) t.nodes }

let refill t ~res ~cap =
  let n = n_nodes t in
  if Array.length res <> n || Array.length cap <> n then
    invalid_arg "Rctree.refill: array length mismatch";
  if res.(0) <> 0.0 then invalid_arg "Rctree.refill: root resistance must be 0";
  for i = 0 to n - 1 do
    let nd = t.nodes.(i) in
    nd.res <- res.(i);
    nd.cap <- cap.(i)
  done

let bump_cap t i c =
  if i < 0 || i >= n_nodes t then invalid_arg "Rctree.bump_cap: index out of range";
  let nd = t.nodes.(i) in
  nd.cap <- nd.cap +. c

let path_to_root t i =
  if i < 0 || i >= n_nodes t then
    invalid_arg "Rctree.path_to_root: index out of range";
  let rec go acc j = if j = -1 then List.rev acc else go (j :: acc) t.nodes.(j).parent in
  go [] i

let downstream_cap_into t down =
  let n = n_nodes t in
  if Array.length down < n then
    invalid_arg "Rctree.downstream_cap_into: array shorter than the tree";
  for i = 0 to n - 1 do
    down.(i) <- t.nodes.(i).cap
  done;
  for i = n - 1 downto 1 do
    down.(t.nodes.(i).parent) <- down.(t.nodes.(i).parent) +. down.(i)
  done

let downstream_cap t =
  let down = Array.make (n_nodes t) 0.0 in
  downstream_cap_into t down;
  down

let ladder ~segments ~res_per_seg ~cap_per_seg =
  if segments <= 0 then invalid_arg "Rctree.ladder: segments must be positive";
  let nodes =
    Array.init (segments + 1) (fun i ->
        if i = 0 then
          { name = "root"; parent = -1; res = 0.0; cap = cap_per_seg /. 2.0 }
        else begin
          let cap =
            if i = segments then cap_per_seg /. 2.0 else cap_per_seg
          in
          { name = Printf.sprintf "n%d" i; parent = i - 1; res = res_per_seg; cap }
        end)
  in
  create ~nodes ~taps:[| segments |]

let pp ppf t =
  Format.fprintf ppf "@[<v>rctree %d nodes, %d taps, R=%.1f C=%.3ffF@,"
    (n_nodes t) (Array.length t.taps) (total_res t) (total_cap t *. 1e15);
  Array.iteri
    (fun i nd ->
      Format.fprintf ppf "  %d %s parent=%d R=%.2f C=%.4ffF@," i nd.name nd.parent
        nd.res (nd.cap *. 1e15))
    t.nodes;
  Format.fprintf ppf "@]"
