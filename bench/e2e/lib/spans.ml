(* In-memory span recorder for the traced runs.

   Spans form a calling-context tree: each node is one (parent, name)
   pair and accumulates its total time, the time its children cover and
   its call count, so self time (total minus children) comes out exact
   for any nesting.  Coarse spans additionally keep one event each
   (name, parent, start, end) for the Chrome trace; hot spans (one per
   provider or max-operator call, hundreds of thousands per pass) only
   aggregate.  Single-domain: spans are opened around calls made on the
   recording domain. *)

type node = {
  name : string;
  parent : node option;
  mutable children : node list;
  mutable total_ns : int;
  mutable child_ns : int;
  mutable calls : int;
}

type event = { e_name : string; e_parent : string; e_start : int; e_end : int }

type t = {
  root : node;
  mutable cur : node;
  mutable events : event list;
  mutable n_spans : int;
  clock : unit -> int;
  t0 : int;
}

let make_node name parent =
  { name; parent; children = []; total_ns = 0; child_ns = 0; calls = 0 }

let create ?(clock = Nsigma_obs.Monotonic.now_ns) () =
  let root = make_node "root" None in
  { root; cur = root; events = []; n_spans = 0; clock; t0 = clock () }

let child parent name =
  match List.find_opt (fun c -> String.equal c.name name) parent.children with
  | Some c -> c
  | None ->
    let c = make_node name (Some parent) in
    parent.children <- c :: parent.children;
    c

let close t node start ~event =
  let stop = t.clock () in
  let d = stop - start in
  node.total_ns <- node.total_ns + d;
  node.calls <- node.calls + 1;
  t.n_spans <- t.n_spans + 1;
  let parent = Option.get node.parent in
  parent.child_ns <- parent.child_ns + d;
  t.cur <- parent;
  if event then
    t.events <-
      { e_name = node.name; e_parent = parent.name; e_start = start; e_end = stop }
      :: t.events

let run t ~event name f =
  let node = child t.cur name in
  t.cur <- node;
  let start = t.clock () in
  match f () with
  | v ->
    close t node start ~event;
    v
  | exception e ->
    close t node start ~event;
    raise e

let span t name f = run t ~event:true name f
let hot t name f = run t ~event:false name f

let rec fold f acc node =
  List.fold_left (fold f) (f acc node) node.children

let self_ns node = node.total_ns - node.child_ns

let sum_by t name field =
  fold (fun acc n -> if String.equal n.name name then acc + field n else acc) 0 t.root

let total_s t name = float_of_int (sum_by t name (fun n -> n.total_ns)) *. 1e-9
let self_s t name = float_of_int (sum_by t name self_ns) *. 1e-9
let calls t name = sum_by t name (fun n -> n.calls)

let rec under ancestor n =
  match n.parent with
  | None -> false
  | Some p -> String.equal p.name ancestor || under ancestor p

(* Total time of spans named [name] nested (at any depth) in a span
   named [ancestor]. *)
let total_under_s t ~ancestor name =
  float_of_int
    (fold
       (fun acc n ->
         if String.equal n.name name && under ancestor n then acc + n.total_ns else acc)
       0 t.root)
  *. 1e-9
let n_spans t = t.n_spans

let rec path node =
  match node.parent with
  | None -> node.name
  | Some p -> path p ^ ";" ^ node.name

(* Flamegraph input: one "root;a;b <self-ns>" line per tree node. *)
let folded t =
  fold
    (fun acc n ->
      let s = self_ns n in
      if n.parent = None || s <= 0 then acc
      else Printf.sprintf "%s %d" (path n) s :: acc)
    [] t.root
  |> List.rev

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (complete events, microseconds since the
   recorder was created), loadable in Perfetto or chrome://tracing. *)
let chrome_json t =
  let ev e =
    Printf.sprintf
      {|{"name": %s, "ph": "X", "pid": 1, "tid": 1, "ts": %.3f, "dur": %.3f, "args": {"parent": %s}}|}
      (json_string e.e_name)
      (float_of_int (e.e_start - t.t0) /. 1e3)
      (float_of_int (e.e_end - e.e_start) /. 1e3)
      (json_string e.e_parent)
  in
  "{\"traceEvents\": [\n"
  ^ String.concat ",\n" (List.rev_map ev t.events)
  ^ "\n]}\n"
