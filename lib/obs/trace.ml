(* Per-domain bounded trace buffers, merged at export time.

   The recording path mirrors the metrics registry: each domain owns a
   private buffer reached through domain-local storage, so appending a
   record takes no lock and touches no shared mutable state — it cannot
   perturb scheduling or sampled values.  The registry mutex guards
   only event-type interning and buffer registration (once per domain).

   Records are fixed-size: one packed int (kind in the low 2 bits,
   event-type id above), one monotonic timestamp in nanoseconds, and
   four float argument slots.  The argument *names* live on the
   interned event type, not in the record, so the hot path stores at
   most six words per event.

   Buffers grow geometrically from 1024 records up to a hard cap
   (default 65536 per domain, [NSIGMA_TRACE_BUF] overrides); past the
   cap new records are dropped — never silently: every drop is counted
   and surfaced in the export, the run report, and the bench gate.
   Dropping the *newest* records (rather than overwriting the oldest,
   as a classic ring would) keeps every retained [B] span opener
   matched with what came before it, so a truncated trace still loads
   cleanly. *)

let max_args = 4

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Relative-timestamp epoch: the moment this module was initialised. *)
let epoch_ns = Monotonic.now_ns ()

let registry_mutex = Mutex.create ()

(* ---- event types ---- *)

type event_type = {
  et_id : int;
  et_name : string;
  et_cat : string;
  et_args : string array;
  et_gc : bool;
}

type span_type = event_type
type instant_type = event_type
type counter_type = event_type

let type_table : (string, event_type) Hashtbl.t = Hashtbl.create 64
let type_list : event_type list ref = ref []
let n_types = ref 0

let intern ?(cat = "nsigma") ?(args = [||]) ?(gc = false) name =
  if Array.length args > max_args then
    invalid_arg
      (Printf.sprintf "Trace: event type %s declares more than %d args" name
         max_args);
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt type_table name with
      | Some t -> t
      | None ->
        let t =
          { et_id = !n_types; et_name = name; et_cat = cat; et_args = args;
            et_gc = gc }
        in
        incr n_types;
        Hashtbl.add type_table name t;
        type_list := t :: !type_list;
        t)

let span_type ?cat ?(args = []) ?gc name =
  intern ?cat ~args:(Array.of_list args) ?gc name

let instant_type ?cat ?(args = []) name =
  intern ?cat ~args:(Array.of_list args) name

let counter_type ?cat name = intern ?cat ~args:[| "value" |] name

(* ---- per-domain buffers ---- *)

let default_max_records = 65536
let initial_records = 1024

let max_records =
  Atomic.make
    (match Sys.getenv_opt "NSIGMA_TRACE_BUF" with
    | Some s -> (try max 16 (int_of_string (String.trim s)) with _ -> default_max_records)
    | None -> default_max_records)

let set_max_records n = Atomic.set max_records (max 16 n)

type buf = {
  mutable b_tid : int;
  (* stride 2: packed kind|etid, ts_ns *)
  mutable b_ints : int array;
  (* stride 4: argument slots *)
  mutable b_floats : float array;
  mutable b_len : int;
  mutable b_cap : int;
  mutable b_dropped : int;
}

let buffers : buf list ref = ref []
let next_tid = ref 0

(* Allocate outside the mutex, register (and take a track id) inside —
   same discipline as the metrics shards.  A domain keeps its buffer,
   i.e. its track, for its whole lifetime: the executor's helper
   domains persist across pool runs, so each shows as one track. *)
let buf_key =
  Domain.DLS.new_key (fun () ->
      let cap = min initial_records (Atomic.get max_records) in
      let b =
        { b_tid = 0; b_ints = Array.make (2 * cap) 0;
          b_floats = Array.make (4 * cap) 0.0; b_len = 0; b_cap = cap;
          b_dropped = 0 }
      in
      Mutex.protect registry_mutex (fun () ->
          b.b_tid <- !next_tid;
          incr next_tid;
          buffers := b :: !buffers);
      b)

let ensure buf =
  let maxr = Atomic.get max_records in
  if buf.b_len >= maxr then begin
    buf.b_dropped <- buf.b_dropped + 1;
    false
  end
  else begin
    if buf.b_len >= buf.b_cap then begin
      let ncap = min maxr (max 16 (2 * buf.b_cap)) in
      let ni = Array.make (2 * ncap) 0 in
      Array.blit buf.b_ints 0 ni 0 (2 * buf.b_len);
      let nf = Array.make (4 * ncap) 0.0 in
      Array.blit buf.b_floats 0 nf 0 (4 * buf.b_len);
      buf.b_ints <- ni;
      buf.b_floats <- nf;
      buf.b_cap <- ncap
    end;
    true
  end

(* kinds: 0 = span begin, 1 = span end, 2 = instant, 3 = counter *)

let record kind et a b c d =
  if enabled () then begin
    let buf = Domain.DLS.get buf_key in
    if ensure buf then begin
      let i = 2 * buf.b_len and j = 4 * buf.b_len in
      buf.b_ints.(i) <- kind lor (et.et_id lsl 2);
      buf.b_ints.(i + 1) <- Monotonic.now_ns ();
      buf.b_floats.(j) <- a;
      buf.b_floats.(j + 1) <- b;
      buf.b_floats.(j + 2) <- c;
      buf.b_floats.(j + 3) <- d;
      buf.b_len <- buf.b_len + 1
    end
  end

let begin_span st ?(a = 0.) ?(b = 0.) ?(c = 0.) ?(d = 0.) () = record 0 st a b c d
let end_span st = record 1 st 0. 0. 0. 0.
let instant it ?(a = 0.) ?(b = 0.) ?(c = 0.) ?(d = 0.) () = record 2 it a b c d
let counter ct v = record 3 ct v 0. 0. 0.

(* GC probe: allocation deltas over an enclosing span, emitted as an
   instant right after the span closes so the pause/allocation cost is
   attributable to that span rather than to the whole run. *)
let gc_probe =
  intern ~cat:"gc"
    ~args:[| "minor_words"; "major_words"; "minor_gcs"; "major_gcs" |]
    "gc.probe"

let with_span st ?a ?b ?c ?d f =
  if not (enabled ()) then f ()
  else begin
    let g0 = if st.et_gc then Some (Gc.quick_stat ()) else None in
    begin_span st ?a ?b ?c ?d ();
    Fun.protect
      ~finally:(fun () ->
        end_span st;
        match g0 with
        | None -> ()
        | Some g0 ->
          let g1 = Gc.quick_stat () in
          instant gc_probe
            ~a:(g1.Gc.minor_words -. g0.Gc.minor_words)
            ~b:(g1.Gc.major_words -. g0.Gc.major_words)
            ~c:(float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections))
            ~d:(float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))
            ())
      f
  end

(* ---- reading ---- *)

type kind = Begin | End | Instant | Counter

type event = {
  ev_tid : int;
  ev_kind : kind;
  ev_name : string;
  ev_cat : string;
  ev_ts_ns : int;
  ev_args : (string * float) list;
}

type stats = { recorded : int; dropped : int; tracks : int }

let stats () =
  Mutex.protect registry_mutex (fun () ->
      List.fold_left
        (fun s b ->
          (* Only tracks holding records count: long-dead worker domains
             whose buffers were reset would otherwise inflate the track
             total past the thread_name records the export emits. *)
          { recorded = s.recorded + b.b_len; dropped = s.dropped + b.b_dropped;
            tracks = (if b.b_len > 0 then s.tracks + 1 else s.tracks) })
        { recorded = 0; dropped = 0; tracks = 0 }
        !buffers)

let events () =
  let snap, type_by_id =
    Mutex.protect registry_mutex (fun () ->
        let snap =
          List.map
            (fun b ->
              ( b.b_tid,
                Array.sub b.b_ints 0 (2 * b.b_len),
                Array.sub b.b_floats 0 (4 * b.b_len),
                b.b_len ))
            !buffers
        in
        let a = Array.make (max 1 !n_types) None in
        List.iter (fun t -> a.(t.et_id) <- Some t) !type_list;
        (snap, a))
  in
  let acc = ref [] in
  List.iter
    (fun (tid, ints, floats, len) ->
      for k = 0 to len - 1 do
        let packed = ints.(2 * k) in
        let kind_i = packed land 3 and etid = packed lsr 2 in
        match type_by_id.(etid) with
        | None -> ()
        | Some et ->
          let kind =
            match kind_i with
            | 0 -> Begin
            | 1 -> End
            | 2 -> Instant
            | _ -> Counter
          in
          (* End records carry no arguments. *)
          let nargs = if kind = End then 0 else Array.length et.et_args in
          let args =
            List.init nargs (fun i -> (et.et_args.(i), floats.((4 * k) + i)))
          in
          let ev =
            { ev_tid = tid; ev_kind = kind; ev_name = et.et_name;
              ev_cat = et.et_cat; ev_ts_ns = ints.((2 * k) + 1) - epoch_ns;
              ev_args = args }
          in
          acc := (ev.ev_ts_ns, tid, k, ev) :: !acc
      done)
    snap;
  (* Deterministic merge: timestamp, then track, then per-track append
     order — per-track relative order is always preserved (the clock is
     monotonic within a domain), ties across tracks break by track id. *)
  !acc
  |> List.sort (fun (t1, d1, s1, _) (t2, d2, s2, _) ->
         compare (t1, d1, s1) (t2, d2, s2))
  |> List.map (fun (_, _, _, ev) -> ev)

let reset () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun b ->
          b.b_len <- 0;
          b.b_dropped <- 0)
        !buffers)

(* ---- Chrome trace-event JSON ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let to_chrome_json () =
  let evs = events () in
  let s = stats () in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let sep = ref "\n " in
  let add_line line =
    Buffer.add_string b !sep;
    sep := ",\n ";
    Buffer.add_string b line
  in
  (* One named track per domain that recorded anything. *)
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.ev_tid) evs)
  in
  List.iter
    (fun tid ->
      add_line
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain-%d\"}}"
           tid tid))
    tids;
  let args_json args =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_float v))
         args)
  in
  List.iter
    (fun e ->
      let ts = Printf.sprintf "%.3f" (float_of_int e.ev_ts_ns /. 1e3) in
      let common =
        Printf.sprintf "\"pid\":0,\"tid\":%d,\"ts\":%s,\"name\":\"%s\"" e.ev_tid
          ts (json_escape e.ev_name)
      in
      let line =
        match e.ev_kind with
        | Begin ->
          Printf.sprintf "{\"ph\":\"B\",%s,\"cat\":\"%s\"%s}" common
            (json_escape e.ev_cat)
            (if e.ev_args = [] then ""
             else Printf.sprintf ",\"args\":{%s}" (args_json e.ev_args))
        | End ->
          Printf.sprintf "{\"ph\":\"E\",%s,\"cat\":\"%s\"}" common
            (json_escape e.ev_cat)
        | Instant ->
          Printf.sprintf "{\"ph\":\"i\",%s,\"cat\":\"%s\",\"s\":\"t\"%s}" common
            (json_escape e.ev_cat)
            (if e.ev_args = [] then ""
             else Printf.sprintf ",\"args\":{%s}" (args_json e.ev_args))
        | Counter ->
          Printf.sprintf "{\"ph\":\"C\",%s,\"args\":{%s}}" common
            (args_json e.ev_args)
      in
      add_line line)
    evs;
  Buffer.add_string b
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"nsigma-trace\",\"schema_version\":1,\"recorded\":%d,\"tracks\":%d,\"dropped_events\":%d}}\n"
       s.recorded s.tracks s.dropped);
  Buffer.contents b

(* ---- collapsed-stack flamegraph ---- *)

let to_folded () =
  let evs = events () in
  let tids = List.sort_uniq compare (List.map (fun e -> e.ev_tid) evs) in
  let acc : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add_self path ns =
    if ns > 0 then
      Hashtbl.replace acc path
        (ns + Option.value ~default:0 (Hashtbl.find_opt acc path))
  in
  List.iter
    (fun tid ->
      let stack = ref [] in
      let cursor = ref 0 in
      let path () =
        String.concat ";"
          (Printf.sprintf "domain-%d" tid :: List.rev !stack)
      in
      List.iter
        (fun e ->
          if e.ev_tid = tid then
            match e.ev_kind with
            | Begin ->
              if !stack <> [] then add_self (path ()) (e.ev_ts_ns - !cursor);
              stack := e.ev_name :: !stack;
              cursor := e.ev_ts_ns
            | End ->
              if !stack <> [] then begin
                add_self (path ()) (e.ev_ts_ns - !cursor);
                stack := List.tl !stack
              end;
              cursor := e.ev_ts_ns
            | Instant | Counter -> ())
        evs)
    tids;
  Hashtbl.fold (fun path ns lines -> Printf.sprintf "%s %d" path ns :: lines)
    acc []
  |> List.sort String.compare
  |> fun lines -> String.concat "\n" lines ^ if lines = [] then "" else "\n"

(* ---- file output / installation ---- *)

let write spec =
  let oc = open_out spec in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()));
  let oc = open_out (spec ^ ".folded") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_folded ()))

let installed : string ref option ref = ref None

let installed_file () = Option.map (fun r -> !r) !installed

let install spec =
  set_enabled true;
  match !installed with
  | Some target -> target := spec
  | None ->
    let target = ref spec in
    installed := Some target;
    at_exit (fun () ->
        try write !target
        with e ->
          Printf.eprintf "nsigma: failed to write trace %s: %s\n%!" !target
            (Printexc.to_string e))

let install_from_env () =
  match Sys.getenv_opt "NSIGMA_TRACE" with
  | Some s when String.trim s <> "" -> install (String.trim s)
  | _ -> ()
