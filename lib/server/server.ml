module T = Nsigma_process.Technology
module Library = Nsigma_liberty.Library
module Store = Nsigma_liberty.Store
module Bm = Nsigma_netlist.Benchmarks
module N = Nsigma_netlist.Netlist
module Edit = Nsigma_netlist.Edit
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Provider = Nsigma_sta.Provider
module Path = Nsigma_sta.Path
module Path_mc = Nsigma_sta.Path_mc
module Ssta = Nsigma_sta.Ssta
module Incremental = Nsigma_sta.Incremental
module Timing_report = Nsigma_sta.Timing_report
module Model = Nsigma.Model
module Stat_max = Nsigma_stats.Stat_max
module Sampler = Nsigma_stats.Sampler
module Moments = Nsigma_stats.Moments
module Executor = Nsigma_exec.Executor
module Cell_sim = Nsigma_spice.Cell_sim
module Metrics = Nsigma_obs.Metrics
module Log = Nsigma_obs.Log
module Trace = Nsigma_obs.Trace
module P = Protocol

(* Registered at module init so serve-mode run reports always carry the
   server keys, zero-valued before the first request. *)
let m_requests = Metrics.counter "server.requests"
let m_batched = Metrics.counter "server.batched"
let m_errors = Metrics.counter "server.errors"
let m_cache_hit = Metrics.counter "server.cache.hit"
let m_cache_miss = Metrics.counter "server.cache.miss"
let g_inflight = Metrics.gauge "server.inflight"
let g_sessions = Metrics.gauge "server.sessions"
let h_analyze = Metrics.histogram "server.latency.analyze"
let h_path_mc = Metrics.histogram "server.latency.path_mc"
let h_retime = Metrics.histogram "server.latency.retime"
let h_misc = Metrics.histogram "server.latency.misc"
let t_analyze = Trace.span_type ~cat:"server" ~args:[ "session" ] "server.analyze"
let t_path_mc = Trace.span_type ~cat:"server" ~args:[ "session" ] "server.path_mc"
let t_retime = Trace.span_type ~cat:"server" ~args:[ "session" ] "server.retime"
let t_misc = Trace.span_type ~cat:"server" ~args:[ "session" ] "server.request"

type config = {
  tech : T.t;
  library : Library.t;
  exec_provider : Executor.t;
  exec_mc : Executor.t;
  max_contexts : int;
  store_dir : string option option;
  store_max_bytes : int option;
}

let default_config tech library =
  {
    tech;
    library;
    exec_provider = Executor.sequential;
    exec_mc = Executor.sequential;
    max_contexts = 8;
    store_dir = None;
    store_max_bytes = None;
  }

(* ---- retained contexts ---- *)

type scalar_ctx = {
  sc_design : Design.t;
  sc_report : Engine.report;
  sc_path : Path.t;
}

type ssta_ctx = { st_report : Ssta.report }

type shared = Scalar of scalar_ctx | Sstate of ssta_ctx

type session_ctx = {
  rt_netlist : N.t;
  rt_inc : Incremental.t;
  mutable rt_edits : int;
}

type t = {
  cfg : config;
  model : Model.t Lazy.t;  (* N-sigma fit: per library, not per circuit *)
  contexts : shared Lru.t;
  sessions : (int * string * string, session_ctx) Hashtbl.t;
  (* plain mirrors of the server counters, live even when the metrics
     registry is disabled — the [stats] op reads these *)
  mutable n_requests : int;
  mutable n_batched : int;
  mutable n_errors : int;
  mutable n_cache_hit : int;
  mutable n_cache_miss : int;
}

let create cfg =
  {
    cfg;
    model = lazy (Model.build cfg.library);
    contexts = Lru.create ~max:cfg.max_contexts;
    sessions = Hashtbl.create 16;
    n_requests = 0;
    n_batched = 0;
    n_errors = 0;
    n_cache_hit = 0;
    n_cache_miss = 0;
  }

let resolve_circuit name =
  match Bm.find name with
  | bm -> bm
  | exception Not_found -> (
    let lname = String.lowercase_ascii name in
    match
      List.find_opt
        (fun b -> String.lowercase_ascii b.Bm.name = lname)
        Bm.small_variants
    with
    | Some bm -> bm
    | None ->
      P.fail "unknown circuit %S (available: %s)" name
        (String.concat ", "
           (List.map (fun b -> b.Bm.name) (Bm.all @ Bm.small_variants))))

let resolved_store_dir cfg =
  match cfg.store_dir with None -> Store.default_dir () | Some d -> d

(* Bound the on-disk regression store after each build burst — a
   long-lived server characterizes many (circuit, config) pairs and the
   store must not grow without bound. *)
let maybe_prune cfg =
  match (cfg.store_max_bytes, resolved_store_dir cfg) with
  | Some max_bytes, Some dir -> ignore (Store.prune ~dir ~max_bytes : int)
  | _ -> ()

let cache_hit t =
  t.n_cache_hit <- t.n_cache_hit + 1;
  Metrics.incr m_cache_hit

let cache_miss t =
  t.n_cache_miss <- t.n_cache_miss + 1;
  Metrics.incr m_cache_miss

let scalar_context t name =
  let bm = resolve_circuit name in
  let key = "scalar:" ^ bm.Bm.name in
  match Lru.find t.contexts key with
  | Some (Scalar c) ->
    cache_hit t;
    c
  | _ ->
    cache_miss t;
    let nl = bm.Bm.generate () in
    let design = Design.attach_parasitics t.cfg.tech nl in
    let report =
      Engine.analyze t.cfg.tech (Provider.nominal t.cfg.library) design
    in
    let c =
      { sc_design = design; sc_report = report;
        sc_path = Engine.critical_path report }
    in
    Lru.add t.contexts key (Scalar c);
    c

let max_op_of_name = function
  | "clark" -> Stat_max.Clark
  | "moment" -> Stat_max.Moment
  | s -> P.fail "unknown max operator %S (available: clark, moment)" s

let ssta_context t name op_name =
  let bm = resolve_circuit name in
  let key = "ssta:" ^ bm.Bm.name ^ ":" ^ op_name in
  match Lru.find t.contexts key with
  | Some (Sstate c) ->
    cache_hit t;
    c
  | _ ->
    cache_miss t;
    let config = { Ssta.op = max_op_of_name op_name; corr = Ssta.Tracked } in
    let nl = bm.Bm.generate () in
    let design = Design.attach_parasitics t.cfg.tech nl in
    let handle =
      Ssta.lvf_handle ~exec:t.cfg.exec_provider
        ?store_dir:t.cfg.store_dir t.cfg.tech t.cfg.library design
    in
    let report =
      Ssta.analyze ~config t.cfg.tech handle.Ssta.h_provider design
    in
    maybe_prune t.cfg;
    let c = { st_report = report } in
    Lru.add t.contexts key (Sstate c);
    c

let session_context t ~session name op_name =
  let bm = resolve_circuit name in
  let key = (session, bm.Bm.name, op_name) in
  match Hashtbl.find_opt t.sessions key with
  | Some c -> (bm, c)
  | None ->
    let config = { Ssta.op = max_op_of_name op_name; corr = Ssta.Tracked } in
    let nl = bm.Bm.generate () in
    let design = Design.attach_parasitics t.cfg.tech nl in
    let handle =
      Ssta.lvf_handle ~exec:t.cfg.exec_provider
        ?store_dir:t.cfg.store_dir t.cfg.tech t.cfg.library design
    in
    let inc = Incremental.init ~config t.cfg.tech handle design in
    maybe_prune t.cfg;
    let c = { rt_netlist = nl; rt_inc = inc; rt_edits = 0 } in
    Hashtbl.add t.sessions key c;
    Metrics.set_gauge g_sessions (float_of_int (Hashtbl.length t.sessions));
    (bm, c)

let session_report t ~session name op_name =
  let bm = resolve_circuit name in
  match Hashtbl.find_opt t.sessions (session, bm.Bm.name, op_name) with
  | Some c -> Some (Incremental.report c.rt_inc)
  | None -> None

let drop_session t ~session =
  let doomed =
    Hashtbl.fold
      (fun ((s, _, _) as k) _ acc -> if s = session then k :: acc else acc)
      t.sessions []
  in
  List.iter (Hashtbl.remove t.sessions) doomed;
  Metrics.set_gauge g_sessions (float_of_int (Hashtbl.length t.sessions))

(* ---- dispatch ---- *)

let num f = P.Jnum f
let str s = P.Jstr s
let jint i = P.Jnum (float_of_int i)

let dist_fields d ~sigma =
  [
    ("mean_s", num d.Ssta.d_mean);
    ("std_s", num (Ssta.std d));
    ("q_s", num (Ssta.quantile d ~sigma));
    ("qneg_s", num (Ssta.quantile d ~sigma:(-.sigma)));
  ]

let do_analyze t ~session fields =
  let circuit = P.str_field fields "circuit" in
  match P.opt_str_field fields "engine" ~default:"ssta" with
  | "ssta" ->
    let op_name = P.opt_str_field fields "max" ~default:"clark" in
    let sigma = P.opt_num_field fields "sigma" ~default:3.0 in
    (* A session that retimed this (circuit, max) sees its edited
       context — the interactive ECO loop; everyone else the pristine
       shared one. *)
    let report =
      match session_report t ~session circuit op_name with
      | Some r -> r
      | None -> (ssta_context t circuit op_name).st_report
    in
    let worst = Ssta.circuit_dist report in
    let q3 = Ssta.quantile worst ~sigma:3.0 in
    let period =
      match P.find fields "period" with
      | Some _ -> P.num_field fields "period" *. 1e-12
      | None -> q3
    in
    let slack = Timing_report.of_ssta ~period report in
    [
      ("op", str "analyze"); ("circuit", str circuit); ("engine", str "ssta");
      ("max", str op_name);
    ]
    @ dist_fields worst ~sigma
    @ [
        ("wns_s", num slack.Timing_report.s_wns);
        ("tns_s", num slack.Timing_report.s_tns);
      ]
  | "scalar" ->
    let sigma = P.opt_int_field fields "sigma" ~default:3 in
    let c = scalar_context t circuit in
    let model = Lazy.force t.model in
    [
      ("op", str "analyze"); ("circuit", str circuit);
      ("engine", str "scalar");
      ("nominal_s", num (Engine.circuit_delay c.sc_report));
      ("stages", jint (Path.n_stages c.sc_path));
      ("q_s",
       num (Model.path_quantile_of_path model c.sc_design c.sc_path ~sigma));
      ("qneg_s",
       num
         (Model.path_quantile_of_path model c.sc_design c.sc_path
            ~sigma:(-sigma)));
    ]
  | e -> P.fail "unknown engine %S (available: scalar, ssta)" e

let kernel_of_name = function
  | "fast" -> Cell_sim.Fast
  | "rk4" -> Cell_sim.Rk4
  | "auto" -> Cell_sim.Auto
  | s -> P.fail "unknown kernel %S (available: fast, rk4, auto)" s

let max_path_mc_n = 50_000

let do_path_mc t fields =
  let circuit = P.str_field fields "circuit" in
  let n = P.opt_int_field fields "n" ~default:200 in
  if n <= 0 then P.fail "field \"n\" must be positive, got %d" n;
  if n > max_path_mc_n then
    P.fail "field \"n\" must be at most %d, got %d" max_path_mc_n n;
  let sigma = P.opt_int_field fields "sigma" ~default:3 in
  let kernel =
    kernel_of_name (P.opt_str_field fields "kernel" ~default:"fast")
  in
  let c = scalar_context t circuit in
  let stats =
    Path_mc.run ~kernel ~n ~exec:t.cfg.exec_mc ~sampling:Sampler.Mc t.cfg.tech
      c.sc_design c.sc_path
  in
  [
    ("op", str "path_mc"); ("circuit", str circuit);
    ("mean_s", num stats.Path_mc.moments.Moments.mean);
    ("std_s", num stats.Path_mc.moments.Moments.std);
    ("q_s", num (stats.Path_mc.quantile sigma));
    ("qneg_s", num (stats.Path_mc.quantile (-sigma)));
    ("drawn", jint stats.Path_mc.sampling.Path_mc.si_drawn);
  ]

let do_retime t ~session fields =
  let circuit = P.str_field fields "circuit" in
  let op_name = P.opt_str_field fields "max" ~default:"clark" in
  let edit_line = P.str_field fields "edit" in
  let bm, c = session_context t ~session circuit op_name in
  let edit =
    try Edit.of_json c.rt_netlist edit_line
    with Edit.Edit_error msg -> P.fail "bad edit: %s" msg
  in
  let stats = Incremental.apply c.rt_inc edit in
  c.rt_edits <- c.rt_edits + 1;
  let worst = Ssta.circuit_dist (Incremental.report c.rt_inc) in
  [
    ("op", str "retime"); ("circuit", str bm.Bm.name); ("max", str op_name);
    ("mean_s", num worst.Ssta.d_mean);
    ("q3_s", num (Ssta.quantile worst ~sigma:3.0));
    ("invalidated", jint stats.Incremental.st_invalidated);
    ("dirty", jint stats.Incremental.st_dirty);
    ("cutoffs", jint stats.Incremental.st_cutoffs);
    ("edits", jint c.rt_edits);
  ]

let do_stats t =
  [
    ("op", str "stats");
    ("requests", jint t.n_requests);
    ("batched", jint t.n_batched);
    ("errors", jint t.n_errors);
    ("cache_hits", jint t.n_cache_hit);
    ("cache_misses", jint t.n_cache_miss);
    ("contexts", jint (Lru.length t.contexts));
    ("sessions", jint (Hashtbl.length t.sessions));
  ]

let observability_of_op = function
  | "analyze" -> (h_analyze, t_analyze)
  | "path_mc" -> (h_path_mc, t_path_mc)
  | "retime" -> (h_retime, t_retime)
  | _ -> (h_misc, t_misc)

(* Answer one parsed request with response fields (no "id"/"ok" yet) —
   the seam the coalescing layer caches on. *)
let dispatch t ~session fields =
  let op = P.str_field fields "op" in
  let hist, span = observability_of_op op in
  let t0 = Metrics.now () in
  Fun.protect
    ~finally:(fun () -> Metrics.observe hist (Metrics.now () -. t0))
    (fun () ->
      Trace.with_span span ~a:(float_of_int session) (fun () ->
          match op with
          | "ping" -> [ ("op", str "ping") ]
          | "analyze" -> do_analyze t ~session fields
          | "path_mc" -> do_path_mc t fields
          | "retime" -> do_retime t ~session fields
          | "stats" -> do_stats t
          | op ->
            P.fail
              "unknown op %S (available: ping, analyze, path_mc, retime, \
               stats)"
              op))

let request_id fields =
  match P.find fields "id" with Some v -> v | None -> P.Jnull

let error_response t id msg =
  t.n_errors <- t.n_errors + 1;
  Metrics.incr m_errors;
  [ ("id", id); ("ok", P.Jbool false); ("error", str msg) ]

let count_request t =
  t.n_requests <- t.n_requests + 1;
  Metrics.incr m_requests

(* Coalescable = answer depends only on shared pristine state, never on
   session retained state or serving history.  An ssta analyze from a
   session with a live retime context is session-dependent, so it is
   checked per request below. *)
let session_dependent t ~session fields =
  match P.find fields "op" with
  | Some (P.Jstr "analyze") -> (
    match P.find fields "circuit" with
    | Some (P.Jstr circuit) -> (
      P.opt_str_field fields "engine" ~default:"ssta" = "ssta"
      &&
      let op_name = P.opt_str_field fields "max" ~default:"clark" in
      match resolve_circuit circuit with
      | bm -> Hashtbl.mem t.sessions (session, bm.Bm.name, op_name)
      | exception P.Protocol_error _ -> false)
    | _ -> false)
  | Some (P.Jstr ("ping" | "path_mc")) -> false
  | _ -> true

let respond_fields t ~session fields =
  count_request t;
  let id = request_id fields in
  match dispatch t ~session fields with
  | body -> (("id", id) :: ("ok", P.Jbool true) :: body, true)
  | exception P.Protocol_error msg -> (error_response t id msg, false)
  | exception Edit.Edit_error msg ->
    (error_response t id ("bad edit: " ^ msg), false)
  | exception Failure msg -> (error_response t id msg, false)
  | exception Invalid_argument msg -> (error_response t id msg, false)

let handle t ~session line =
  match P.parse_line line with
  | fields -> P.to_line (fst (respond_fields t ~session fields))
  | exception P.Protocol_error msg ->
    count_request t;
    P.to_line (error_response t P.Jnull msg)

type conn = {
  fd : Unix.file_descr;
  session : int;
  dec : P.decoder;
  mutable alive : bool;
}

(* One admission batch: requests that became complete in the same
   readiness cycle.  FIFO per connection (retime ordering); read-only
   requests asking the same question are answered once and re-issued
   under each requester's id.  [live] is asked before each request: a
   connection that has gone gets no answer and costs no computation. *)
let process_batch t ~live requests =
  Metrics.set_gauge g_inflight (float_of_int (List.length requests));
  let memo : (string, (string * P.jvalue) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let respond session line =
    match P.parse_line line with
    | exception P.Protocol_error msg ->
      count_request t;
      error_response t P.Jnull msg
    | fields ->
      if session_dependent t ~session fields then
        fst (respond_fields t ~session fields)
      else begin
        let signature = P.signature fields in
        match Hashtbl.find_opt memo signature with
        | Some body ->
          count_request t;
          t.n_batched <- t.n_batched + 1;
          Metrics.incr m_batched;
          ("id", request_id fields) :: body
        | None ->
          let resp, cacheable = respond_fields t ~session fields in
          if cacheable then Hashtbl.add memo signature (List.tl resp);
          resp
      end
  in
  let responses =
    List.filter_map
      (fun (c, line) ->
        if live c then Some (c, P.to_line (respond c.session line)) else None)
      requests
  in
  Metrics.set_gauge g_inflight 0.0;
  responses

(* ---- event loop ---- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let run t ~socket ?(framing = P.Jsonl) () =
  let stop = Atomic.make false in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists socket then Sys.remove socket;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 64;
  Log.info "serving on %s (%s framing)" socket (P.framing_name framing);
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_session = ref 0 in
  let close_conn c =
    if c.alive then begin
      c.alive <- false;
      Hashtbl.remove conns c.fd;
      drop_session t ~session:c.session;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let buf = Bytes.create 65536 in
  let read_conn c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> close_conn c
    | n -> P.feed c.dec buf n
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* Pull every complete request, FIFO per connection, connections in
     session order so batches are deterministic. *)
  let drain_requests () =
    let ordered =
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.sort (fun a b -> compare a.session b.session)
    in
    List.concat_map
      (fun c ->
        let rec pull acc =
          match P.next c.dec with
          | Some line -> pull ((c, line) :: acc)
          | None -> List.rev acc
          | exception P.Protocol_error msg ->
            (* Unrecoverable framing corruption: answer once, drop. *)
            count_request t;
            let resp = P.to_line (error_response t P.Jnull msg) in
            (try write_all c.fd (P.encode framing resp)
             with Unix.Unix_error _ -> ());
            close_conn c;
            List.rev acc
        in
        pull [])
      ordered
  in
  (* Whether a peer is still connected, asked before each request of a
     batch: one non-blocking poll, and if the socket is readable one
     read into the decoder (complete requests stay queued for the next
     drain, in order) — a hang-up shows as end of file and closes the
     connection.  A client that leaves mid-pipeline thus costs no
     further computation, and a SIGTERM (checked between batches)
     waits only for the request in flight. *)
  let peer_alive c =
    c.alive
    && begin
      (match Unix.select [ c.fd ] [] [] 0.0 with
      | [], _, _ -> ()
      | _ -> read_conn c
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      c.alive
    end
  in
  let answer requests =
    process_batch t ~live:peer_alive requests
    |> List.iter (fun (c, resp) ->
           if c.alive then
             try write_all c.fd (P.encode framing resp)
             with Unix.Unix_error _ -> close_conn c)
  in
  let rec loop () =
    if Atomic.get stop then ()
    else begin
      let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      match Unix.select fds [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = srv then begin
              match Unix.accept srv with
              | cfd, _ ->
                let session = !next_session in
                incr next_session;
                Hashtbl.replace conns cfd
                  { fd = cfd; session; dec = P.decoder framing; alive = true }
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> read_conn c
              | None -> ())
          readable;
        (match drain_requests () with [] -> () | reqs -> answer reqs);
        loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Graceful drain: no new connections, answer whatever is already
         fully received, then tear down. *)
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (match drain_requests () with [] -> () | reqs -> answer reqs);
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.iter close_conn;
      (try Sys.remove socket with Sys_error _ -> ());
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Log.info "server drained %d request(s), shut down cleanly" t.n_requests)
    loop
