(* serve: warm daemon traffic mixing reads with session writes.  The
   daemon is this binary re-executed in a hidden mode running
   Server.default_config, which is what `nsigma serve` runs with no
   flags.  Load is a closed loop: two Unix-socket connections, one
   outstanding request each, driven by one thread with Unix.select, so
   every caller waits for its reply as `query --socket` does.  One op is
   one query, timed at the client.  Protocol, dispatch, the context LRU,
   coalescing and the Path_mc fast kernel do the work; context builds
   happen only in set-up. *)

open Common
module Bm = Nsigma_netlist.Benchmarks
module N = Nsigma_netlist.Netlist
module Edit = Nsigma_netlist.Edit
module Server = Nsigma_server.Server
module Streams = Nsigma_e2e.Streams
module Pct = Nsigma_e2e.Pct

let n_conns = 2
let replay_prefix = 400
let traced_queries_per_conn = 1500
let first_timed_id = 1000

(* ---- a small non-blocking-friendly client on the Protocol codec ---- *)

type conn = { fd : Unix.file_descr; dec : P.decoder; buf : Bytes.t }

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let send c line = write_all c.fd (P.encode P.Jsonl line) 0

(* Feed whatever the socket has; false once the peer has closed. *)
let fill c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> false
  | n ->
    P.feed c.dec c.buf n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec recv c =
  match P.next c.dec with
  | Some line -> line
  | None -> if fill c then recv c else failwith "serve: daemon closed the connection"

let request c line =
  send c line;
  recv c

type daemon = { pid : int; socket : string; conns : conn array }

(* A short relative path: AF_UNIX names are limited to ~100 bytes and
   the checkout may sit deep in the file system. *)
let socket_path () = Filename.concat work_dir (Printf.sprintf "s%d.sock" (Unix.getpid ()))

let connect ~pid socket =
  let deadline = now_ns () + 120_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; dec = P.decoder P.Jsonl; buf = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "serve: daemon exited during start-up");
      if now_ns () > deadline then failwith "serve: daemon did not start";
      Unix.sleepf 0.02;
      go ()
  in
  go ()

(* Daemons not yet stopped: if the workload fails part-way, they are
   stopped on exit instead of outliving it. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (wait_pid pid : Unix.process_status))
        !live)

let stop d =
  Unix.kill d.pid Sys.sigterm;
  let status = wait_pid d.pid in
  live := List.filter (( <> ) d.pid) !live;
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  (try Sys.remove d.socket with Sys_error _ -> ());
  status = Unix.WEXITED 0

(* ---- warm-up: every shared context and each session's retime
   context, built before the timed phase ---- *)

let retime_nl () = (Bm.find Streams.retime_circuit).Bm.generate ()

let warmup_lines () =
  let nl = retime_nl () in
  let id = ref 0 in
  let fresh () =
    incr id;
    !id
  in
  let analyze c rest =
    Printf.sprintf {|{"id": %d, "op": "analyze", "circuit": %S, %s}|} (fresh ()) c rest
  in
  let retime gate =
    Streams.retime_line ~id:(fresh ()) nl
      (Edit.Scale_wire { net = nl.N.gates.(gate).N.output; r_scale = 1.1; c_scale = 0.9 })
  in
  let shared =
    List.concat_map
      (fun c ->
        [ analyze c {|"max": "clark"|}; analyze c {|"max": "moment"|};
          analyze c {|"engine": "scalar"|} ])
      (Array.to_list Streams.serve_circuits)
  in
  let path_mc =
    Printf.sprintf {|{"id": %d, "op": "path_mc", "circuit": "c432", "n": %d}|} (fresh ())
      Streams.path_mc_n
  in
  [| shared @ [ path_mc; retime 0 ]; [ retime 1 ] |]

let start fx () =
  let socket = socket_path () in
  (try Sys.remove socket with Sys_error _ -> ());
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe [| exe; "__serve"; socket; fx.lvf |] (Unix.environment ())
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let conns = Array.init n_conns (fun _ -> connect ~pid socket) in
  let warm = Array.map2 (fun c lines -> List.map (fun l -> (l, request c l)) lines) conns (warmup_lines ()) in
  ({ pid; socket; conns }, warm)

(* ---- the closed loop ---- *)

type q = {
  q_conn : int;
  q_cls : Streams.query_class;
  q_line : string;
  mutable q_resp : string;
  mutable q_lat_ns : int;  (* at the client *)
  mutable q_done_s : float;  (* completion, since the loop started *)
  mutable q_dispatch_ns : int;  (* in-process replay, traced runs *)
}

(* Drive both connections until [continue conn sent] says stop; returns
   every query in completion order and the loop's wall time. *)
let closed_loop d ~seed ~continue =
  let streams =
    Array.init n_conns (fun conn ->
        Streams.serve ~seed ~conn ~first_id:first_timed_id (retime_nl ()))
  in
  let outstanding = Array.make n_conns None and sent = Array.make n_conns 0 in
  let done_ = ref [] in
  let send_next conn =
    if continue conn sent.(conn) then begin
      let cls, line = Streams.next_query streams.(conn) in
      let q =
        {
          q_conn = conn; q_cls = cls; q_line = line; q_resp = ""; q_lat_ns = 0; q_done_s = 0.0;
          q_dispatch_ns = 0;
        }
      in
      sent.(conn) <- sent.(conn) + 1;
      outstanding.(conn) <- Some (q, now_ns ());
      send d.conns.(conn) line
    end
    else outstanding.(conn) <- None
  in
  let t0 = now_ns () in
  for conn = 0 to n_conns - 1 do
    send_next conn
  done;
  let busy () = Array.exists Option.is_some outstanding in
  while busy () do
    let fds =
      List.filter_map
        (fun conn -> Option.map (fun _ -> d.conns.(conn).fd) outstanding.(conn))
        (List.init n_conns Fun.id)
    in
    match Unix.select fds [] [] 60.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "serve: no response within 60 s"
    | ready, _, _ ->
      Array.iteri
        (fun conn c ->
          if List.mem c.fd ready then begin
            if not (fill c) then failwith "serve: daemon closed the connection";
            match (P.next c.dec, outstanding.(conn)) with
            | Some resp, Some (q, t_sent) ->
              let now = now_ns () in
              q.q_lat_ns <- now - t_sent;
              q.q_done_s <- secs (now - t0);
              q.q_resp <- resp;
              done_ := q :: !done_;
              send_next conn
            | Some _, None -> failwith "serve: unsolicited response"
            | None, _ -> ()
          end)
        d.conns
  done;
  (List.rev !done_, secs (now_ns () - t0))

(* Completion rate of each block of [block] consecutive replies. *)
let block = 200

let block_rates qs =
  let done_s = Array.of_list (List.map (fun q -> q.q_done_s) qs) in
  Array.init (Array.length done_s / block) (fun b ->
      let t0 = if b = 0 then 0.0 else done_s.((b * block) - 1) in
      float_of_int block /. (done_s.(((b + 1) * block) - 1) -. t0))

let is_ok resp =
  match P.parse_line resp with
  | fields -> P.find fields "ok" = Some (P.Jbool true)
  | exception P.Protocol_error _ -> false

let stats_of d =
  let fields = P.parse_line (request d.conns.(0) {|{"id": 0, "op": "stats"}|}) in
  let f name = P.num_field fields name in
  (f "requests", f "batched", f "cache_hits")

let per_conn qs conn = List.filter (fun q -> q.q_conn = conn) qs

(* Replay each session's warm-up and first [limit] queries through a
   fresh in-process server, recording each query's dispatch time; count
   responses that differ from the daemon's, byte for byte. *)
let replay fx warm qs ~limit =
  let srv = Server.create (Server.default_config tech (load_library fx)) in
  let mismatches = ref 0 in
  let check session line resp = if not (String.equal (Server.handle srv ~session line) resp) then incr mismatches in
  for session = 0 to n_conns - 1 do
    List.iter (fun (line, resp) -> check session line resp) warm.(session);
    List.iteri
      (fun i q ->
        if i < limit then begin
          let t0 = now_ns () in
          let local = Server.handle srv ~session q.q_line in
          q.q_dispatch_ns <- now_ns () - t0;
          if not (String.equal local q.q_resp) then incr mismatches
        end)
      (per_conn qs session)
  done;
  !mismatches

let warm_digest warm =
  strings_digest (List.concat_map (List.map snd) (Array.to_list warm))

(* Failures outside the timed ops: warm-up answers that differ from
   golden.json, and a daemon that did not drain cleanly. *)
let stray warm clean =
  (if golden_matches "serve.warmup" (warm_digest warm) then 0 else 1) + if clean then 0 else 1

let untraced r ~seed ~seconds ~setup_s fx (d, warm) =
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let qs, _ = closed_loop d ~seed ~continue:(fun _ _ -> now_ns () < t_end) in
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  let clean = stop d in
  let not_ok = List.length (List.filter (fun q -> not (is_ok q.q_resp)) qs) in
  let mismatches = replay fx warm qs ~limit:replay_prefix in
  let lat_s = Array.of_list (List.map (fun q -> secs q.q_lat_ns) qs) in
  e2e_metrics r ~rates:(block_rates qs) ~unit_of_work:"queries" ~lat_s ~tail_cap:0.99
    ~setup_s ~rss_mb ();
  finish r ~attempted:(List.length qs) ~failed:(not_ok + mismatches + stray warm clean)

let traced r sp ~seed fx (d, warm) =
  let qs, wall =
    Spans.span sp "serve.client" (fun () ->
        closed_loop d ~seed ~continue:(fun _ sent -> sent < traced_queries_per_conn))
  in
  let requests, coalesced, cache_hits = stats_of d in
  let clean = stop d in
  let not_ok = List.length (List.filter (fun q -> not (is_ok q.q_resp)) qs) in
  let mismatches = Spans.span sp "serve.replay" (fun () -> replay fx warm qs ~limit:max_int) in
  let p50_ms l = if l = [] then 0.0 else Pct.median (Pct.sorted (Array.of_list l)) *. 1e-6 in
  List.iter
    (fun cls ->
      let mine = List.filter (fun q -> q.q_cls = cls) qs in
      let name = Streams.class_name cls in
      metric r ("client." ^ name ^ "_ms_p50") (p50_ms (List.map (fun q -> float_of_int q.q_lat_ns) mine)) "ms";
      metric r ("dispatch." ^ name ^ "_ms_p50")
        (p50_ms (List.map (fun q -> float_of_int q.q_dispatch_ns) mine))
        "ms")
    Streams.classes;
  metric r "serve.wait_ms_p50"
    (p50_ms (List.map (fun q -> float_of_int (q.q_lat_ns - q.q_dispatch_ns)) qs))
    "ms";
  metric r "server.requests" requests "count";
  metric r "server.coalesced" coalesced "count";
  metric r "server.cache_hits" cache_hits "count";
  metric r "server.coalesced_ratio" (coalesced /. requests) "ratio";
  metric r "serve.client_qps" (float_of_int (List.length qs) /. wall) "1/s";
  Probes.overhead r sp ~pass_s:(Spans.total_s sp "serve.client" +. Spans.total_s sp "serve.replay");
  finish r ~attempted:(List.length qs) ~failed:(not_ok + mismatches + stray warm clean)

let run ~sp ~seed ~seconds ~startup_s fx =
  let r = report () in
  note r "connections" (string_of_int n_conns);
  note r "loop" "closed";
  note r "mix" "35% ssta analyze, 15% scalar analyze, 30% path_mc n=40, 20% retime c432";
  note r "config" "Server.default_config";
  mkdir_p work_dir;
  match sp with
  | None ->
    (* Each repetition is a whole daemon start; all but the last are
       stopped again. *)
    let env, setup_s =
      setups ~startup_s ~reps:2 ~release:(fun (d, _) -> ignore (stop d : bool)) (start fx)
    in
    untraced r ~seed ~seconds ~setup_s fx env
  | Some sp -> traced r sp ~seed fx (start fx ())
