(* Tests for the timing server: protocol codec and framings, the LRU of
   retained contexts, request dispatch on a small characterised library,
   per-session retime semantics, bit-identity of replayed sequences, and
   a socket smoke against a real daemon process. *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module N = Nsigma_netlist.Netlist
module Bm = Nsigma_netlist.Benchmarks
module Edit = Nsigma_netlist.Edit
module Executor = Nsigma_exec.Executor
module P = Nsigma_server.Protocol
module Lru = Nsigma_server.Lru
module Server = Nsigma_server.Server
module Client = Nsigma_server.Client

let tech = T.with_vdd T.default_28nm 0.6

(* The shared SSTA test library (same path and parameters as
   test_ssta / test_incremental, so the cache is built once). *)
let library =
  lazy
    (let cells =
       List.concat_map
         (fun k ->
           [ Cell.make k ~strength:1; Cell.make k ~strength:2;
             Cell.make k ~strength:4; Cell.make k ~strength:8 ])
         Cell.all_kinds
     in
     Library.load_or_characterize ~n_mc:250
       ~slews:[| 10e-12; 50e-12; 150e-12; 300e-12 |]
       ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nsigma_test_ssta.lvf")
       tech cells)

let server () = Server.create (Server.default_config tech (Lazy.force library))

let parse_resp line = P.parse_line line

let is_ok fields = P.find fields "ok" = Some (P.Jbool true)

let check_ok msg line =
  let fields = parse_resp line in
  if not (is_ok fields) then Alcotest.failf "%s: not ok: %s" msg line;
  fields

(* ---------- protocol ---------- *)

let test_protocol_roundtrip () =
  let line =
    {|{"id": 7, "op": "analyze", "frac": 0.125, "flag": true, "off": false, "nothing": null, "s": "a\"b\\c"}|}
  in
  let fields = P.parse_line line in
  Alcotest.(check string) "emit inverts parse, order preserved" line
    (P.to_line fields);
  Alcotest.(check int) "int field" 7 (P.int_field fields "id");
  Alcotest.(check (float 0.0)) "num field" 0.125 (P.num_field fields "frac");
  Alcotest.(check string) "escaped string field" "a\"b\\c"
    (P.str_field fields "s");
  Alcotest.(check bool) "null visible" true
    (P.find fields "nothing" = Some P.Jnull)

let test_protocol_float_bit_roundtrip () =
  let xs = [ 1.0 /. 3.0; Float.pi; 1e-13; -0.0; 42.0; 1.5e300 ] in
  List.iter
    (fun x ->
      let line = P.to_line [ ("x", P.Jnum x) ] in
      let back = P.num_field (P.parse_line line) "x" in
      if Int64.bits_of_float back <> Int64.bits_of_float x then
        Alcotest.failf "float %h not bit-identical through %s" x line)
    xs

let test_protocol_rejects () =
  let rejects s =
    match P.parse_line s with
    | _ -> Alcotest.failf "accepted malformed %S" s
    | exception P.Protocol_error _ -> ()
  in
  rejects "";
  rejects "{";
  rejects {|{"a": 1|};
  rejects {|{"a": 1} trailing|};
  rejects {|{"a": {"nested": 1}}|};
  rejects {|{"a": [1, 2]}|};
  rejects {|{"a": 1, "a": 2}|};
  rejects {|{"a": tru}|}

let test_protocol_signature () =
  let a = P.parse_line {|{"id": 1, "op": "analyze", "circuit": "c432"}|} in
  let b = P.parse_line {|{"circuit": "c432", "op": "analyze", "id": 99}|} in
  let c = P.parse_line {|{"id": 1, "op": "analyze", "circuit": "c1355"}|} in
  Alcotest.(check string) "id and order ignored" (P.signature a)
    (P.signature b);
  Alcotest.(check bool) "different question, different signature" true
    (P.signature a <> P.signature c)

let feed_string dec s =
  let b = Bytes.of_string s in
  P.feed dec b (Bytes.length b)

let test_framing_jsonl_partial_feeds () =
  let dec = P.decoder P.Jsonl in
  let wire = P.encode P.Jsonl {|{"id": 1}|} ^ "{\"id\": 2}\r\n" in
  String.iter
    (fun c ->
      (* byte-at-a-time: messages complete only at their newline *)
      feed_string dec (String.make 1 c))
    (String.sub wire 0 (String.length wire - 1));
  Alcotest.(check (option string)) "first message" (Some {|{"id": 1}|})
    (P.next dec);
  Alcotest.(check (option string)) "second not complete yet" None (P.next dec);
  Alcotest.(check bool) "partial bytes pending" true (P.pending dec);
  feed_string dec "\n";
  Alcotest.(check (option string)) "CR stripped" (Some {|{"id": 2}|})
    (P.next dec);
  Alcotest.(check bool) "drained" false (P.pending dec)

let test_framing_length_prefixed () =
  let msg = "{\"s\": \"embedded\nnewline\"}" in
  let wire = P.encode P.Length_prefixed msg in
  Alcotest.(check string) "netstring shape"
    (Printf.sprintf "%d:%s" (String.length msg) msg)
    wire;
  let dec = P.decoder P.Length_prefixed in
  let half = String.length wire / 2 in
  feed_string dec (String.sub wire 0 half);
  Alcotest.(check (option string)) "half a frame" None (P.next dec);
  feed_string dec (String.sub wire half (String.length wire - half));
  feed_string dec (P.encode P.Length_prefixed {|{"id": 2}|});
  Alcotest.(check (option string)) "payload with newline intact" (Some msg)
    (P.next dec);
  Alcotest.(check (option string)) "second frame" (Some {|{"id": 2}|})
    (P.next dec);
  let bad = P.decoder P.Length_prefixed in
  feed_string bad "xx:oops";
  (match P.next bad with
  | _ -> Alcotest.fail "malformed length prefix accepted"
  | exception P.Protocol_error _ -> ());
  Alcotest.(check bool) "framing names roundtrip" true
    (P.framing_of_name (P.framing_name P.Jsonl) = P.Jsonl
    && P.framing_of_name (P.framing_name P.Length_prefixed)
       = P.Length_prefixed)

(* The decoder's frame cap, over both framings and any read boundaries:
   a message of exactly [P.max_frame] bytes decodes (with the frame
   behind it), one byte more is a [Protocol_error] before any message
   comes out.  Every chunk is drained the way the daemon drains. *)
let prop_frame_cap =
  QCheck.Test.make ~count:60 ~name:"frame cap over random splits"
    QCheck.(
      triple bool (int_bound 2)
        (list_of_size (Gen.int_bound 6) (float_bound_inclusive 1.0)))
    (fun (jsonl, size_class, cuts) ->
      let framing = if jsonl then P.Jsonl else P.Length_prefixed in
      let size =
        match size_class with
        | 0 -> 1 + (List.length cuts * 37)
        | 1 -> P.max_frame
        | _ -> P.max_frame + 1
      in
      let msg = String.make size 'x' in
      let wire = P.encode framing msg ^ P.encode framing "{}" in
      let len = String.length wire in
      let bounds =
        List.sort_uniq compare
          (0 :: len :: List.map (fun f -> int_of_float (f *. float_of_int len)) cuts)
      in
      let dec = P.decoder framing in
      let got = ref [] in
      let rec drain () =
        match P.next dec with
        | Some m ->
          got := m :: !got;
          drain ()
        | None -> ()
      in
      let rec go = function
        | a :: (b :: _ as rest) ->
          feed_string dec (String.sub wire a (b - a));
          drain ();
          go rest
        | _ -> ()
      in
      match go bounds with
      | () -> size <= P.max_frame && List.rev !got = [ msg; "{}" ]
      | exception P.Protocol_error _ -> size > P.max_frame && !got = [])

(* ---------- LRU ---------- *)

let test_lru_eviction_order () =
  (match Lru.create ~max:0 with
  | _ -> Alcotest.fail "max < 1 must raise"
  | exception Invalid_argument _ -> ());
  let l = Lru.create ~max:2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "find touches" (Some 1) (Lru.find l "a");
  Lru.add l "c" 3;
  Alcotest.(check bool) "LRU (b) evicted, touched (a) kept" true
    (Lru.mem l "a" && (not (Lru.mem l "b")) && Lru.mem l "c");
  Alcotest.(check int) "bounded" 2 (Lru.length l);
  Alcotest.(check (list string)) "keys MRU first" [ "c"; "a" ] (Lru.keys l);
  Lru.add l "c" 4;
  Alcotest.(check (option int)) "replace in place" (Some 4) (Lru.find l "c");
  Alcotest.(check int) "replace does not grow" 2 (Lru.length l)

(* ---------- dispatch ---------- *)

let test_ping_and_stats () =
  let module Metrics = Nsigma_obs.Metrics in
  let s = server () in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let misc () =
    match
      List.assoc_opt "server.latency.misc"
        (Metrics.snapshot ()).Metrics.s_histograms
    with
    | Some h -> h.Metrics.h_count
    | None -> 0
  in
  let requests0 = Metrics.find_counter "server.requests" and misc0 = misc () in
  let ping = check_ok "ping" (Server.handle s ~session:0 {|{"id": 1, "op": "ping"}|}) in
  Alcotest.(check bool) "id echoed" true
    (P.find ping "id" = Some (P.Jnum 1.0));
  ignore (Server.handle s ~session:0 {|{"id": 2, "op": "ping"}|} : string);
  Alcotest.(check (pair int int)) "server.requests and latency histogram"
    (2, 2)
    (Metrics.find_counter "server.requests" - requests0, misc () - misc0);
  Metrics.set_enabled was;
  let stats =
    check_ok "stats" (Server.handle s ~session:0 {|{"id": 3, "op": "stats"}|})
  in
  Alcotest.(check bool) "requests counted" true
    (P.int_field stats "requests" >= 3);
  Alcotest.(check int) "no errors" 0 (P.int_field stats "errors")

let test_analyze_ssta_deterministic_and_cached () =
  let s = server () in
  let line = {|{"id": 4, "op": "analyze", "circuit": "c432-small"}|} in
  let r1 = Server.handle s ~session:0 line in
  let fields = check_ok "analyze" r1 in
  let mean = P.num_field fields "mean_s" in
  let q3 = P.num_field fields "q_s" in
  Alcotest.(check bool) "positive mean" true (mean > 0.0);
  Alcotest.(check bool) "+3s above mean" true (q3 > mean);
  Alcotest.(check bool) "has wns/tns" true
    (P.find fields "wns_s" <> None && P.find fields "tns_s" <> None);
  let r2 = Server.handle s ~session:0 line in
  Alcotest.(check string) "warm answer is byte-identical" r1 r2;
  let stats =
    parse_resp (Server.handle s ~session:0 {|{"id": 5, "op": "stats"}|})
  in
  Alcotest.(check bool) "second hit the context cache" true
    (P.int_field stats "cache_hits" >= 1)

let test_analyze_scalar_and_path_mc () =
  let s = server () in
  let sc =
    check_ok "scalar"
      (Server.handle s ~session:0
         {|{"id": 6, "op": "analyze", "circuit": "ADD-small", "engine": "scalar"}|})
  in
  Alcotest.(check bool) "nominal delay" true (P.num_field sc "nominal_s" > 0.0);
  let mc =
    check_ok "path_mc"
      (Server.handle s ~session:0
         {|{"id": 7, "op": "path_mc", "circuit": "ADD-small", "n": 25}|})
  in
  Alcotest.(check int) "drew n samples" 25 (P.int_field mc "drawn");
  Alcotest.(check bool) "mc mean positive" true (P.num_field mc "mean_s" > 0.0)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_error_responses () =
  let s = server () in
  let err msg line needle =
    let fields = parse_resp (Server.handle s ~session:0 line) in
    Alcotest.(check bool) (msg ^ ": not ok") true
      (P.find fields "ok" = Some (P.Jbool false));
    let e = P.str_field fields "error" in
    if not (contains ~needle e) then
      Alcotest.failf "%s: error %S lacks %S" msg e needle;
    fields
  in
  ignore (err "unknown op" {|{"id": 1, "op": "frobnicate"}|} "unknown op");
  ignore
    (err "unknown circuit" {|{"id": 2, "op": "analyze", "circuit": "c9999"}|}
       "unknown circuit");
  ignore
    (err "bad edit" {|{"id": 3, "op": "retime", "circuit": "c432-small", "edit": "not json"}|}
       "");
  ignore
    (err "path_mc n above the bound"
       (Printf.sprintf {|{"id": 5, "op": "path_mc", "circuit": "c432-small", "n": %d}|}
          (Server.max_path_mc_n + 1))
       "at most");
  let bad = err "malformed line" "{oops" "" in
  Alcotest.(check bool) "unparsable request answers id null" true
    (P.find bad "id" = Some P.Jnull);
  (* the connection-level contract: errors never raise *)
  let stats = parse_resp (Server.handle s ~session:0 {|{"id": 4, "op": "stats"}|}) in
  Alcotest.(check bool) "errors counted" true (P.int_field stats "errors" >= 5)

let scale_edit_line ~id =
  (* Doubling one wire's RC on the pristine c432-small netlist: a
     small but bit-visible perturbation. *)
  let bm = List.hd Bm.small_variants in
  let nl = bm.Bm.generate () in
  let edit =
    Edit.Scale_wire
      { net = nl.N.gates.(0).N.output; r_scale = 2.0; c_scale = 2.0 }
  in
  Printf.sprintf
    {|{"id": %d, "op": "retime", "circuit": "c432-small", "max": "clark", "edit": %S}|}
    id (Edit.to_json nl edit)

let test_retime_session_semantics () =
  let s = server () in
  let analyze id =
    Printf.sprintf
      {|{"id": %d, "op": "analyze", "circuit": "c432-small", "max": "clark"}|}
      id
  in
  let pristine = Server.handle s ~session:2 (analyze 1) in
  ignore (check_ok "pristine analyze" pristine : (string * P.jvalue) list);
  let rt = check_ok "retime" (Server.handle s ~session:1 (scale_edit_line ~id:2)) in
  Alcotest.(check int) "first edit" 1 (P.int_field rt "edits");
  Alcotest.(check bool) "invalidation did work" true
    (P.int_field rt "invalidated" >= 1 && P.int_field rt "dirty" >= 1);
  let edited = Server.handle s ~session:1 (analyze 1) in
  Alcotest.(check bool) "editing session sees the edited context" true
    (edited <> pristine);
  let other = Server.handle s ~session:2 (analyze 1) in
  Alcotest.(check string) "other sessions still see pristine" pristine other;
  Server.drop_session s ~session:1;
  let after_drop = Server.handle s ~session:1 (analyze 1) in
  Alcotest.(check string) "dropped session is pristine again" pristine
    after_drop

let test_bit_identity_replay () =
  (* The determinism contract the bench and CI gates rely on: the same
     per-session request sequence through two independent servers
     yields byte-identical responses. *)
  let lines =
    [
      {|{"id": 1, "op": "ping"}|};
      {|{"id": 2, "op": "analyze", "circuit": "c432-small", "max": "clark"}|};
      {|{"id": 3, "op": "analyze", "circuit": "c432-small", "max": "moment"}|};
      {|{"id": 4, "op": "analyze", "circuit": "c432-small", "engine": "scalar"}|};
      {|{"id": 5, "op": "path_mc", "circuit": "c432-small", "n": 30}|};
      scale_edit_line ~id:6;
      {|{"id": 7, "op": "analyze", "circuit": "c432-small", "max": "clark"}|};
    ]
  in
  let run () =
    let s = server () in
    List.map (Server.handle s ~session:0) lines
  in
  List.iter2
    (Alcotest.(check string) "replay is byte-identical")
    (run ()) (run ())

(* ---------- daemon smoke ---------- *)

let test_daemon_socket_smoke () =
  (* Spawn this test binary in its hidden [__daemon] mode (fork+exec —
     never a bare fork once domains may have run), talk to it over the
     socket with the client codec, then SIGTERM and expect a clean
     drain. *)
  ignore (Lazy.force library : Library.t);
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsigma_test_server_%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "__daemon"; socket |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let finish () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  match
    let c = Client.connect ~retries:400 ~socket () in
    let ping = Client.request c {|{"id": 1, "op": "ping"}|} in
    let an =
      Client.request c
        {|{"id": 2, "op": "analyze", "circuit": "c432-small", "max": "clark"}|}
    in
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    Client.close c;
    (ping, an, status)
  with
  | ping, an, status ->
    ignore (check_ok "ping over the wire" ping : (string * P.jvalue) list);
    let fields = check_ok "analyze over the wire" an in
    Alcotest.(check bool) "distribution served" true
      (P.num_field fields "mean_s" > 0.0);
    Alcotest.(check bool) "SIGTERM drains to exit 0" true
      (status = Unix.WEXITED 0)
  | exception e ->
    finish ();
    raise e

(* A busy daemon whose client has gone must still honour SIGTERM
   promptly: pipeline several distinct (so not coalesced) long path_mc
   requests, close the connection while the first is computing, send
   SIGTERM, and expect exit 0 well before the pipelined work could have
   finished.  Without skipping requests from closed connections the
   daemon answered every one of them into the void first. *)
let path_mc_samples = 20000
let pipelined = 8

let test_daemon_sigterm_skips_closed_peer () =
  ignore (Lazy.force library : Library.t);
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsigma_test_server_busy_%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "__daemon"; socket |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let finish () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let line k n =
    Printf.sprintf {|{"id": %d, "op": "path_mc", "circuit": "c432-small", "n": %d}|} k n
  in
  match
    let c = Client.connect ~retries:400 ~socket () in
    (* A small request builds the circuit context; a full one then
       times one population, so the bound below scales with the
       machine. *)
    ignore (check_ok "context path_mc" (Client.request c (line 0 10)));
    let t0 = Unix.gettimeofday () in
    ignore (check_ok "timed path_mc" (Client.request c (line 0 path_mc_samples)));
    let one = Unix.gettimeofday () -. t0 in
    for k = 1 to pipelined do
      Client.send c (line k (path_mc_samples + k))
    done;
    (* Let the daemon admit the batch and start computing, then leave. *)
    Unix.sleepf (Float.min 0.5 (one /. 4.0));
    Client.close c;
    Unix.kill pid Sys.sigterm;
    let t1 = Unix.gettimeofday () in
    (* The in-flight request, a request's worth of slack and a second
       of process teardown; answering the whole pipeline would take
       [pipelined] of them. *)
    let bound = 1.0 +. (2.0 *. one) in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () -. t1 < bound ->
        Unix.sleepf 0.02;
        wait ()
      | 0, _ -> None
      | _, status -> Some status
    in
    (one, bound, wait ())
  with
  | one, bound, None ->
    finish ();
    Alcotest.failf
      "daemon still running %.2f s after SIGTERM with its client gone (one \
       request: %.2f s, %d pipelined)"
      bound one pipelined
  | _, _, Some status ->
    Alcotest.(check bool) "SIGTERM with a closed peer exits 0" true
      (status = Unix.WEXITED 0)
  | exception e ->
    finish ();
    raise e

(* Hidden daemon mode for the socket smoke: [test_server.exe __daemon
   SOCKET] serves the shared test library until SIGTERM. *)
let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "__daemon" then begin
    let srv = server () in
    Server.run srv ~socket:Sys.argv.(2) ();
    exit 0
  end

let () =
  Alcotest.run "nsigma_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse/emit roundtrip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "float bit roundtrip" `Quick
            test_protocol_float_bit_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_protocol_rejects;
          Alcotest.test_case "coalescing signature" `Quick
            test_protocol_signature;
          Alcotest.test_case "jsonl partial feeds" `Quick
            test_framing_jsonl_partial_feeds;
          Alcotest.test_case "length-prefixed framing" `Quick
            test_framing_length_prefixed;
          QCheck_alcotest.to_alcotest prop_frame_cap;
        ] );
      ("lru", [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order ]);
      ( "dispatch",
        [
          Alcotest.test_case "ping and stats" `Slow test_ping_and_stats;
          Alcotest.test_case "analyze ssta cached + deterministic" `Slow
            test_analyze_ssta_deterministic_and_cached;
          Alcotest.test_case "scalar and path_mc" `Slow
            test_analyze_scalar_and_path_mc;
          Alcotest.test_case "error responses" `Slow test_error_responses;
          Alcotest.test_case "retime session semantics" `Slow
            test_retime_session_semantics;
          Alcotest.test_case "bit-identity replay" `Slow
            test_bit_identity_replay;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket smoke" `Slow test_daemon_socket_smoke;
          Alcotest.test_case "SIGTERM skips closed peer" `Slow
            test_daemon_sigterm_skips_closed_peer;
        ] );
    ]
