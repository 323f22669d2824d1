(* End-to-end benchmark: four workloads (charlib, signoff, eco, serve),
   each run in a fresh child process of this binary, with per-layer
   attribution from a separate traced pass.

     dune exec --profile release bench/e2e/e2e.exe -- --seed N [workload...]
     dune exec --profile release bench/e2e/e2e.exe -- trace --seed N [workload...]
     dune exec --profile release bench/e2e/e2e.exe -- compare DIR_A DIR_B
     dune exec --profile release bench/e2e/e2e.exe -- golden

   See bench/e2e/README.md for the workloads, the metrics and how the
   bounds were calibrated. *)

open Common
module Executor = Nsigma_exec.Executor
module Server = Nsigma_server.Server
module Bounds = Nsigma_e2e.Bounds
module Pct = Nsigma_e2e.Pct

let workloads = [ "charlib"; "signoff"; "eco"; "serve" ]

(* Timed-phase lengths sized for a 2-core machine (about two minutes
   for all four); --seconds overrides them. *)
let default_seconds = function
  | "charlib" | "signoff" -> 30.0
  | "eco" -> 27.0
  | _ -> 25.0

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit code) fmt

let usage =
  "usage: e2e.exe [trace] [--seed N] [--seconds S] [--trace 0|1] [--workload W]... [W...]\n\
  \       e2e.exe compare DIR_A DIR_B\n\
  \       e2e.exe golden\n\
   workloads: charlib, signoff, eco, serve (default: all)"

(* ---- children ---- *)

(* Children run with every NSIGMA_* setting (jobs, kernel, sampling,
   provider cache, metrics, trace, log) and OCAMLRUNPARAM removed: the
   benchmark passes the settings it needs explicitly. *)
let scrubbed_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"NSIGMA_" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> Array.of_list

let settings =
  "NSIGMA_* and OCAMLRUNPARAM scrubbed; charlib: domain_pool jobs=2; signoff/eco: \
   Executor.default (sequential); serve: Server.default_config; kernel fast; \
   sampling mc; provider store off; Metrics and Trace off"

let run_child args =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (scrubbed_env ()) Unix.stdin
      Unix.stdout Unix.stderr
  in
  wait_pid pid = Unix.WEXITED 0

(* The fixture belongs to this binary: a rebuilt library gets its own. *)
let fixture_dir () =
  Filename.concat work_dir ("fixture-" ^ Digest.to_hex (Digest.file Sys.executable_name))

let ensure_fixture () =
  let dir = fixture_dir () in
  if not (Sys.file_exists (snd (fixture_files dir))) then begin
    Printf.printf "[fixture] characterising %d cells x 2 edges, mc=%d, into %s\n%!"
      (List.length all_cells) fixture_mc dir;
    if not (run_child [ "__fixture"; dir ]) then die 1 "fixture characterisation failed"
  end;
  dir

let fixture_mode dir =
  mkdir_p dir;
  let lib = characterize_all ~exec:(Executor.domain_pool ~jobs ()) all_cells in
  let lvf, md5 = fixture_files dir in
  Library.save lib (lvf ^ ".tmp");
  Sys.rename (lvf ^ ".tmp") lvf;
  write_file md5 (tables_digest lib)

let serve_mode socket lvf =
  let lib = Library.load tech lvf in
  Server.run (Server.create (Server.default_config tech lib)) ~socket ()

let trace_base workload seed =
  Filename.concat work_dir (Printf.sprintf "trace-%s-s%d" workload seed)

let child_mode ~workload ~seed ~seconds ~trace ~fixture ~out ~t_spawn =
  let startup_s = secs (now_ns () - t_spawn) in
  let fx = load_fixture fixture in
  let sp = if trace then Some (Spans.create ()) else None in
  let res =
    match workload with
    | "charlib" -> W_charlib.run ~sp ~seconds ~startup_s fx
    | "signoff" -> W_signoff.run ~sp ~seconds ~startup_s fx
    | "eco" -> W_eco.run ~sp ~seed ~seconds ~startup_s fx
    | "serve" -> W_serve.run ~sp ~seed ~seconds ~startup_s fx
    | w -> die 2 "unknown workload %S" w
  in
  Option.iter
    (fun sp ->
      let base = trace_base workload seed in
      write_file (base ^ ".json") (Spans.chrome_json sp);
      write_file (base ^ ".folded") (String.concat "\n" (Spans.folded sp) ^ "\n"))
    sp;
  Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc (res : result) [])

(* ---- the record envelope ---- *)

let git args =
  let ic = Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (String.trim out)
  | _ -> None

(* Only a checkout with its own .git is asked: git would otherwise
   search the directories above it. *)
let commit () =
  if not (Sys.file_exists ".git") then ("unknown", false)
  else
    match git [ "rev-parse"; "HEAD" ] with
    | None -> ("unknown", false)
    | Some head ->
      let dirty =
        match git [ "status"; "--porcelain"; "--untracked-files=no" ] with
        | Some s -> s <> ""
        | None -> false
      in
      (head, dirty)

let value res name =
  List.find_map (fun (n, v, _) -> if String.equal n name then Some v else None) res.metrics

let write_record ~workload ~seed ~seconds ~trace ~fixture res =
  let head, dirty = commit () in
  let fields =
    [
      ("workload", P.Jstr workload);
      ("seed", P.Jnum (float_of_int seed));
      ("seconds", P.Jnum seconds);
      ("trace", P.Jbool trace);
      ("commit", P.Jstr head);
      ("dirty", P.Jbool dirty);
      ("profile", P.Jstr Build_profile.profile);
      ("cores", P.Jnum (float_of_int (Domain.recommended_domain_count ())));
      ("fixture_digest", P.Jstr (load_fixture fixture).digest);
      ("settings", P.Jstr settings);
      ("attempted", P.Jnum (float_of_int res.attempted));
      ("failed", P.Jnum (float_of_int res.failed));
    ]
    @ List.map (fun (k, v) -> ("param." ^ k, P.Jstr v)) res.notes
    @ List.map (fun (n, v, _) -> (n, P.Jnum v)) res.metrics
  in
  let path =
    Filename.concat (Filename.concat work_dir "records")
      (Printf.sprintf "%.0f-%d-%s-s%d%s.json" (Unix.time ()) (Unix.getpid ()) workload seed
         (if trace then "-trace" else ""))
  in
  write_file path (P.to_line fields ^ "\n");
  path

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The contract line: every end-to-end metric (untraced) or every
   per-layer metric (traced).  A per-layer count absent from a result
   is a layer the workload never reached: zero. *)
let result_json ~trace res =
  let metrics =
    if trace then
      List.map (fun (n, u) -> (n, u, Option.value (value res n) ~default:0.0)) Bounds.per_layer
    else
      List.map
        (fun s ->
          match value res s.Bounds.name with
          | Some v -> (s.Bounds.name, s.Bounds.unit_, v)
          | None -> die 1 "workload did not report %s" s.Bounds.name)
        Bounds.end_to_end
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (res.failed = 0) res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (json_number v) u)
          metrics))

let print_result workload res =
  List.iter (fun (k, v) -> Printf.printf "[%s] %-28s %s\n" workload k v) res.notes;
  List.iter
    (fun (n, v, u) -> Printf.printf "[%s] %-28s %16.6g %s\n" workload n v u)
    res.metrics;
  Printf.printf "[%s] ops %d, failed %d\n%!" workload res.attempted res.failed

(* Run a child that marshals its result to the file named in its
   arguments. *)
let child_result ~what args =
  let out = Filename.concat work_dir (Printf.sprintf "result-%d-%s.bin" (Unix.getpid ()) what) in
  if not (run_child (args out)) then die 1 "%s failed to run" what;
  let res : result = In_channel.with_open_bin out Marshal.from_channel in
  Sys.remove out;
  res

let run_workloads ~seed ~seconds ~trace names =
  let fixture = ensure_fixture () in
  let head, dirty = commit () in
  Printf.printf "e2e: commit %s%s, profile %s, %d cores, seed %d%s\n%!" head
    (if dirty then " (dirty)" else "")
    Build_profile.profile (Domain.recommended_domain_count ()) seed
    (if trace then ", traced" else "");
  let lines =
    List.map
      (fun workload ->
        let seconds = Option.value seconds ~default:(default_seconds workload) in
        let res =
          child_result ~what:workload (fun out ->
              [
                "__child"; workload; string_of_int seed; Printf.sprintf "%h" seconds;
                string_of_bool trace; fixture; out; string_of_int (now_ns ());
              ])
        in
        let res =
          if not trace then res
          else
            let probes = child_result ~what:"probes" (fun out -> [ "__probes"; fixture; out ]) in
            { res with metrics = res.metrics @ probes.metrics }
        in
        print_result workload res;
        let path = write_record ~workload ~seed ~seconds ~trace ~fixture res in
        Printf.printf "[%s] record %s\n%!" workload path;
        if trace then Printf.printf "[%s] spans %s.{json,folded}\n%!" workload (trace_base workload seed);
        result_json ~trace res)
      names
  in
  List.iter print_endline lines

(* ---- compare: two sets of records against the bounds ---- *)

let read_records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> P.parse_line (read_file (Filename.concat dir f)))

let str fields k = match P.find fields k with Some (P.Jstr s) -> s | _ -> ""
let num fields k = match P.find fields k with Some (P.Jnum v) -> Some v | _ -> None
let is_trace fields = P.find fields "trace" = Some (P.Jbool true)

let exact_counts =
  [ "kernel.evals"; "stat_max.joins"; "incr.dirty_gates"; "incr.cutoff_hits"; "server.requests" ]

let compare_mode dir_a dir_b =
  let a = read_records dir_a and b = read_records dir_b in
  let ok = ref true in
  List.iter
    (fun workload ->
      let runs set = List.filter (fun r -> str r "workload" = workload && not (is_trace r)) set in
      let ra = runs a and rb = runs b in
      if ra <> [] && rb <> [] then
        List.iter
          (fun (s : Bounds.spec) ->
            let vals set = Array.of_list (List.filter_map (fun r -> num r s.Bounds.name) set) in
            let va = vals ra and vb = vals rb in
            if Array.length va >= 2 && Array.length vb >= 2 then begin
              let ma = Pct.median (Pct.sorted va) and mb = Pct.median (Pct.sorted vb) in
              let spread_ok v = s.Bounds.name = "setup_s" || Pct.spread v <= s.Bounds.bound in
              let good = Bounds.within s ~base:ma ~cand:mb && spread_ok va && spread_ok vb in
              if not good then ok := false;
              Printf.printf "%-8s %-12s A %12.6g (spread %5.1f%%)  B %12.6g (spread %5.1f%%)  %+6.1f%% of bound %.0f%%  %s\n"
                workload s.Bounds.name ma (100.0 *. Pct.spread va) mb (100.0 *. Pct.spread vb)
                (100.0 *. Bounds.worsening s ~base:ma ~cand:mb)
                (100.0 *. s.Bounds.bound)
                (if good then "ok" else "FAIL")
            end)
          Bounds.end_to_end;
      let traces = List.filter (fun r -> str r "workload" = workload && is_trace r) (a @ b) in
      List.iter
        (fun name ->
          let by_seed = List.map (fun r -> (num r "seed", num r name)) traces in
          List.iter
            (fun (seed, v) ->
              if List.exists (fun (s, v') -> s = seed && v' <> v) by_seed then begin
                ok := false;
                Printf.printf "%-8s %-12s differs between traced runs of one seed: FAIL\n" workload name
              end)
            by_seed)
        exact_counts)
    workloads;
  if not !ok then exit 1

(* ---- golden: digests of the seed-independent outputs ---- *)

let golden_mode path =
  let fx = load_fixture (ensure_fixture ()) in
  let charlib = tables_digest (characterize_all ~exec:(Executor.domain_pool ~jobs ()) all_cells) in
  let env = W_signoff.setup fx () in
  let signoff =
    List.map
      (fun name -> ("signoff." ^ name, W_signoff.digest (W_signoff.circuit env name)))
      W_signoff.circuits
  in
  let srv = Server.create (Server.default_config tech env.W_signoff.lib) in
  let warm =
    Array.mapi
      (fun session lines -> List.map (fun l -> (l, Server.handle srv ~session l)) lines)
      (W_serve.warmup_lines ())
  in
  let entries =
    (("charlib.tables", charlib) :: signoff) @ [ ("serve.warmup", W_serve.warm_digest warm) ]
  in
  write_file path
    ("{\n"
    ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %S" k v) entries)
    ^ "\n}\n");
  Printf.printf "wrote %s\n" path

(* ---- command line ---- *)

let parse_run args =
  let seed = ref 1 and seconds = ref None and trace = ref false and names = ref [] in
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> die 2 "%s: not an integer: %S" flag v in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> die 2 "--seconds: not a positive number: %S" v);
      go rest
    | "--trace" :: v :: rest ->
      trace := int_arg "--trace" v <> 0;
      go rest
    | "--workload" :: w :: rest ->
      workload w;
      go rest
    | w :: rest when not (String.starts_with ~prefix:"-" w) ->
      workload w;
      go rest
    | a :: _ -> die 2 "unexpected argument %S\n%s" a usage
  and workload w =
    if not (List.mem w workloads) then die 2 "unknown workload %S\n%s" w usage;
    names := !names @ [ w ]
  in
  go args;
  (!seed, !seconds, !trace, if !names = [] then workloads else !names)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "__serve"; socket; lvf ] -> serve_mode socket lvf
  | [ "__fixture"; dir ] -> fixture_mode dir
  | [ "__golden"; path ] -> golden_mode path
  | [ "__probes"; fixture; out ] ->
    let res = Probes.run (load_fixture fixture) in
    Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc (res : result) [])
  | [ "__child"; workload; seed; seconds; trace; fixture; out; t_spawn ] ->
    child_mode ~workload ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
      ~trace:(bool_of_string trace) ~fixture ~out ~t_spawn:(int_of_string t_spawn)
  | args -> (
    (* -opaque (the dev profile) blocks cross-module inlining: such a
       build's numbers are not comparable with anything. *)
    if Build_profile.profile <> "release" then
      die 2 "built in the %S profile; run with `dune exec --profile release`" Build_profile.profile;
    match args with
    | [ ("-h" | "--help" | "help") ] -> print_endline usage
    | [ "compare"; a; b ] -> compare_mode a b
    | [ "golden" ] ->
      if not (run_child [ "__golden"; Filename.concat (Filename.concat "bench" "e2e") "golden.json" ])
      then die 1 "golden failed"
    | "trace" :: rest ->
      let seed, seconds, _, names = parse_run rest in
      run_workloads ~seed ~seconds ~trace:true names
    | rest ->
      let seed, seconds, trace, names = parse_run rest in
      run_workloads ~seed ~seconds ~trace names)
