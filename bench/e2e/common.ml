(* Shared pieces of the end-to-end benchmark: the technology and cell
   set of the fixture, clocks, the working directory, digests of the
   outputs the correctness gates compare, and the per-workload result
   a child process hands back to its parent. *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module Ch = Nsigma_liberty.Characterize
module Library = Nsigma_liberty.Library
module Moments = Nsigma_stats.Moments
module Ssta = Nsigma_sta.Ssta
module Engine_core = Nsigma_sta.Engine_core
module Provider = Nsigma_sta.Provider
module P = Nsigma_server.Protocol
module Spans = Nsigma_e2e.Spans

let tech = T.with_vdd T.default_28nm 0.6

(* The full library: 10 kinds x 4 strengths, both edges. *)
let all_cells =
  List.concat_map
    (fun k -> List.map (fun s -> Cell.make k ~strength:s) Cell.standard_strengths)
    Cell.all_kinds

let fixture_mc = 500
let jobs = 2

(* The characterisation settings of the fixture and of charlib: fast
   kernel, plain Monte-Carlo.  Table [index] of characterize_all uses
   seed 1 + 17 * index. *)
let characterize_table ~exec ~index cell ~edge =
  Ch.characterize ~n_mc:fixture_mc ~seed:(1 + (index * 17)) ~exec
    ~kernel:Nsigma_spice.Cell_sim.Fast ~sampling:Nsigma_stats.Sampler.Mc tech cell ~edge

let characterize_all ~exec cells =
  Library.characterize_all ~n_mc:fixture_mc ~exec ~kernel:Nsigma_spice.Cell_sim.Fast
    ~sampling:Nsigma_stats.Sampler.Mc tech cells

let now_ns = Nsigma_obs.Monotonic.now_ns
let secs ns = float_of_int ns *. 1e-9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs (now_ns () - t0))

(* Everything the benchmark writes lives under the checkout's build
   directory. *)
let work_dir = Filename.concat "_build" "e2e"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
           else None)
    |> Option.value ~default:nan

(* ---- digests (full float bits, so "equal" means bit-identical) ---- *)

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let tables_digest lib =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (cell, edge) ->
      let t = Library.find lib cell ~edge in
      Buffer.add_string b
        (Printf.sprintf "%s/%s/%d;" (Cell.name cell)
           (match edge with `Rise -> "r" | `Fall -> "f")
           t.Ch.n_mc);
      Array.iter (add_float b) t.Ch.slews;
      Array.iter (add_float b) t.Ch.loads;
      Array.iter
        (Array.iter (fun (p : Ch.point) ->
             let m = p.Ch.moments in
             List.iter (add_float b)
               [ p.Ch.slew; p.Ch.load; m.Moments.mean; m.Moments.std;
                 m.Moments.skewness; m.Moments.kurtosis; p.Ch.mean_out_slew ];
             Array.iter (add_float b) p.Ch.quantiles))
        t.Ch.points)
    (Library.cells lib);
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_dist b (d : Ssta.dist) =
  add_float b d.Ssta.d_mean;
  Array.iter (add_float b) d.Ssta.d_a;
  Array.iter (add_float b) d.Ssta.d_b;
  add_float b d.Ssta.d_var_l;
  add_float b d.Ssta.d_m3_l;
  add_float b d.Ssta.d_m4_l

let strings_digest l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* ---- golden digests of the seed-independent outputs ---- *)

let golden =
  lazy
    (match P.parse_line Golden_data.json with
    | fields -> fields
    | exception P.Protocol_error msg -> failwith ("golden.json: " ^ msg))

let golden_matches key digest =
  match P.find (Lazy.force golden) key with
  | Some (P.Jstr d) -> String.equal d digest
  | _ -> false

(* ---- the fixture: the full library, characterised once ---- *)

type fixture = { lvf : string; digest : string }

let fixture_files dir = (Filename.concat dir "lib.lvf", Filename.concat dir "tables.md5")

let load_fixture dir =
  let lvf, md5 = fixture_files dir in
  { lvf; digest = String.trim (read_file md5) }

let load_library fx = Library.load tech fx.lvf

(* ---- what a workload child hands back ---- *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : (string * string) list;  (** parameters and levels, for the record *)
}

(* Metric collector shared by a workload's code paths. *)
type report = {
  mutable r_metrics : (string * float * string) list;
  mutable r_notes : (string * string) list;
}

let report () = { r_metrics = []; r_notes = [] }
let metric r name value unit_ = r.r_metrics <- (name, value, unit_) :: r.r_metrics
let note r key value = r.r_notes <- (key, value) :: r.r_notes

let finish r ~attempted ~failed =
  { attempted; failed; metrics = List.rev r.r_metrics; notes = List.rev r.r_notes }

(* End-to-end metrics shared by every workload: throughput as the
   median rate over equal chunks of the timed phase (one interference
   burst moves one chunk, not the result), median and tail op latency
   with the sample count, set-up time and peak memory. *)
let e2e_metrics r ~rates ~unit_of_work ~lat_s ?tail_cap ~setup_s ~rss_mb () =
  let s = Nsigma_e2e.Pct.sorted (Array.map (fun x -> x *. 1e3) lat_s) in
  let tail_label, tail = Nsigma_e2e.Pct.tail ?cap:tail_cap s in
  metric r "throughput" (Nsigma_e2e.Pct.median (Nsigma_e2e.Pct.sorted rates)) "1/s";
  metric r "op_p50_ms" (Nsigma_e2e.Pct.median s) "ms";
  metric r "op_tail_ms" tail "ms";
  metric r "setup_s" setup_s "s";
  metric r "peak_rss_mb" rss_mb "MB";
  note r "throughput_unit" (unit_of_work ^ "/s");
  note r "throughput_chunks" (string_of_int (Array.length rates));
  note r "op_samples" (string_of_int (Array.length s));
  note r "op_tail_level" tail_label

(* Set-up time: process start to the first timed op, with the
   in-process part taken as the median of [reps] set-ups. *)
let setups ?(release = ignore) ~startup_s ~reps f =
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    (* Release the previous set-up before the next, untimed, so the
       repetitions neither pile up in the peak RSS nor pay each other's
       collections. *)
    Option.iter release !last;
    last := None;
    Gc.compact ();
    let v, dt = time f in
    times.(i) <- dt;
    last := Some v
  done;
  Gc.compact ();
  (Option.get !last, startup_s +. Nsigma_e2e.Pct.median (Nsigma_e2e.Pct.sorted times))

(* Run op [i] for i = 0, 1, ... until [seconds] of op time have
   accumulated and the op count is a whole number of [round]s.  [check]
   runs untimed after each op and returns the work the op did and
   whether its output was correct; [after_first] runs untimed once,
   after op 0.  Returns per-op latencies, per-op work and the failures. *)
let timed_loop ?(round = 1) ?(after_first = ignore) ~seconds ~op ~check () =
  let lats = ref [] and works = ref [] and busy = ref 0.0 and failed = ref 0 in
  let n = ref 0 in
  while !busy < seconds || !n mod round <> 0 do
    let t0 = now_ns () in
    let v = op !n in
    let dt = secs (now_ns () - t0) in
    let w, ok = check v in
    if !n = 0 then after_first ();
    lats := dt :: !lats;
    works := w :: !works;
    busy := !busy +. dt;
    if not ok then incr failed;
    incr n
  done;
  (Array.of_list (List.rev !lats), Array.of_list (List.rev !works), !failed)

(* Work per second of each run of [size] consecutive ops. *)
let chunk_rates ~size lats works =
  Array.init (Array.length lats / size) (fun c ->
      let w = ref 0.0 and t = ref 0.0 in
      for i = c * size to ((c + 1) * size) - 1 do
        w := !w +. works.(i);
        t := !t +. lats.(i)
      done;
      !w /. !t)

(* ---- traced wrappers around the SSTA provider and algebra ---- *)

(* Time every provider closure call as a hot span.  The wrapped closures
   forward their arguments untouched, so traced results stay
   bit-identical to untraced ones. *)
let traced_provider sp (p : Ssta.provider) : Ssta.provider =
  {
    p with
    Engine_core.m_cell_delay =
      (fun g ~edge ~in_net ~in_edge ~input_slew ~load_cap ->
        Spans.hot sp "provider.cell_delay" (fun () ->
            p.Engine_core.m_cell_delay g ~edge ~in_net ~in_edge ~input_slew ~load_cap));
    m_cell_out_slew =
      (fun g ~edge ~in_net ~in_edge ~input_slew ~load_cap ->
        Spans.hot sp "provider.cell_out_slew" (fun () ->
            p.Engine_core.m_cell_out_slew g ~edge ~in_net ~in_edge ~input_slew
              ~load_cap));
    m_wire_delay =
      (fun ~net ~driver ~sink ~tree ~tap ->
        Spans.hot sp "provider.wire_delay" (fun () ->
            p.Engine_core.m_wire_delay ~net ~driver ~sink ~tree ~tap));
    m_wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        Spans.hot sp "provider.wire_slew_degrade" (fun () ->
            p.Engine_core.m_wire_slew_degrade ~wire_delay ~slew_at_root));
  }

let traced_algebra sp (a : (Ssta.delay, Ssta.dist) Engine_core.algebra) =
  {
    a with
    Engine_core.add = (fun x d -> Spans.hot sp "ssta.add" (fun () -> a.Engine_core.add x d));
    join = (fun x y -> Spans.hot sp "stat_max.join" (fun () -> a.Engine_core.join x y));
  }

let provider_cell = [ "provider.cell_delay"; "provider.cell_out_slew" ]
let provider_wire = [ "provider.wire_delay"; "provider.wire_slew_degrade" ]

let sum f names = List.fold_left (fun acc n -> acc +. f n) 0.0 names

(* Calls of the spans named in [names], as a metric value. *)
let calls sp names = float_of_int (List.fold_left (fun a n -> a + Spans.calls sp n) 0 names)
