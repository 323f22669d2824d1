(* eco: the SSTA layers of signoff used as many small writes instead of
   one full read.  One op is an Incremental.apply of one seed-drawn
   edit on c5315; set-up loads the library, attaches parasitics, builds
   the LVF handle (no store) and runs Incremental.init.  Incremental
   re-timing and per-net provider re-evaluation do the work; the full
   walk runs only in set-up. *)

open Common
module Bm = Nsigma_netlist.Benchmarks
module Design = Nsigma_sta.Design
module Incremental = Nsigma_sta.Incremental
module Edit = Nsigma_netlist.Edit
module Executor = Nsigma_exec.Executor
module Streams = Nsigma_e2e.Streams

let circuit = "c5315"

(* Edit counts after which the incremental report is compared with a
   from-scratch analysis; the end of the timed phase is always one. *)
let checkpoints = [ 250; 500 ]
let traced_edits = 150
let generate () = (Bm.find circuit).Bm.generate ()

let setup ?sp fx () =
  let lib = load_library fx in
  let design = Design.attach_parasitics tech (generate ()) in
  let handle = Ssta.lvf_handle ~exec:(Executor.default ()) ~store_dir:None tech lib design in
  let handle =
    match sp with
    | None -> handle
    | Some sp -> { handle with Ssta.h_provider = traced_provider sp handle.Ssta.h_provider }
  in
  let init () = Incremental.init tech handle design in
  let inc = match sp with None -> init () | Some sp -> Spans.span sp "incr.init" init in
  (lib, inc)

(* A twin design receives every edit without incremental re-timing; a
   fresh provider and a full pass over it must reproduce the
   incremental report bit for bit. *)
let scratch_matches lib inc twin =
  let provider = Ssta.lvf_provider ~store_dir:None tech lib twin in
  Incremental.reports_bit_identical (Incremental.report inc) (Ssta.analyze tech provider twin)

let apply inc edit =
  match Incremental.apply inc edit with
  | stats -> Some stats
  | exception Edit.Edit_error _ -> None

let untraced r ~seed ~seconds ~setup_s (lib, inc) =
  let stream = Streams.eco ~seed (generate ()) in
  let twin = Design.attach_parasitics tech (generate ()) in
  let pending = ref (Streams.next_edit stream) in
  let done_ = ref 0 and check_failures = ref 0 and rss_mb = ref nan in
  let lats, works, failed =
    timed_loop ~seconds ~round:Streams.round
      ~after_first:(fun () -> rss_mb := peak_rss_mb "self")
      ~op:(fun _ -> apply inc !pending)
      ~check:(fun stats ->
        (match Design.apply_edit twin !pending with
        | _ -> ()
        | exception Edit.Edit_error _ -> ());
        incr done_;
        pending := Streams.next_edit stream;
        if List.mem !done_ checkpoints && not (scratch_matches lib inc twin) then
          incr check_failures;
        (1.0, Option.is_some stats))
      ()
  in
  note r "peak_rss_end_mb" (Printf.sprintf "%.1f" (peak_rss_mb "self"));
  if (not (List.mem !done_ checkpoints)) && not (scratch_matches lib inc twin) then
    incr check_failures;
  e2e_metrics r ~rates:(chunk_rates ~size:Streams.round lats works) ~unit_of_work:"edits"
    ~lat_s:lats ~tail_cap:0.90 ~setup_s ~rss_mb:!rss_mb ();
  finish r ~attempted:(Array.length lats) ~failed:(failed + !check_failures)

let traced r sp ~seed (lib, inc) =
  let stream = Streams.eco ~seed (generate ()) in
  let edits = ref [] and failed = ref 0 in
  let dirty = ref 0 and inval = ref 0 and cutoffs = ref 0 in
  (* Provider calls of the edits alone, not of Incremental.init. *)
  let init_wire = calls sp provider_wire and init_cell = calls sp provider_cell in
  let (), phase_s =
    time (fun () ->
        for _ = 1 to traced_edits do
          let edit = Streams.next_edit stream in
          edits := edit :: !edits;
          match Spans.span sp "incr.apply" (fun () -> apply inc edit) with
          | Some s ->
            dirty := !dirty + s.Incremental.st_dirty;
            inval := !inval + s.Incremental.st_invalidated;
            cutoffs := !cutoffs + s.Incremental.st_cutoffs
          | None -> incr failed
        done)
  in
  let twin = Design.attach_parasitics tech (generate ()) in
  List.iter
    (fun e -> try ignore (Design.apply_edit twin e : int list) with Edit.Edit_error _ -> ())
    (List.rev !edits);
  if not (scratch_matches lib inc twin) then incr failed;
  let under = Spans.total_under_s sp ~ancestor:"incr.apply" in
  let apply_s = Spans.total_s sp "incr.apply" in
  metric r "incr.init_s" (Spans.total_s sp "incr.init") "s";
  metric r "incr.apply_s" apply_s "s";
  metric r "incr.provider_s" (sum under (provider_cell @ provider_wire)) "s";
  metric r "eco.phase_s" phase_s "s";
  metric r "eco.coverage_pct" (100.0 *. apply_s /. phase_s) "%";
  metric r "provider.wire_calls" (calls sp provider_wire -. init_wire) "count";
  metric r "provider.cell_calls" (calls sp provider_cell -. init_cell) "count";
  metric r "incr.dirty_gates" (float_of_int !dirty) "count";
  metric r "incr.invalidated_nets" (float_of_int !inval) "count";
  metric r "incr.cutoff_hits" (float_of_int !cutoffs) "count";
  metric r "incr.dirty_per_edit" (float_of_int !dirty /. float_of_int traced_edits) "count";
  metric r "incr.cutoff_ratio" (float_of_int !cutoffs /. float_of_int (max 1 !dirty)) "ratio";
  Probes.overhead r sp ~pass_s:(phase_s +. Spans.total_s sp "incr.init");
  finish r ~attempted:traced_edits ~failed:!failed

let run ~sp ~seed ~seconds ~startup_s fx =
  let r = report () in
  note r "circuit" circuit;
  note r "edit_mix" "2:1 endpoint(depth<=6):anywhere, swap/scale/bump rotating, stratified by cone size";
  note r "provider_store" "off";
  match sp with
  | None ->
    let env, setup_s = setups ~startup_s ~reps:3 (setup fx) in
    untraced r ~seed ~seconds ~setup_s env
  | Some sp -> traced r sp ~seed (setup ~sp fx ())
