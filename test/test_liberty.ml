(* Tests for the cell library: cell metadata, logic functions,
   characterisation behaviour (Fig. 4 trends) and serialisation. *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module Ch = Nsigma_liberty.Characterize
module Library = Nsigma_liberty.Library
module Moments = Nsigma_stats.Moments
module Sampler = Nsigma_stats.Sampler
module Cell_sim = Nsigma_spice.Cell_sim
module Store = Nsigma_liberty.Store
module Metrics = Nsigma_obs.Metrics
module Rng = Nsigma_stats.Rng
module Grid2d = Nsigma_stats.Interpolate.Grid2d

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6

(* Small shared characterisation tables (built once). *)
let small_slews = [| 10e-12; 100e-12; 300e-12 |]

let small_table =
  lazy
    (Ch.characterize ~n_mc:400 ~slews:small_slews
       ~loads:[| 0.1e-15; 0.4e-15; 2e-15; 6e-15 |]
       tech
       (Cell.make Cell.Inv ~strength:1)
       ~edge:`Fall)

(* ---------- Cell ---------- *)

let test_name_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun strength ->
          let c = Cell.make kind ~strength in
          let c2 = Cell.of_name (Cell.name c) in
          Alcotest.(check bool) "roundtrip" true (c = c2))
        Cell.standard_strengths)
    Cell.all_kinds

let test_of_name_paper_aliases () =
  (* The paper writes AOI2 for AOI21. *)
  let c = Cell.of_name "AOI2X4" in
  Alcotest.(check bool) "AOI2 alias" true (c.Cell.kind = Cell.Aoi21 && c.Cell.strength = 4)

let test_of_name_rejects () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Cell.of_name "FOO2X1");
       false
     with Failure _ -> true)

let test_eval_truth_tables () =
  let t = true and f = false in
  Alcotest.(check bool) "nand" true (Cell.eval Cell.Nand2 [| t; t |] = f);
  Alcotest.(check bool) "nor" true (Cell.eval Cell.Nor2 [| f; f |] = t);
  Alcotest.(check bool) "xor" true (Cell.eval Cell.Xor2 [| t; f |] = t);
  Alcotest.(check bool) "xnor" true (Cell.eval Cell.Xnor2 [| t; f |] = f);
  Alcotest.(check bool) "aoi21 (a&b)|c low" true
    (Cell.eval Cell.Aoi21 [| t; t; f |] = f);
  Alcotest.(check bool) "aoi21 all low" true (Cell.eval Cell.Aoi21 [| f; f; f |] = t);
  Alcotest.(check bool) "oai21" true (Cell.eval Cell.Oai21 [| f; f; t |] = t)

let test_eval_arity_check () =
  Alcotest.check_raises "arity" (Invalid_argument "Cell.eval: arity mismatch")
    (fun () -> ignore (Cell.eval Cell.Nand2 [| true |]))

let test_stack_counts () =
  Alcotest.(check int) "inv stack" 1 (Cell.stack_count (Cell.make Cell.Inv ~strength:1));
  Alcotest.(check int) "nand stack" 2
    (Cell.stack_count (Cell.make Cell.Nand2 ~strength:1));
  Alcotest.(check int) "nor stack" 2 (Cell.stack_count (Cell.make Cell.Nor2 ~strength:1));
  Alcotest.(check int) "aoi stack" 2
    (Cell.stack_count (Cell.make Cell.Aoi21 ~strength:1))

let test_input_cap_scales_with_strength () =
  let c1 = Cell.input_cap tech (Cell.make Cell.Inv ~strength:1) in
  let c4 = Cell.input_cap tech (Cell.make Cell.Inv ~strength:4) in
  check_close "4x strength, 4x cap" (4.0 *. c1) c4

let test_fo4_load () =
  let c = Cell.make Cell.Inv ~strength:1 in
  check_close "fo4 = 4 pins" (4.0 *. Cell.input_cap tech c) (Cell.fo4_load tech c)

let test_arc_construction () =
  let sample = Nsigma_process.Variation.nominal in
  let nand = Cell.make Cell.Nand2 ~strength:2 in
  let fall = Cell.arc tech sample nand ~output_edge:`Fall in
  let rise = Cell.arc tech sample nand ~output_edge:`Rise in
  Alcotest.(check int) "fall arc stack depth 2" 2
    (Array.length fall.Nsigma_spice.Arc.devices);
  Alcotest.(check int) "rise arc depth 1" 1
    (Array.length rise.Nsigma_spice.Arc.devices);
  Alcotest.(check bool) "fall pulls down" true
    (fall.Nsigma_spice.Arc.pull = Nsigma_spice.Arc.Pull_down)

(* ---------- Characterize ---------- *)

let test_loads_for_contains_fo4 () =
  let cell = Cell.make Cell.Nand2 ~strength:8 in
  let loads = Ch.loads_for tech cell in
  let fo4 = Cell.fo4_load tech cell in
  Alcotest.(check bool) "FO4 on grid" true
    (Array.exists (fun l -> Float.abs (l -. fo4) < 1e-20) loads);
  (* Ascending. *)
  let ascending = ref true in
  Array.iteri (fun i l -> if i > 0 && l <= loads.(i - 1) then ascending := false) loads;
  Alcotest.(check bool) "ascending" true !ascending

let test_characterize_grid_shape () =
  let table = Lazy.force small_table in
  Alcotest.(check int) "slew rows" 3 (Array.length table.Ch.points);
  Alcotest.(check int) "load cols" 4 (Array.length table.Ch.points.(0))

let test_fig4_trends () =
  (* μ and σ grow with both slew and load (Fig. 4 of the paper). *)
  let table = Lazy.force small_table in
  let m i j = table.Ch.points.(i).(j).Ch.moments in
  Alcotest.(check bool) "mu grows with slew" true
    ((m 2 1).Moments.mean > (m 0 1).Moments.mean);
  Alcotest.(check bool) "mu grows with load" true
    ((m 0 3).Moments.mean > (m 0 0).Moments.mean);
  Alcotest.(check bool) "sigma grows with load" true
    ((m 0 3).Moments.std > (m 0 0).Moments.std)

let test_quantiles_ordered () =
  let table = Lazy.force small_table in
  Array.iter
    (fun row ->
      Array.iter
        (fun (p : Ch.point) ->
          Array.iteri
            (fun i q ->
              if i > 0 && q < p.Ch.quantiles.(i - 1) then
                Alcotest.fail "quantiles must ascend")
            p.Ch.quantiles)
        row)
    table.Ch.points

let test_moments_at_matches_grid_point () =
  let table = Lazy.force small_table in
  let p = table.Ch.points.(1).(2) in
  let m = Ch.moments_at table ~slew:p.Ch.slew ~load:p.Ch.load in
  check_close ~eps:1e-9 "interp at node = node" p.Ch.moments.Moments.mean
    m.Moments.mean

(* The grid-free lookups against the Grid2d they replaced: a test-local
   copy of building one Grid2d per field and evaluating it, compared bit
   for bit at every knot, at interior points and at points clamped from
   outside the grid, on random tables including one-knot axes. *)
let synthetic_table g ~slews ~loads =
  let point slew load =
    {
      Ch.slew;
      load;
      moments =
        {
          Moments.n = 100;
          mean = Rng.uniform_range g ~lo:1e-12 ~hi:1e-10;
          std = Rng.uniform_range g ~lo:1e-13 ~hi:1e-11;
          skewness = Rng.uniform_range g ~lo:(-1.0) ~hi:2.0;
          kurtosis = Rng.uniform_range g ~lo:2.0 ~hi:6.0;
        };
      quantiles = Array.init 7 (fun _ -> Rng.uniform_range g ~lo:1e-12 ~hi:1e-10);
      mean_out_slew = Rng.uniform_range g ~lo:1e-12 ~hi:1e-10;
    }
  in
  {
    Ch.cell = Cell.make Cell.Inv ~strength:1;
    edge = `Fall;
    vdd = tech.T.vdd_nominal;
    n_mc = 100;
    kernel = Cell_sim.Fast;
    sampling = Sampler.Mc;
    rtol = None;
    slews;
    loads;
    points = Array.map (fun s -> Array.map (fun l -> point s l) loads) slews;
  }

let test_lookups_match_grid2d () =
  let g = Rng.create ~seed:2026 in
  let same what a b =
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      Alcotest.failf "%s: grid-free %h, Grid2d %h" what a b
  in
  List.iter
    (fun (slews, loads) ->
      let t = synthetic_table g ~slews ~loads in
      let via_grid f slew load =
        Grid2d.eval
          (Grid2d.create ~xs:t.Ch.slews ~ys:t.Ch.loads
             ~values:(Array.map (Array.map f) t.Ch.points))
          slew load
      in
      (* Knots, midpoints, random interior points, and points beyond
         each edge (clamped). *)
      let probes axis =
        let n = Array.length axis in
        let lo = axis.(0) and hi = axis.(n - 1) in
        Array.to_list axis
        @ List.init (n - 1) (fun i -> 0.5 *. (axis.(i) +. axis.(i + 1)))
        @ List.init 3 (fun _ -> Rng.uniform_range g ~lo ~hi)
        @ [ lo *. 0.5; lo -. 1e-12; hi *. 2.0; hi +. 1e-9 ]
      in
      List.iter
        (fun slew ->
          List.iter
            (fun load ->
              let m = Ch.moments_at t ~slew ~load in
              let ref_m f = via_grid (fun (p : Ch.point) -> f p.Ch.moments) slew load in
              same "mean" m.Moments.mean (ref_m (fun m -> m.Moments.mean));
              same "std" m.Moments.std (ref_m (fun m -> m.Moments.std));
              same "skewness" m.Moments.skewness (ref_m (fun m -> m.Moments.skewness));
              same "kurtosis" m.Moments.kurtosis (ref_m (fun m -> m.Moments.kurtosis));
              Alcotest.(check int) "n" t.Ch.n_mc m.Moments.n;
              same "out slew" (Ch.out_slew_at t ~slew ~load)
                (via_grid (fun p -> p.Ch.mean_out_slew) slew load);
              List.iteri
                (fun k sigma ->
                  same
                    (Printf.sprintf "quantile %d" sigma)
                    (Ch.quantile_at t ~slew ~load ~sigma)
                    (via_grid (fun p -> p.Ch.quantiles.(k)) slew load))
                Nsigma_stats.Quantile.sigma_levels)
            (probes loads))
        (probes slews))
    [
      (Ch.default_slews, Ch.default_loads);
      (small_slews, [| 0.1e-15; 0.4e-15; 2e-15; 6e-15 |]);
      ([| 50e-12 |], [| 0.2e-15; 1e-15 |]);
      ([| 10e-12; 80e-12 |], [| 1e-15 |]);
      ([| 20e-12 |], [| 2e-15 |]);
    ]

(* The mean-only lookup is [moments_at]'s mean blend on the same
   stencil: bitwise equal anywhere, inside the grid or clamped beyond
   it. *)
let prop_mean_at_matches_moments_at =
  let t = synthetic_table (Rng.create ~seed:2027) ~slews:Ch.default_slews
      ~loads:Ch.default_loads in
  let axis_span a = (a.(0) *. 0.5, a.(Array.length a - 1) *. 2.0) in
  let s_lo, s_hi = axis_span t.Ch.slews and l_lo, l_hi = axis_span t.Ch.loads in
  QCheck.Test.make ~count:500 ~name:"mean_at = (moments_at …).mean (bitwise)"
    QCheck.(pair (float_range s_lo s_hi) (float_range l_lo l_hi))
    (fun (slew, load) ->
      Int64.equal
        (Int64.bits_of_float (Ch.mean_at t ~slew ~load))
        (Int64.bits_of_float (Ch.moments_at t ~slew ~load).Moments.mean))

let test_characterize_rejects_bad_axes () =
  let inv = Cell.make Cell.Inv ~strength:1 in
  List.iter
    (fun (what, slews, loads) ->
      Alcotest.(check bool) what true
        (try
           ignore (Ch.characterize ~n_mc:20 ~slews ~loads tech inv ~edge:`Fall);
           false
         with Invalid_argument _ -> true))
    [
      ("empty slews", [||], [| 1e-15 |]);
      ("empty loads", [| 10e-12 |], [||]);
      ("decreasing slews", [| 50e-12; 10e-12 |], [| 1e-15 |]);
      ("repeated loads", [| 10e-12 |], [| 1e-15; 1e-15 |]);
      ("nan slew", [| 10e-12; Float.nan |], [| 1e-15 |]);
      ("infinite load", [| 10e-12 |], [| 1e-15; Float.infinity |]);
    ]

let test_characterize_deterministic () =
  let t1 =
    Ch.characterize ~n_mc:100 ~seed:5 ~slews:[| 10e-12 |] ~loads:[| 1e-15 |] tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  let t2 =
    Ch.characterize ~n_mc:100 ~seed:5 ~slews:[| 10e-12 |] ~loads:[| 1e-15 |] tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  check_close "same seed, same mean" t1.Ch.points.(0).(0).Ch.moments.Moments.mean
    t2.Ch.points.(0).(0).Ch.moments.Moments.mean

(* ---------- Library ---------- *)

let test_library_add_find () =
  let lib = Library.create tech in
  let table = Lazy.force small_table in
  Library.add lib table;
  Alcotest.(check bool) "find works" true
    (Library.find_opt lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall <> None);
  Alcotest.(check bool) "missing pair absent" true
    (Library.find_opt lib (Cell.make Cell.Inv ~strength:1) ~edge:`Rise = None)

let test_library_save_load_roundtrip () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let lib2 = Library.load tech path in
  Sys.remove path;
  let t1 = Library.find lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let t2 = Library.find lib2 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j (p : Ch.point) ->
          let q : Ch.point = t2.Ch.points.(i).(j) in
          check_close ~eps:1e-8 "mean preserved" p.Ch.moments.Moments.mean
            q.Ch.moments.Moments.mean;
          check_close ~eps:1e-8 "quantiles preserved" p.Ch.quantiles.(6)
            q.Ch.quantiles.(6);
          check_close ~eps:1e-8 "out slew preserved" p.Ch.mean_out_slew
            q.Ch.mean_out_slew)
        row)
    t1.Ch.points

let test_library_roundtrip_keeps_kernel () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let t1 = Library.find lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let lib2 = Library.load tech path in
  let lib3 = Library.load ~expect_kernel:t1.Ch.kernel tech path in
  Sys.remove path;
  let t2 = Library.find lib2 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let t3 = Library.find lib3 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  Alcotest.(check bool) "kernel preserved" true (t2.Ch.kernel = t1.Ch.kernel);
  Alcotest.(check bool) "expected kernel accepted" true
    (t3.Ch.kernel = t1.Ch.kernel)

let test_library_load_rejects_kernel_mismatch () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let saved = (Library.find lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall).Ch.kernel in
  let other =
    match saved with Cell_sim.Rk4 -> Cell_sim.Fast | _ -> Cell_sim.Rk4
  in
  Alcotest.(check bool) "kernel mismatch rejected" true
    (try
       ignore (Library.load ~expect_kernel:other tech path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

let test_library_load_rejects_v2 () =
  (* A pre-kernel cache (v2 header) must be detected as stale. *)
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  let oc = open_out path in
  Printf.fprintf oc "NSIGMA_LIB 2 %s %.6f %s\n" tech.T.name
    tech.T.vdd_nominal (String.make 32 'a');
  close_out oc;
  Alcotest.(check bool) "v2 cache rejected as stale" true
    (try
       ignore (Library.load tech path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

let test_library_load_rejects_v3 () =
  (* A pre-sampling-layer cache (v3 header) must be detected as stale. *)
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  let oc = open_out path in
  Printf.fprintf oc "NSIGMA_LIB 3 %s %.6f %s %s\n" tech.T.name
    tech.T.vdd_nominal "fast" (String.make 32 'a');
  close_out oc;
  Alcotest.(check bool) "v3 cache rejected as stale" true
    (try
       ignore (Library.load tech path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

let test_library_sampling_roundtrip () =
  (* A table characterised with a non-default sampling configuration
     keeps it across save/load, and [expect_sampling] accepts it. *)
  let lib = Library.create tech in
  let table =
    Ch.characterize ~n_mc:400 ~slews:small_slews ~loads:[| 0.4e-15; 2e-15 |]
      ~sampling:Sampler.Lhs ~rtol:0.05 tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  Library.add lib table;
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let lib2 = Library.load tech path in
  let lib3 = Library.load ~expect_sampling:(Sampler.Lhs, Some 0.05) tech path in
  Sys.remove path;
  let t2 = Library.find lib2 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let t3 = Library.find lib3 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  Alcotest.(check bool) "backend preserved" true (t2.Ch.sampling = Sampler.Lhs);
  Alcotest.(check bool) "rtol preserved" true (t2.Ch.rtol = Some 0.05);
  Alcotest.(check bool) "expected sampling accepted" true
    (t3.Ch.sampling = Sampler.Lhs && t3.Ch.rtol = Some 0.05)

let test_library_load_rejects_sampling_mismatch () =
  (* A cache characterised under one sampling configuration is stale
     for a run requesting another (backend or rtol). *)
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let rejects expect =
    try
      ignore (Library.load ~expect_sampling:expect tech path);
      false
    with Failure _ -> true
  in
  let backend_mismatch = rejects (Sampler.Sobol, None) in
  let rtol_mismatch = rejects (Sampler.Mc, Some 0.01) in
  Sys.remove path;
  Alcotest.(check bool) "backend mismatch rejected" true backend_mismatch;
  Alcotest.(check bool) "rtol mismatch rejected" true rtol_mismatch

let test_library_load_rejects_wrong_vdd () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let wrong = T.with_vdd T.default_28nm 0.9 in
  Alcotest.(check bool) "vdd mismatch rejected" true
    (try
       ignore (Library.load wrong path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

(* A hostile .lvf — bad axes, a points grid of the wrong shape, a
   malformed number — fails its load with a [path:line:] Failure naming
   the offending line, instead of loading and raising Invalid_argument
   midway through an analysis. *)
let test_library_load_rejects_hostile_tables () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let good = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib good;
  let lines =
    let ic = open_in good in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  Sys.remove good;
  let starts prefix l =
    String.length l >= String.length prefix
    && String.sub l 0 (String.length prefix) = prefix
  in
  (* 1-based number of the first line starting with [prefix]. *)
  let line_of prefix =
    let rec go i = function
      | [] -> Alcotest.failf "no %s line" prefix
      | l :: rest -> if starts prefix l then i else go (i + 1) rest
    in
    go 1 lines
  in
  let rewrite prefix f =
    List.concat_map (fun l -> if starts prefix l then f l else [ l ]) lines
  in
  let case what edited ~line =
    let path = Filename.temp_file "nsigma_test" ".lvf" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) edited;
    close_out oc;
    let outcome =
      match Library.load tech path with
      | _ -> Error "loaded"
      | exception Failure msg -> Ok msg
      | exception e -> Error (Printexc.to_string e)
    in
    Sys.remove path;
    match outcome with
    | Error e -> Alcotest.failf "%s: expected a Failure, got %s" what e
    | Ok msg ->
      let want = Printf.sprintf "%s:%d: " path line in
      if not (starts want msg) then
        Alcotest.failf "%s: expected %S..., got %S" what want msg
  in
  let slews = line_of "SLEWS" and loads = line_of "LOADS" in
  let first_point = line_of "POINT" in
  case "non-increasing SLEWS"
    (rewrite "SLEWS" (fun _ -> [ "SLEWS 3e-10 1e-10 1e-11" ]))
    ~line:slews;
  case "empty LOADS" (rewrite "LOADS" (fun _ -> [ "LOADS" ])) ~line:loads;
  case "nan in SLEWS"
    (rewrite "SLEWS" (fun _ -> [ "SLEWS 1e-11 nan 3e-10" ]))
    ~line:slews;
  case "malformed LOADS number"
    (rewrite "LOADS" (fun _ -> [ "LOADS 1e-16 4e-16 two 6e-15" ]))
    ~line:loads;
  case "POINT outside the grid"
    (rewrite "POINT 0 0 " (fun l ->
         [ "POINT 7 0" ^ String.sub l 9 (String.length l - 9) ]))
    ~line:first_point;
  case "POINT grid too small (SLEWS has an extra knot)"
    (rewrite "SLEWS" (fun l -> [ l ^ " 9e-10" ]))
    ~line:(line_of "END");
  case "axis after POINT"
    (rewrite "END" (fun l -> [ "SLEWS 1e-11 2e-11 3e-11"; l ]))
    ~line:(line_of "END")

(* ---------- Store ---------- *)

let fresh_store_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsigma_test_store_%s_%d" name (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let drop_store_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_store_prune_oldest_first () =
  let dir = fresh_store_dir "prune" in
  Fun.protect
    ~finally:(fun () -> drop_store_dir dir)
    (fun () ->
      (try ignore (Store.prune ~dir ~max_bytes:(-1) : int) with
      | Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative max_bytes must raise Invalid_argument");
      let keys = [ "old"; "middle"; "new" ] in
      List.iter (fun k -> Store.save ~dir ~key:k (String.make 1000 'x')) keys;
      (* Stage mtimes so eviction order is deterministic regardless of
         write timing granularity. *)
      let now = Unix.gettimeofday () in
      List.iteri
        (fun i k ->
          let age = float_of_int (List.length keys - i) *. 100.0 in
          Unix.utimes (Store.path_of ~dir ~key:k) (now -. age) (now -. age))
        keys;
      let total =
        List.fold_left
          (fun acc k ->
            acc + (Unix.stat (Store.path_of ~dir ~key:k)).Unix.st_size)
          0 keys
      in
      let was = Metrics.enabled () in
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled was)
        (fun () ->
          let evicted0 = Metrics.find_counter "provider.store.evicted" in
          Alcotest.(check int) "within bound evicts nothing" 0
            (Store.prune ~dir ~max_bytes:total);
          Alcotest.(check int) "one over evicts exactly the oldest" 1
            (Store.prune ~dir ~max_bytes:(total - 1));
          Alcotest.(check bool) "oldest gone" true
            (Store.find ~dir ~key:"old" ~decode:Option.some = None);
          Alcotest.(check bool) "newer survive" true
            (Store.find ~dir ~key:"middle" ~decode:Option.some <> None
            && Store.find ~dir ~key:"new" ~decode:Option.some <> None);
          Alcotest.(check int) "zero bound empties the store" 2
            (Store.prune ~dir ~max_bytes:0);
          Alcotest.(check int) "empty store is a no-op" 0
            (Store.prune ~dir ~max_bytes:0);
          Alcotest.(check int) "evictions counted" 3
            (Metrics.find_counter "provider.store.evicted" - evicted0)))

let test_store_concurrent_writers () =
  (* Two domains race 50 atomic saves each onto one key: the survivor
     must be one of the two payloads in full, never a splice. *)
  let dir = fresh_store_dir "race" in
  Fun.protect
    ~finally:(fun () -> drop_store_dir dir)
    (fun () ->
      let key = "contended" in
      let payload tag = String.init 4096 (fun i -> if i mod 2 = 0 then tag else 'x') in
      let writer tag () =
        for _ = 1 to 50 do
          Store.save ~dir ~key (payload tag)
        done
      in
      let d = Domain.spawn (writer 'a') in
      writer 'b' ();
      Domain.join d;
      match Store.find ~dir ~key ~decode:Option.some with
      | None -> Alcotest.fail "artifact missing after racing writers"
      | Some p ->
        Alcotest.(check bool)
          "payload is one writer's, intact" true
          (p = payload 'a' || p = payload 'b'))

let test_store_reader_during_prune () =
  (* A domain prunes and refills while the main domain reads: every
     read is either a miss (pruned) or the exact payload — unlink is
     atomic, so no torn reads. *)
  let dir = fresh_store_dir "prune_race" in
  Fun.protect
    ~finally:(fun () -> drop_store_dir dir)
    (fun () ->
      let n = 16 in
      let key i = Printf.sprintf "artifact-%d" i in
      let payload i = Printf.sprintf "payload-%d-%s" i (String.make 300 'x') in
      for i = 0 to n - 1 do
        Store.save ~dir ~key:(key i) (payload i)
      done;
      let stop = Atomic.make false in
      let pruner =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Store.prune ~dir ~max_bytes:1500 : int);
              for i = 0 to n - 1 do
                Store.save ~dir ~key:(key i) (payload i)
              done
            done)
      in
      let ok = ref true in
      for _ = 1 to 100 do
        for i = 0 to n - 1 do
          match Store.find ~dir ~key:(key i) ~decode:Option.some with
          | None -> ()
          | Some p -> if p <> payload i then ok := false
        done
      done;
      Atomic.set stop true;
      Domain.join pruner;
      Alcotest.(check bool) "reads are all-or-nothing under prune" true !ok)

let () =
  Alcotest.run "nsigma_liberty"
    [
      ( "cell",
        [
          Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "paper aliases" `Quick test_of_name_paper_aliases;
          Alcotest.test_case "of_name rejects" `Quick test_of_name_rejects;
          Alcotest.test_case "truth tables" `Quick test_eval_truth_tables;
          Alcotest.test_case "arity check" `Quick test_eval_arity_check;
          Alcotest.test_case "stack counts" `Quick test_stack_counts;
          Alcotest.test_case "input cap scaling" `Quick test_input_cap_scales_with_strength;
          Alcotest.test_case "fo4 load" `Quick test_fo4_load;
          Alcotest.test_case "arc construction" `Quick test_arc_construction;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "loads_for grid" `Quick test_loads_for_contains_fo4;
          Alcotest.test_case "grid shape" `Slow test_characterize_grid_shape;
          Alcotest.test_case "fig4 trends" `Slow test_fig4_trends;
          Alcotest.test_case "quantiles ordered" `Slow test_quantiles_ordered;
          Alcotest.test_case "interp at nodes" `Slow test_moments_at_matches_grid_point;
          Alcotest.test_case "deterministic" `Quick test_characterize_deterministic;
          Alcotest.test_case "lookups = Grid2d (bitwise)" `Quick test_lookups_match_grid2d;
          QCheck_alcotest.to_alcotest prop_mean_at_matches_moments_at;
          Alcotest.test_case "rejects bad axes" `Quick test_characterize_rejects_bad_axes;
        ] );
      ( "library",
        [
          Alcotest.test_case "add/find" `Slow test_library_add_find;
          Alcotest.test_case "save/load" `Slow test_library_save_load_roundtrip;
          Alcotest.test_case "kernel roundtrip" `Slow test_library_roundtrip_keeps_kernel;
          Alcotest.test_case "kernel mismatch" `Slow test_library_load_rejects_kernel_mismatch;
          Alcotest.test_case "v2 cache stale" `Quick test_library_load_rejects_v2;
          Alcotest.test_case "v3 cache stale" `Quick test_library_load_rejects_v3;
          Alcotest.test_case "sampling roundtrip" `Slow test_library_sampling_roundtrip;
          Alcotest.test_case "sampling mismatch" `Slow test_library_load_rejects_sampling_mismatch;
          Alcotest.test_case "vdd check" `Slow test_library_load_rejects_wrong_vdd;
          Alcotest.test_case "hostile tables" `Slow
            test_library_load_rejects_hostile_tables;
        ] );
      ( "store",
        [
          Alcotest.test_case "prune oldest first" `Quick
            test_store_prune_oldest_first;
          Alcotest.test_case "racing writers" `Quick
            test_store_concurrent_writers;
          Alcotest.test_case "reader during prune" `Quick
            test_store_reader_during_prune;
        ] );
    ]
