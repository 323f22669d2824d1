module Technology = Nsigma_process.Technology
module Moments = Nsigma_stats.Moments
module Sampler = Nsigma_stats.Sampler
module Cell_sim = Nsigma_spice.Cell_sim
module Metrics = Nsigma_obs.Metrics
module Log = Nsigma_obs.Log

(* Cache outcome counters, registered up front so every run report
   carries the keys (zero-valued when no cache was consulted). *)
let m_cache_hit = Metrics.counter "lvf.cache.hit"
let m_cache_miss = Metrics.counter "lvf.cache.miss"
let m_cache_stale = Metrics.counter "lvf.cache.stale"

type t = {
  tech : Technology.t;
  tables : (string, Characterize.table) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order *)
}

let key cell edge =
  Printf.sprintf "%s/%s" (Cell.name cell)
    (match edge with `Rise -> "rise" | `Fall -> "fall")

let create tech = { tech; tables = Hashtbl.create 64; order = [] }

let tech t = t.tech

let add t (table : Characterize.table) =
  let k = key table.Characterize.cell table.Characterize.edge in
  if not (Hashtbl.mem t.tables k) then t.order <- k :: t.order;
  Hashtbl.replace t.tables k table

let find_opt t cell ~edge = Hashtbl.find_opt t.tables (key cell edge)

let find t cell ~edge =
  match find_opt t cell ~edge with Some table -> table | None -> raise Not_found

let cells t =
  List.rev_map
    (fun k ->
      let table = Hashtbl.find t.tables k in
      (table.Characterize.cell, table.Characterize.edge))
    t.order

let characterize_all ?n_mc ?seed ?slews ?loads ?(edges = [ `Rise; `Fall ])
    ?exec ?kernel ?sampling ?rtol tech cell_list =
  let lib = create tech in
  List.iteri
    (fun i cell ->
      List.iter
        (fun edge ->
          let seed =
            (* Distinct deterministic seed per (cell, edge). *)
            match seed with Some s -> s + (i * 17) | None -> 1 + (i * 17)
          in
          add lib
            (Characterize.characterize ?n_mc ~seed ?slews ?loads ?exec ?kernel
               ?sampling ?rtol tech cell ~edge))
        edges)
    cell_list;
  lib

(* ----- serialisation ----- *)

let edge_name = function `Rise -> "RISE" | `Fall -> "FALL"

(* The adaptive tolerance as a header token: "off" for fixed-count runs,
   a %.9g float otherwise.  %.9g round-trips every tolerance a user
   plausibly passes, and the token is compared textually so save → load
   → save is stable. *)
let rtol_token = function None -> "off" | Some r -> Printf.sprintf "%.9g" r

let rtol_of_token lineno path = function
  | "off" -> None
  | s -> (
    match float_of_string_opt s with
    | Some r when r > 0.0 -> Some r
    | _ ->
      failwith (Printf.sprintf "%s:%d: bad rtol token %S" path lineno s))

(* What the cached tables depend on besides the corner voltage: every
   technology parameter, the characterisation-grid constants, the
   simulation kernel and the sampling configuration that produced the
   populations.  Stored in the header so [load] can detect a stale
   cache — fast- and RK4-characterised tables never alias, and neither
   do populations drawn from different deviate streams or stopped at
   different tolerances. *)
let cache_fingerprint tech ~kernel ~sampling ~rtol =
  Digest.to_hex
    (Digest.string
       (Technology.fingerprint tech ^ "|" ^ Characterize.grid_signature
      ^ "|kernel=" ^ Cell_sim.kernel_name kernel
      ^ "|sampling=" ^ Sampler.backend_name sampling
      ^ "|rtol=" ^ rtol_token rtol))

(* The kernel all of a library's tables were characterised with; mixing
   kernels in one file would make the header fingerprint a lie. *)
let library_kernel t =
  match cells t with
  | [] -> Cell_sim.default_kernel ()
  | (c0, e0) :: rest ->
    let k = (find t c0 ~edge:e0).Characterize.kernel in
    List.iter
      (fun (c, e) ->
        if (find t c ~edge:e).Characterize.kernel <> k then
          failwith
            "Library.save: tables characterised with different kernels \
             cannot share one cache file")
      rest;
    k

(* Same uniformity rule for the sampling configuration. *)
let library_sampling t =
  match cells t with
  | [] -> (Sampler.default_backend (), None)
  | (c0, e0) :: rest ->
    let t0 = find t c0 ~edge:e0 in
    let s = (t0.Characterize.sampling, t0.Characterize.rtol) in
    List.iter
      (fun (c, e) ->
        let ti = find t c ~edge:e in
        if (ti.Characterize.sampling, ti.Characterize.rtol) <> s then
          failwith
            "Library.save: tables characterised with different sampling \
             configurations cannot share one cache file")
      rest;
    s

(* The fingerprint an in-memory library would carry if saved: the key
   under which derived artifacts (provider regressions in {!Store}) are
   content-addressed. *)
let fingerprint t =
  let kernel = library_kernel t in
  let sampling, rtol = library_sampling t in
  cache_fingerprint t.tech ~kernel ~sampling ~rtol

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let kernel = library_kernel t in
      let sampling, rtol = library_sampling t in
      Printf.fprintf oc "NSIGMA_LIB 4 %s %.6f %s %s %s %s\n"
        t.tech.Technology.name t.tech.Technology.vdd_nominal
        (Cell_sim.kernel_name kernel)
        (Sampler.backend_name sampling)
        (rtol_token rtol)
        (cache_fingerprint t.tech ~kernel ~sampling ~rtol);
      List.iter
        (fun (cell, edge) ->
          let table = find t cell ~edge in
          Printf.fprintf oc "TABLE %s %s %d\n" (Cell.name cell) (edge_name edge)
            table.Characterize.n_mc;
          let axis name a =
            Printf.fprintf oc "%s" name;
            Array.iter (fun v -> Printf.fprintf oc " %.9g" v) a;
            Printf.fprintf oc "\n"
          in
          axis "SLEWS" table.Characterize.slews;
          axis "LOADS" table.Characterize.loads;
          Array.iteri
            (fun i row ->
              Array.iteri
                (fun j (p : Characterize.point) ->
                  Printf.fprintf oc "POINT %d %d %.9g %.9g %.9g %.9g" i j
                    p.moments.Moments.mean p.moments.Moments.std
                    p.moments.Moments.skewness p.moments.Moments.kurtosis;
                  Array.iter (fun q -> Printf.fprintf oc " %.9g" q) p.quantiles;
                  Printf.fprintf oc " %.9g\n" p.mean_out_slew)
                row)
            table.Characterize.points;
          Printf.fprintf oc "END\n")
        (cells t))

type partial = {
  p_cell : Cell.t;
  p_edge : [ `Rise | `Fall ];
  p_n_mc : int;
  mutable p_slews : float array;
  mutable p_loads : float array;
  mutable p_points : (int * int * Characterize.point) list;
}

let load ?expect_kernel ?expect_sampling tech path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lib = create tech in
      let current = ref None in
      let file_kernel = ref None in
      let file_sampling = ref None in
      let fail lineno msg = failwith (Printf.sprintf "%s:%d: %s" path lineno msg) in
      let number lineno w =
        match float_of_string_opt w with
        | Some v -> v
        | None -> fail lineno (Printf.sprintf "bad number %S" w)
      in
      let count lineno w =
        match int_of_string_opt w with
        | Some v -> v
        | None -> fail lineno (Printf.sprintf "bad integer %S" w)
      in
      (* Axes are checked here, at the table boundary, so a hostile
         file fails its load instead of an analysis midway. *)
      let axis lineno name ws =
        let a = Array.of_list (List.map (number lineno) ws) in
        (try Characterize.check_axis name a
         with Invalid_argument msg -> fail lineno msg);
        a
      in
      let finish lineno =
        match !current with
        | None -> ()
        | Some p ->
          let ns = Array.length p.p_slews and nl = Array.length p.p_loads in
          if ns = 0 || nl = 0 then fail lineno "missing SLEWS/LOADS";
          let points =
            Array.init ns (fun _ -> Array.make nl None)
          in
          List.iter (fun (i, j, pt) -> points.(i).(j) <- Some pt) p.p_points;
          let points =
            Array.mapi
              (fun i row ->
                Array.mapi
                  (fun j -> function
                    | Some pt -> pt
                    | None -> fail lineno (Printf.sprintf "missing POINT %d %d" i j))
                  row)
              points
          in
          let kernel =
            match !file_kernel with
            | Some k -> k
            | None -> fail lineno "TABLE before the NSIGMA_LIB header"
          in
          let sampling, rtol =
            match !file_sampling with
            | Some s -> s
            | None -> fail lineno "TABLE before the NSIGMA_LIB header"
          in
          add lib
            {
              Characterize.cell = p.p_cell;
              edge = p.p_edge;
              vdd = tech.Technology.vdd_nominal;
              n_mc = p.p_n_mc;
              kernel;
              sampling;
              rtol;
              slews = p.p_slews;
              loads = p.p_loads;
              points;
            };
          current := None
      in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let words =
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun w -> w <> "")
           in
           match words with
           | [] -> ()
           | "NSIGMA_LIB" :: ("1" | "2") :: _ ->
             fail !lineno
               "legacy library format (v1/v2) predates the two-tier \
                simulation kernel; re-characterise to refresh the cache"
           | "NSIGMA_LIB" :: "3" :: _ ->
             fail !lineno
               "legacy library format (v3) predates the sampling layer; \
                re-characterise to refresh the cache"
           | [ "NSIGMA_LIB"; "4"; _name; vdd; kernel; sampling; rtol; fp ] ->
             let vdd = number !lineno vdd in
             if Float.abs (vdd -. tech.Technology.vdd_nominal) > 1e-3 then
               fail !lineno
                 (Printf.sprintf "library characterised at %.3f V, technology is %.3f V"
                    vdd tech.Technology.vdd_nominal);
             let kernel =
               try Cell_sim.kernel_of_string kernel
               with Failure msg -> fail !lineno msg
             in
             let sampling =
               try Sampler.backend_of_string sampling
               with Failure msg -> fail !lineno msg
             in
             let rtol = rtol_of_token !lineno path rtol in
             if fp <> cache_fingerprint tech ~kernel ~sampling ~rtol then
               fail !lineno
                 "library characterised under different technology parameters, \
                  grid, kernel or sampling configuration (stale cache); \
                  re-characterise to refresh it";
             (match expect_kernel with
             | Some k when k <> kernel ->
               fail !lineno
                 (Printf.sprintf
                    "library characterised with the %s kernel, the %s kernel \
                     was requested (stale cache); re-characterise to refresh it"
                    (Cell_sim.kernel_name kernel) (Cell_sim.kernel_name k))
             | _ -> ());
             (match expect_sampling with
             | Some (b, r)
               when b <> sampling || rtol_token r <> rtol_token rtol ->
               fail !lineno
                 (Printf.sprintf
                    "library characterised with sampling %s/rtol %s, \
                     %s/rtol %s was requested (stale cache); re-characterise \
                     to refresh it"
                    (Sampler.backend_name sampling) (rtol_token rtol)
                    (Sampler.backend_name b) (rtol_token r))
             | _ -> ());
             file_kernel := Some kernel;
             file_sampling := Some (sampling, rtol)
           | [ "TABLE"; cell_name; edge; n_mc ] ->
             let p_edge =
               match edge with
               | "RISE" -> `Rise
               | "FALL" -> `Fall
               | _ -> fail !lineno "bad edge"
             in
             current :=
               Some
                 {
                   p_cell = Cell.of_name cell_name;
                   p_edge;
                   p_n_mc = count !lineno n_mc;
                   p_slews = [||];
                   p_loads = [||];
                   p_points = [];
                 }
           | "SLEWS" :: rest ->
             (match !current with
             | Some p when p.p_points <> [] -> fail !lineno "SLEWS after POINT"
             | Some p -> p.p_slews <- axis !lineno "slew" rest
             | None -> fail !lineno "SLEWS outside TABLE")
           | "LOADS" :: rest ->
             (match !current with
             | Some p when p.p_points <> [] -> fail !lineno "LOADS after POINT"
             | Some p -> p.p_loads <- axis !lineno "load" rest
             | None -> fail !lineno "LOADS outside TABLE")
           | "POINT" :: i :: j :: mean :: std :: skew :: kurt :: rest ->
             (match !current with
             | None -> fail !lineno "POINT outside TABLE"
             | Some p ->
               let i = count !lineno i and j = count !lineno j in
               if
                 i < 0 || i >= Array.length p.p_slews || j < 0
                 || j >= Array.length p.p_loads
               then
                 fail !lineno
                   (Printf.sprintf "POINT %d %d outside the %dx%d SLEWS/LOADS grid"
                      i j (Array.length p.p_slews) (Array.length p.p_loads));
               let values = List.map (number !lineno) rest in
               let nq = List.length Nsigma_stats.Quantile.sigma_levels in
               if List.length values <> nq + 1 then fail !lineno "bad POINT arity";
               let quantiles = Array.of_list (List.filteri (fun k _ -> k < nq) values) in
               let mean_out_slew = List.nth values nq in
               let point =
                 {
                   Characterize.slew = p.p_slews.(i);
                   load = p.p_loads.(j);
                   moments =
                     {
                       Moments.n = p.p_n_mc;
                       mean = number !lineno mean;
                       std = number !lineno std;
                       skewness = number !lineno skew;
                       kurtosis = number !lineno kurt;
                     };
                   quantiles;
                   mean_out_slew;
                 }
               in
               p.p_points <- (i, j, point) :: p.p_points)
           | [ "END" ] -> finish !lineno
           | w :: _ -> fail !lineno (Printf.sprintf "unrecognised keyword %S" w)
         done
       with End_of_file -> ());
      if !current <> None then failwith (path ^ ": missing END");
      (* Any successfully parsed (and fingerprint-validated) file counts
         as a cache hit, whether reached through [load_or_characterize]
         or an explicit CLI load. *)
      Metrics.incr m_cache_hit;
      lib)

let load_or_characterize ?n_mc ?seed ?slews ?loads ?edges ?exec ?kernel
    ?sampling ?rtol ~path tech cell_list =
  let kernel =
    match kernel with Some k -> k | None -> Cell_sim.default_kernel ()
  in
  let sampling =
    match sampling with Some b -> b | None -> Sampler.default_backend ()
  in
  let covers lib =
    let edges = Option.value edges ~default:[ `Rise; `Fall ] in
    List.for_all
      (fun cell -> List.for_all (fun edge -> find_opt lib cell ~edge <> None) edges)
      cell_list
  in
  let from_disk =
    if Sys.file_exists path then
      try Some (load ~expect_kernel:kernel ~expect_sampling:(sampling, rtol) tech path)
      with Failure msg ->
        (* An unreadable or fingerprint-mismatched file is a stale cache:
           distinct from a plain miss in run reports so sweeps that churn
           the cache are visible. *)
        Metrics.incr m_cache_stale;
        Log.info "stale .lvf cache %s (%s); re-characterising" path msg;
        None
    else begin
      Metrics.incr m_cache_miss;
      None
    end
  in
  match from_disk with
  | Some lib when covers lib ->
    (* [load] already counted the hit. *)
    Log.info "loaded .lvf cache %s" path;
    lib
  | other ->
    (match other with
    | Some _ ->
      (* Parsed fine but lacks a requested cell/edge. *)
      Metrics.incr m_cache_miss;
      Log.info ".lvf cache %s does not cover the requested cells" path
    | None -> ());
    let lib =
      characterize_all ?n_mc ?seed ?slews ?loads ?edges ?exec ~kernel ~sampling
        ?rtol tech cell_list
    in
    save lib path;
    lib
