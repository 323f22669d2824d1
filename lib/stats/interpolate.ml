let linear ~x0 ~y0 ~x1 ~y1 x =
  if x1 = x0 then y0 else y0 +. ((x -. x0) *. (y1 -. y0) /. (x1 -. x0))

module Grid2d = struct
  type t = { xs : float array; ys : float array; values : float array array }

  let check_increasing name a =
    for i = 1 to Array.length a - 1 do
      if a.(i) <= a.(i - 1) then
        invalid_arg (Printf.sprintf "Grid2d: %s axis not strictly increasing" name)
    done

  let create ~xs ~ys ~values =
    if Array.length xs = 0 || Array.length ys = 0 then
      invalid_arg "Grid2d.create: empty axis";
    check_increasing "x" xs;
    check_increasing "y" ys;
    if Array.length values <> Array.length xs then
      invalid_arg "Grid2d.create: row count mismatch";
    Array.iter
      (fun row ->
        if Array.length row <> Array.length ys then
          invalid_arg "Grid2d.create: column count mismatch")
      values;
    { xs; ys; values }

  (* Segment index such that axis.(i) <= v <= axis.(i+1), clamped. *)
  let segment axis v =
    let n = Array.length axis in
    if n = 1 || v <= axis.(0) then 0
    else if v >= axis.(n - 1) then max 0 (n - 2)
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if axis.(mid) <= v then lo := mid else hi := mid
      done;
      !lo
    end

  let frac axis i v =
    let n = Array.length axis in
    if n = 1 then 0.0
    else begin
      let a = axis.(i) and b = axis.(min (i + 1) (n - 1)) in
      if b = a then 0.0 else Float.max 0.0 (Float.min 1.0 ((v -. a) /. (b -. a)))
    end

  type stencil = { i0 : int; i1 : int; j0 : int; j1 : int; fx : float; fy : float }

  let locate ~xs ~ys x y =
    let i = segment xs x and j = segment ys y in
    {
      i0 = i;
      i1 = min (i + 1) (Array.length xs - 1);
      j0 = j;
      j1 = min (j + 1) (Array.length ys - 1);
      fx = frac xs i x;
      fy = frac ys j y;
    }

  let blend s v00 v01 v10 v11 =
    let fx = s.fx and fy = s.fy in
    ((1.0 -. fx) *. (1.0 -. fy) *. v00)
    +. ((1.0 -. fx) *. fy *. v01)
    +. (fx *. (1.0 -. fy) *. v10)
    +. (fx *. fy *. v11)

  let eval t x y =
    let s = locate ~xs:t.xs ~ys:t.ys x y in
    let row0 = t.values.(s.i0) and row1 = t.values.(s.i1) in
    blend s row0.(s.j0) row0.(s.j1) row1.(s.j0) row1.(s.j1)

  let xs t = t.xs
  let ys t = t.ys
  let values t = t.values
end

module Surface = struct
  type t = { features : float -> float -> float array; fit : Regression.fit }

  let bilinear_features ds dc = [| 1.0; ds; dc; ds *. dc |]

  let cubic_features ds dc =
    [| 1.0; ds; dc; ds *. ds; dc *. dc; ds *. ds *. ds; dc *. dc *. dc; ds *. dc |]

  let fit_features features ~points ~values =
    if Array.length points <> Array.length values then
      invalid_arg "Surface: points/values size mismatch";
    let design = Array.map (fun (ds, dc) -> features ds dc) points in
    { features; fit = Regression.fit ~design ~target:values }

  let fit_bilinear ~points ~values = fit_features bilinear_features ~points ~values
  let fit_cubic ~points ~values = fit_features cubic_features ~points ~values

  let eval t ds dc = Regression.predict t.fit (t.features ds dc)
  let coefficients t = t.fit.Regression.coeffs
  let r2 t = t.fit.Regression.r2
end
