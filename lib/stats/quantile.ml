(* Interpolation convention (central to every quantile in the library):
   type-7 — h = (n−1)p, linear interpolation between the floor(h)-th and
   ceil(h)-th order statistics.  The R/NumPy default; all call sites go
   through [of_sorted] so the convention lives in exactly one place. *)

let check_p ~who p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (who ^ ": probability outside [0,1]")

let of_sorted xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.of_sorted: empty sample";
  check_p ~who:"Quantile.of_sorted" p;
  if n = 1 then xs.(0)
  else begin
    let h = float_of_int (n - 1) *. p in
    let lo = int_of_float (Float.floor h) in
    (* Clamp: p = 1.0 can give lo = n−1 exactly; rounding guards. *)
    let lo = max 0 (min (n - 1) lo) in
    let hi = min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(hi) -. xs.(lo)))
  end

(* Stdlib [Array.sort]'s ternary heap sort, specialised to float arrays
   with the same [Float.compare] calls in the same order, so the output
   is bitwise identical for every input (NaN payloads, ±0, duplicates).
   The generic sort boxes every float it reads and calls its comparison
   through a closure; here the comparisons are inline, the element in
   flight stays in an unboxed local, and the recursions (and the
   [Bottom] exception that ends them) are loops. *)

(* Index of the largest of node [i]'s three children in the heap
   [a.(0 .. l-1)], or [-1] when [i] is a leaf. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let sort (a : float array) =
  let l = Array.length a in
  (* Heapify: sift each inner node's value down (stdlib [trickle]). *)
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i0) in
    let i = ref i0 and sifting = ref true in
    while !sifting do
      let j = maxson a l !i in
      if j >= 0 && Float.compare a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        sifting := false
      end
    done
  done;
  for k = l - 1 downto 2 do
    let e = a.(k) in
    a.(k) <- a.(0);
    (* Move the hole at the root down to a leaf of [a.(0 .. k-1)]
       ([bubble]), then sift [e] up from there ([trickleup]). *)
    let i = ref 0 and j = ref (maxson a k 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a k !i
    done;
    let sifting = ref true in
    while !sifting do
      let father = (!i - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          sifting := false
        end
      end
      else begin
        a.(!i) <- e;
        sifting := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let of_sorted_opt xs p =
  if Array.length xs = 0 then None else Some (of_sorted xs p)

let of_sample xs p =
  let copy = Array.copy xs in
  sort copy;
  of_sorted copy p

let many_of_sample xs ps =
  let copy = Array.copy xs in
  sort copy;
  List.map (fun p -> (p, of_sorted copy p)) ps

(* Distribution-free order-statistic confidence interval for the
   p-quantile: the number of sample points below the true quantile is
   Binomial(n, p), so order statistics at np ± z√(np(1−p)) bracket it
   with ≈[confidence] probability (normal approximation; indices are
   clamped to the sample, which makes the interval conservative at the
   extremes — the usual behaviour for ±3σ tails of moderate n). *)
let ci ?(confidence = 0.95) xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.ci: empty sample";
  check_p ~who:"Quantile.ci" p;
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Quantile.ci: confidence outside (0,1)";
  if n = 1 then (xs.(0), xs.(0))
  else begin
    let z = Special.normal_quantile (0.5 +. (confidence /. 2.0)) in
    let np = float_of_int n *. p in
    let hw = z *. sqrt (float_of_int n *. p *. (1.0 -. p)) in
    let clamp i = max 0 (min (n - 1) i) in
    let lo = clamp (int_of_float (Float.floor (np -. hw))) in
    let hi = clamp (int_of_float (Float.ceil (np +. hw))) in
    (xs.(lo), xs.(hi))
  end

let sigma_levels = [ -3; -2; -1; 0; 1; 2; 3 ]

let probability_of_sigma n = Special.normal_cdf n
let sigma_of_probability p = Special.normal_quantile p

let empirical_sigma_level xs n =
  of_sample xs (probability_of_sigma (float_of_int n))
