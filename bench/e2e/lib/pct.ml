(* Order statistics for latency samples and run-to-run spreads. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the population at or below it (1-based rank ceil(p * n)). *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let percentile s p =
  if Array.length s = 0 then invalid_arg "Pct.percentile: no samples";
  s.(rank (Array.length s) p - 1)

let beyond n p = n - rank n p

let median s =
  let n = Array.length s in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let tail_levels = [ (0.999, "p99.9"); (0.99, "p99"); (0.95, "p95"); (0.90, "p90") ]

(* The highest listed percentile, at most [cap], with at least ten
   samples beyond it.  With too few samples for any tail level to
   repeat from run to run, the median stands in, labelled as such. *)
let tail ?(cap = 0.999) s =
  let n = Array.length s in
  if n = 0 then invalid_arg "Pct.tail: no samples";
  match
    List.find_opt (fun (p, _) -> p <= cap && beyond n p >= 10) tail_levels
  with
  | Some (p, label) -> (label, percentile s p)
  | None -> ("p50", median s)

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), the definition run-to-run
   spreads are judged by. *)
let quartiles values =
  let d = sorted values in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Pct.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median. *)
let spread values =
  let q1, q2, q3 = quartiles values in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
