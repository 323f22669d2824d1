type t = {
  n : int;
  mean : float;
  m2 : float;  (* Σ (x-μ)² *)
  m3 : float;  (* Σ (x-μ)³ *)
  m4 : float;  (* Σ (x-μ)⁴ *)
}

type summary = {
  n : int;
  mean : float;
  std : float;
  skewness : float;
  kurtosis : float;
}

let empty = { n = 0; mean = 0.0; m2 = 0.0; m3 = 0.0; m4 = 0.0 }

(* Pébay's single-observation update of central moment sums. *)
let add (acc : t) x =
  let n1 = float_of_int acc.n in
  let n = acc.n + 1 in
  let nf = float_of_int n in
  let delta = x -. acc.mean in
  let delta_n = delta /. nf in
  let delta_n2 = delta_n *. delta_n in
  let term1 = delta *. delta_n *. n1 in
  let mean = acc.mean +. delta_n in
  let m4 =
    acc.m4
    +. (term1 *. delta_n2 *. ((nf *. nf) -. (3.0 *. nf) +. 3.0))
    +. (6.0 *. delta_n2 *. acc.m2)
    -. (4.0 *. delta_n *. acc.m3)
  in
  let m3 =
    acc.m3 +. (term1 *. delta_n *. (nf -. 2.0)) -. (3.0 *. delta_n *. acc.m2)
  in
  let m2 = acc.m2 +. term1 in
  { n; mean; m2; m3; m4 }

(* Merging with [empty] must be the identity *physically* (the other
   accumulator is returned unchanged, so every derived statistic is
   bitwise equal), not just numerically: the general Pébay formulas
   with na = 0 would still compute 0/0-free but rounded values. *)
let merge (a : t) (b : t) =
  if a.n = 0 then b
  else if b.n = 0 then a
  else begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let n = a.n + b.n in
    let nf = na +. nb in
    let delta = b.mean -. a.mean in
    let delta2 = delta *. delta in
    let mean = a.mean +. (delta *. nb /. nf) in
    let m2 = a.m2 +. b.m2 +. (delta2 *. na *. nb /. nf) in
    let m3 =
      a.m3 +. b.m3
      +. (delta *. delta2 *. na *. nb *. (na -. nb) /. (nf *. nf))
      +. (3.0 *. delta *. ((na *. b.m2) -. (nb *. a.m2)) /. nf)
    in
    let m4 =
      a.m4 +. b.m4
      +. (delta2 *. delta2 *. na *. nb
          *. ((na *. na) -. (na *. nb) +. (nb *. nb))
          /. (nf *. nf *. nf))
      +. (6.0 *. delta2
          *. ((na *. na *. b.m2) +. (nb *. nb *. a.m2))
          /. (nf *. nf))
      +. (4.0 *. delta *. ((na *. b.m3) -. (nb *. a.m3)) /. nf)
    in
    { n; mean; m2; m3; m4 }
  end

(* [Array.fold_left add empty xs] with the accumulator in unboxed
   locals instead of one record per sample: the same arithmetic in the
   same order, so bitwise the same result. *)
let of_array xs =
  let n = Array.length xs in
  let mean = ref 0.0 and m2 = ref 0.0 and m3 = ref 0.0 and m4 = ref 0.0 in
  for k = 0 to n - 1 do
    let n1 = float_of_int k in
    let nf = float_of_int (k + 1) in
    let delta = xs.(k) -. !mean in
    let delta_n = delta /. nf in
    let delta_n2 = delta_n *. delta_n in
    let term1 = delta *. delta_n *. n1 in
    mean := !mean +. delta_n;
    m4 :=
      !m4
      +. (term1 *. delta_n2 *. ((nf *. nf) -. (3.0 *. nf) +. 3.0))
      +. (6.0 *. delta_n2 *. !m2)
      -. (4.0 *. delta_n *. !m3);
    m3 := !m3 +. (term1 *. delta_n *. (nf -. 2.0)) -. (3.0 *. delta_n *. !m2);
    m2 := !m2 +. term1
  done;
  { n; mean = !mean; m2 = !m2; m3 = !m3; m4 = !m4 }

let count (acc : t) = acc.n
let mean (acc : t) = acc.mean

let variance (acc : t) =
  if acc.n = 0 then 0.0 else Float.max 0.0 (acc.m2 /. float_of_int acc.n)

let std acc = sqrt (variance acc)

let skewness (acc : t) =
  if acc.n = 0 || acc.m2 <= 0.0 then 0.0
  else begin
    let nf = float_of_int acc.n in
    sqrt nf *. acc.m3 /. (acc.m2 ** 1.5)
  end

let kurtosis (acc : t) =
  if acc.n = 0 || acc.m2 <= 0.0 then 3.0
  else begin
    let nf = float_of_int acc.n in
    nf *. acc.m4 /. (acc.m2 *. acc.m2)
  end

let excess_kurtosis acc = kurtosis acc -. 3.0

let summary (acc : t) : summary =
  {
    n = acc.n;
    mean = mean acc;
    std = std acc;
    skewness = skewness acc;
    kurtosis = kurtosis acc;
  }

let summary_of_array xs = summary (of_array xs)

(* ---- summary-level distribution arithmetic (SSTA sum operator) ---- *)

(* Central moments (per-sample, not Pébay sums) of a summary:
   m2 = σ², m3 = γσ³, m4 = κσ⁴. *)
let central_of_summary (s : summary) =
  let v = s.std *. s.std in
  (v, s.skewness *. v *. s.std, s.kurtosis *. v *. v)

(* The combined n is a confidence tag, not a physical sample count: the
   result of distribution arithmetic is only as trustworthy as its least
   characterised operand, so take the smaller positive count. *)
let combine_n (a : int) (b : int) =
  if a > 0 && b > 0 then min a b else max a b

let of_central ~n ~mean ~m2 ~m3 ~m4 : summary =
  if m2 <= 0.0 then { n; mean; std = 0.0; skewness = 0.0; kurtosis = 3.0 }
  else begin
    let std = sqrt m2 in
    { n; mean; std; skewness = m3 /. (m2 *. std); kurtosis = m4 /. (m2 *. m2) }
  end

let scale_shift (s : summary) ~scale ~shift : summary =
  if scale = 0.0 then
    { n = s.n; mean = shift; std = 0.0; skewness = 0.0; kurtosis = 3.0 }
  else begin
    (* aX + b: σ ↦ |a|σ, γ ↦ sign(a)·γ, κ invariant. *)
    let sgn = if scale < 0.0 then -1.0 else 1.0 in
    {
      n = s.n;
      mean = (scale *. s.mean) +. shift;
      std = Float.abs scale *. s.std;
      skewness = sgn *. s.skewness;
      kurtosis = (if s.std = 0.0 then 3.0 else s.kurtosis);
    }
  end

let add_scaled (a : summary) ~scale (b : summary) : summary =
  (* a + scale·b for independent a, b: means add; central moments of the
     scaled term come from scale_shift; cross terms with odd powers of
     either centred operand vanish, leaving
     m2 = m2a + m2b, m3 = m3a + m3b, m4 = m4a + m4b + 6·m2a·m2b. *)
  let b = scale_shift b ~scale ~shift:0.0 in
  let m2a, m3a, m4a = central_of_summary a in
  let m2b, m3b, m4b = central_of_summary b in
  of_central ~n:(combine_n a.n b.n) ~mean:(a.mean +. b.mean) ~m2:(m2a +. m2b)
    ~m3:(m3a +. m3b)
    ~m4:(m4a +. m4b +. (6.0 *. m2a *. m2b))

let add_independent a b = add_scaled a ~scale:1.0 b

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mu=%.6g sigma=%.6g gamma=%.4f kappa=%.4f" s.n s.mean
    s.std s.skewness s.kurtosis
