(* The whole generator lives in one 41-byte [bytes] so that drawing
   allocates nothing: the four xoshiro256++ words at byte offsets 0, 8,
   16 and 24, the IEEE bits of the cached second deviate of the polar
   method at 32, and at 40 a flag saying whether that spare is valid.
   The unchecked 64-bit load/store primitives compile to plain memory
   accesses on unboxed int64 values; mutable [int64] record fields or a
   [float option] spare would box on every draw instead. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let state_bytes = 41
let spare_at = 32
let has_spare_at = 40

let[@inline] make s0 s1 s2 s3 =
  let g = Bytes.create state_bytes in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  set64 g spare_at 0L;
  Bytes.unsafe_set g has_spare_at '\000';
  g

(* splitmix64: used to expand the user seed into four state words, and to
   derive child seeds in [split] and [derive].  Constants from Steele et
   al. (2014).  A step adds [golden] to the running state and returns
   [mix] of the new state; callers thread the state as plain [int64]
   lets so it never leaves registers. *)
let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Four consecutive splitmix64 outputs from running state [st]. *)
let[@inline] of_splitmix st =
  let z0 = Int64.add st golden in
  let z1 = Int64.add z0 golden in
  let z2 = Int64.add z1 golden in
  let z3 = Int64.add z2 golden in
  make (mix z0) (mix z1) (mix z2) (mix z3)

let create ~seed = of_splitmix (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 g =
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  result

let split g = of_splitmix (bits64 g)

let derive g ~index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  (* Hash the index, then fold each parent state word into the seeding
     stream so distinct parents and distinct indices both decorrelate.
     [g] is not advanced: the child depends only on (state, index), which
     is what makes index-addressed parallel sampling order-independent. *)
  let z = Int64.add (Int64.of_int index) golden in
  let z0 = Int64.add (Int64.logxor (mix z) (get64 g 0)) golden in
  let z1 = Int64.add (Int64.logxor z0 (get64 g 8)) golden in
  let z2 = Int64.add (Int64.logxor z1 (get64 g 16)) golden in
  let z3 = Int64.add (Int64.logxor z2 (get64 g 24)) golden in
  make (mix z0) (mix z1) (mix z2) (mix z3)

(* 53-bit mantissa of the raw output, mapped to [0,1). *)
let[@inline] uniform g =
  let x = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float x *. 0x1.0p-53

let float g b = uniform g *. b

let uniform_range g ~lo ~hi = lo +. (uniform g *. (hi -. lo))

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for n < 2^24,
     which is far below Monte-Carlo noise; use masked rejection anyway. *)
  let rec go () =
    let x = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
    let x = x land max_int in
    let r = x mod n in
    if x - r + (n - 1) < 0 then go () else r
  in
  go ()

let[@inline] gaussian g =
  if Bytes.unsafe_get g has_spare_at <> '\000' then begin
    Bytes.unsafe_set g has_spare_at '\000';
    Int64.float_of_bits (get64 g spare_at)
  end
  else begin
    let u = ref 0.0 and v = ref 0.0 and s = ref 1.0 in
    while !s >= 1.0 || !s = 0.0 do
      u := (2.0 *. uniform g) -. 1.0;
      v := (2.0 *. uniform g) -. 1.0;
      s := (!u *. !u) +. (!v *. !v)
    done;
    let s = !s in
    let m = sqrt (-2.0 *. log s /. s) in
    set64 g spare_at (Int64.bits_of_float (!v *. m));
    Bytes.unsafe_set g has_spare_at '\001';
    !u *. m
  end

let[@inline] gaussian_mu_sigma g ~mu ~sigma = mu +. (sigma *. gaussian g)

let lognormal g ~mu ~sigma = exp (gaussian_mu_sigma g ~mu ~sigma)

let exponential g ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.uniform g) /. rate

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int g (Array.length a))
