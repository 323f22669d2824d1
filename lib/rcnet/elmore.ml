type scratch = {
  down : float array;
  elmore : float array;
  s2 : float array;
  m2 : float array;
}

let scratch n =
  if n < 0 then invalid_arg "Elmore.scratch: negative size";
  {
    down = Array.make n 0.0;
    elmore = Array.make n 0.0;
    s2 = Array.make n 0.0;
    m2 = Array.make n 0.0;
  }

(* The one pass every metric here is read from.  First moment: the
   root sees the driver resistance times all capacitance, and each node
   adds its segment's R times its downstream C.  Second moment via the
   weighted-downstream recurrence: with T_k the Elmore delay at k,
   S2(i) = Σ_{k in subtree(i)} C_k·T_k, and m2_i = Σ_{edges e on path}
   R_e·S2(e) (driver edge included).  [second = false] stops after the
   first moment (the [s2]/[m2] arrays are then never touched). *)
let run ~second ~driver_res (t : Rctree.t) (s : scratch) =
  let n = Rctree.n_nodes t in
  let nodes = t.Rctree.nodes in
  let down = s.down and elm = s.elmore in
  if Array.length elm < n || (second && (Array.length s.s2 < n || Array.length s.m2 < n))
  then invalid_arg "Elmore.moments_into: scratch smaller than the tree";
  Rctree.downstream_cap_into t down;
  elm.(0) <- driver_res *. down.(0);
  for i = 1 to n - 1 do
    let nd = nodes.(i) in
    elm.(i) <- elm.(nd.Rctree.parent) +. (nd.Rctree.res *. down.(i))
  done;
  if second then begin
    let s2 = s.s2 and m2 = s.m2 in
    for i = 0 to n - 1 do
      s2.(i) <- nodes.(i).Rctree.cap *. elm.(i)
    done;
    for i = n - 1 downto 1 do
      let p = nodes.(i).Rctree.parent in
      s2.(p) <- s2.(p) +. s2.(i)
    done;
    m2.(0) <- driver_res *. s2.(0);
    for i = 1 to n - 1 do
      let nd = nodes.(i) in
      m2.(i) <- m2.(nd.Rctree.parent) +. (nd.Rctree.res *. s2.(i))
    done
  end

let moments_into ?(driver_res = 0.0) t s = run ~second:true ~driver_res t s

let ln2 = log 2.0

let d2m_of s i =
  let m1 = s.elmore.(i) and m2 = s.m2.(i) in
  if m2 <= 0.0 then m1 *. ln2 else ln2 *. m1 *. m1 /. sqrt m2

let check_node who t i =
  if i < 0 || i >= Rctree.n_nodes t then
    invalid_arg (who ^ ": index out of range")

let delays ?(driver_res = 0.0) t =
  let n = Rctree.n_nodes t in
  let s = { down = Array.make n 0.0; elmore = Array.make n 0.0; s2 = [||]; m2 = [||] } in
  run ~second:false ~driver_res t s;
  s.elmore

let delay_at ?driver_res t i =
  check_node "Elmore.delay_at" t i;
  (delays ?driver_res t).(i)

let delay_to_tap ?driver_res (t : Rctree.t) =
  if Array.length t.taps = 0 then invalid_arg "Elmore.delay_to_tap: no taps";
  (delays ?driver_res t).(t.taps.(0))

let filled ?driver_res t =
  let s = scratch (Rctree.n_nodes t) in
  moments_into ?driver_res t s;
  s

let second_moments ?driver_res t = (filled ?driver_res t).m2

let d2m_at ?driver_res t i =
  check_node "Elmore.d2m_at" t i;
  d2m_of (filled ?driver_res t) i
