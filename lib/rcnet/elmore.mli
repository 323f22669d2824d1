(** First- and second-moment interconnect delay metrics.

    Elmore (eq. 4 of the paper) is the first moment of the impulse
    response; D2M adds the second moment.  An optional driver
    resistance is included as a lumped resistance between the source and
    the root — this is how the wire model accounts for the driver cell
    when forming μ_w.

    Every metric is read from one O(n) pass ({!moments_into}): a
    reverse sweep for downstream capacitance, a forward sweep for the
    Elmore delays, a reverse sweep for the capacitance-weighted delays
    S2 and a forward sweep for m2.  The allocating functions below are
    thin wrappers over it, so the recurrences exist once and a caller
    that keeps its own {!scratch} gets bit-identical numbers with no
    allocation per evaluation. *)

type scratch = {
  down : float array;  (** downstream capacitance per node (F) *)
  elmore : float array;  (** Elmore delay per node (s) — m1 *)
  s2 : float array;  (** Σ over the subtree of C_k·T_k (F·s) *)
  m2 : float array;  (** second moment of the impulse response (s²) *)
}
(** Caller-owned per-node arrays the pass writes into.  Only the first
    [n_nodes] slots are written, so one scratch serves every tree up to
    its size. *)

val scratch : int -> scratch
(** [scratch n] is a zeroed scratch for trees of up to [n] nodes. *)

val moments_into : ?driver_res:float -> Rctree.t -> scratch -> unit
(** Run the pass: fill [down], [elmore], [s2] and [m2] for every node.
    [driver_res] (default 0) multiplies the total downstream
    capacitance at the root.
    @raise Invalid_argument if the scratch is smaller than the tree. *)

val d2m_of : scratch -> int -> float
(** Alpert's D2M metric ln2 · m1²/√m2 at one node of a filled scratch
    (ln2 · m1 where m2 ≤ 0). *)

val delays : ?driver_res:float -> Rctree.t -> float array
(** Per-node Elmore delay (s) from the driver source — the first-moment
    half of the pass, freshly allocated. *)

val delay_at : ?driver_res:float -> Rctree.t -> int -> float
(** Elmore delay at one node.
    @raise Invalid_argument if the index is out of range. *)

val delay_to_tap : ?driver_res:float -> Rctree.t -> float
(** Elmore delay at the first tap — the common single-sink case.
    @raise Invalid_argument if the tree has no tap. *)

val second_moments : ?driver_res:float -> Rctree.t -> float array
(** Per-node second moment m2 of the impulse response (s²), with the same
    lumped-driver convention. *)

val d2m_at : ?driver_res:float -> Rctree.t -> int -> float
(** {!d2m_of} on a fresh pass — a sharper delay estimate than Elmore for
    far-from-source nodes.
    @raise Invalid_argument if the index is out of range. *)
