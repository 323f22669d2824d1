(** JSON-lines request/response codec for the timing server.

    One request or response is one flat JSON object — string, number,
    boolean or null fields, no nesting, no arrays — so the codec stays
    dependency-free (the same discipline as the edit-script format in
    {!Nsigma_netlist.Edit}).  Nested payloads (e.g. a retime edit)
    travel as a JSON-encoded string field.

    Emission is deterministic: fields render in the order given,
    numbers as ["%.0f"] when integral and ["%.17g"] otherwise, so a
    float round-trips bit for bit — response equality between a warm
    server and a cold one-shot process is plain string equality.

    Two wire framings carry the same lines: newline-delimited JSON
    ([Jsonl], the default) and netstring-style length prefixing
    ([Length_prefixed], [<byte-count>:<payload>]) for clients whose
    payloads may embed newlines.  {!decoder} performs incremental
    de-framing over arbitrary read boundaries for both. *)

type jvalue = Jnull | Jbool of bool | Jnum of float | Jstr of string

exception Protocol_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!Protocol_error} raiser. *)

(** {2 Parsing} *)

val parse_line : string -> (string * jvalue) list
(** Parse one flat object, preserving field order.
    @raise Protocol_error on malformed input or duplicate fields. *)

val find : (string * jvalue) list -> string -> jvalue option

val str_field : (string * jvalue) list -> string -> string
(** @raise Protocol_error when missing or not a string. *)

val num_field : (string * jvalue) list -> string -> float
val int_field : (string * jvalue) list -> string -> int
val opt_str_field : (string * jvalue) list -> string -> default:string -> string
val opt_num_field : (string * jvalue) list -> string -> default:float -> float
val opt_int_field : (string * jvalue) list -> string -> default:int -> int

(** {2 Emission} *)

val to_line : (string * jvalue) list -> string
(** Render a flat object (no trailing newline). *)

val signature : (string * jvalue) list -> string
(** Canonical identity of a request for coalescing: the fields sorted
    by name with ["id"] dropped, rendered as {!to_line}.  Two requests
    with equal signatures ask the same question and may share one
    computation. *)

(** {2 Framing} *)

type framing = Jsonl | Length_prefixed

val framing_name : framing -> string
val framing_of_name : string -> framing
(** @raise Protocol_error on an unknown name. *)

val encode : framing -> string -> string
(** Frame one message for the wire: [line ^ "\n"] under [Jsonl],
    [sprintf "%d:%s" length line] under [Length_prefixed]. *)

type decoder
(** Incremental de-framer: feed raw received bytes in, pull complete
    messages out, independent of how reads split the stream. *)

val max_frame : int
(** Largest message, in bytes, a {!decoder} accepts (1 MiB). *)

val decoder : framing -> decoder

val feed : decoder -> bytes -> int -> unit
(** Append the first [len] bytes of the buffer to the pending input. *)

val next : decoder -> string option
(** The next complete message, de-framed ([Jsonl] strips the newline
    and any trailing [\r]), or [None] when more bytes are needed.
    @raise Protocol_error on a malformed length prefix, or on a message
    longer than {!max_frame} bytes — declared by its length prefix, or
    a [Jsonl] line (counting any [\r]) or newline-free buffer past the
    cap. *)

val pending : decoder -> bool
(** Whether un-consumed bytes remain buffered (a partial message). *)
