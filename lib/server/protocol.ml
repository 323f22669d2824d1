(* Flat-JSON-object codec, the same hand-rolled shape as the edit-script
   parser in Nsigma_netlist.Edit extended with booleans and null, plus
   the two wire framings.  No json dependency on purpose. *)

type jvalue = Jnull | Jbool of bool | Jnum of float | Jstr of string

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* ---- parsing ---- *)

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail "expected %C at column %d" c (!pos + 1)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          if !pos + 1 >= n then fail "unterminated escape";
          (match line.[!pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> fail "unsupported escape \\%c" c);
          pos := !pos + 2;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub line !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "malformed value at column %d" (!pos + 1)
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a value at column %d" (start + 1);
    let tok = String.sub line start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail "malformed number %S" tok
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> parse_literal "true" (Jbool true)
    | Some 'f' -> parse_literal "false" (Jbool false)
    | Some 'n' -> parse_literal "null" Jnull
    | _ -> Jnum (parse_number ())
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  (match peek () with
  | Some '}' -> incr pos
  | _ ->
    let rec pairs () =
      skip_ws ();
      let k = parse_string () in
      expect ':';
      let v = parse_value () in
      if List.mem_assoc k !fields then fail "duplicate field %S" k;
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
        incr pos;
        pairs ()
      | Some '}' -> incr pos
      | _ -> fail "expected ',' or '}' at column %d" (!pos + 1)
    in
    pairs ());
  skip_ws ();
  if !pos <> n then fail "trailing characters at column %d" (!pos + 1);
  List.rev !fields

let find fields key = List.assoc_opt key fields

let field fields key =
  match find fields key with
  | Some v -> v
  | None -> fail "missing field %S" key

let str_field fields key =
  match field fields key with
  | Jstr s -> s
  | _ -> fail "field %S must be a string" key

let num_field fields key =
  match field fields key with
  | Jnum f -> f
  | _ -> fail "field %S must be a number" key

let int_field fields key =
  let f = num_field fields key in
  if Float.is_integer f then int_of_float f
  else fail "field %S must be an integer, got %g" key f

let opt_str_field fields key ~default =
  match find fields key with
  | None -> default
  | Some (Jstr s) -> s
  | Some _ -> fail "field %S must be a string" key

let opt_num_field fields key ~default =
  match find fields key with
  | None -> default
  | Some (Jnum f) -> f
  | Some _ -> fail "field %S must be a number" key

let opt_int_field fields key ~default =
  match find fields key with
  | None -> default
  | Some _ -> int_field fields key

(* ---- emission ---- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral floats render without an exponent (ids, counts); everything
   else with 17 significant digits, which round-trips an IEEE double
   exactly — bit-identity checks compare these strings. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let value_to_string = function
  | Jnull -> "null"
  | Jbool b -> if b then "true" else "false"
  | Jnum f -> num_to_string f
  | Jstr s -> "\"" ^ escape s ^ "\""

let to_line fields =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": %s" (escape k) (value_to_string v))
         fields)
  ^ "}"

let signature fields =
  fields
  |> List.filter (fun (k, _) -> k <> "id")
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> to_line

(* ---- framing ---- *)

type framing = Jsonl | Length_prefixed

let framing_name = function
  | Jsonl -> "jsonl"
  | Length_prefixed -> "length"

let framing_of_name = function
  | "jsonl" -> Jsonl
  | "length" -> Length_prefixed
  | s -> fail "unknown framing %S (available: jsonl, length)" s

let encode framing line =
  match framing with
  | Jsonl -> line ^ "\n"
  | Length_prefixed -> Printf.sprintf "%d:%s" (String.length line) line

(* Far above any message the protocol carries (the largest request
   and response of the e2e serve mix are under 300 bytes), yet small
   enough that one client cannot make the daemon buffer without bound. *)
let max_frame = 1 lsl 20

type decoder = { d_framing : framing; mutable d_buf : string }

let decoder framing = { d_framing = framing; d_buf = "" }

let feed d bytes len = d.d_buf <- d.d_buf ^ Bytes.sub_string bytes 0 len

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let next d =
  match d.d_framing with
  | Jsonl -> (
    match String.index_opt d.d_buf '\n' with
    | None ->
      if String.length d.d_buf > max_frame then
        fail "frame exceeds %d bytes with no newline" max_frame;
      None
    | Some i when i > max_frame ->
      fail "frame of %d bytes exceeds %d" i max_frame
    | Some i ->
      let line = strip_cr (String.sub d.d_buf 0 i) in
      d.d_buf <- String.sub d.d_buf (i + 1) (String.length d.d_buf - i - 1);
      Some line)
  | Length_prefixed -> (
    match String.index_opt d.d_buf ':' with
    | None ->
      (* A length prefix is at most a handful of digits; anything longer
         is a corrupted stream, not a short read. *)
      if String.length d.d_buf > 20 then
        fail "malformed length prefix (no ':' in %d bytes)"
          (String.length d.d_buf);
      None
    | Some i -> (
      let tok = String.sub d.d_buf 0 i in
      match int_of_string_opt tok with
      | Some len when len > max_frame ->
        fail "frame of %d bytes exceeds %d" len max_frame
      | Some len when len >= 0 ->
        let total = i + 1 + len in
        if String.length d.d_buf < total then None
        else begin
          let payload = String.sub d.d_buf (i + 1) len in
          d.d_buf <-
            String.sub d.d_buf total (String.length d.d_buf - total);
          Some payload
        end
      | _ -> fail "malformed length prefix %S" tok))

let pending d = d.d_buf <> ""
