(** Minimal JSON implementation (parser + printer).

    Stands in for the ONNX protobuf interchange (§5.1): graphs serialize to
    a JSON document with the same information content — node list with op
    type, attributes, input edges, shapes, and output markers. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)

(** [to_jsonw j] — the same document in the write-only AST, value for
    value. *)
let rec to_jsonw : t -> Obs.Jsonw.t = function
  | Null -> Obs.Jsonw.Null
  | Bool b -> Obs.Jsonw.Bool b
  | Num n -> Obs.Jsonw.Float n
  | Str s -> Obs.Jsonw.Str s
  | List l -> Obs.Jsonw.List (List.map to_jsonw l)
  | Obj kvs -> Obs.Jsonw.Obj (List.map (fun (k, v) -> (k, to_jsonw v)) kvs)

(** [to_string j] — compact JSON text, printed by {!Obs.Jsonw}. *)
let to_string (j : t) : string = Obs.Jsonw.to_string (to_jsonw j)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

exception Parse_error of string * int

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (msg, st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit value =
  if
    st.pos + String.length lit <= String.length st.src
    && String.sub st.src st.pos (String.length lit) = lit
  then begin
    st.pos <- st.pos + String.length lit;
    value
  end
  else fail st ("expected " ^ lit)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> begin
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        (* \uXXXX: decode BMP code points to UTF-8. *)
        if st.pos + 4 >= String.length st.src then fail st "bad unicode escape";
        let hex = String.sub st.src (st.pos + 1) 4 in
        let code =
          try int_of_string ("0x" ^ hex) with _ -> fail st "bad unicode escape"
        in
        st.pos <- st.pos + 4;
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> fail st "bad escape");
      advance st;
      go ()
    end
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail st ("bad number: " ^ text)

let rec parse_value st : t =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        expect st '"';
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '"' ->
    advance st;
    Str (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

(** [of_string s] — parse a JSON document. Raises {!Parse_error}. *)
let of_string (s : string) : t =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_exn = function List l -> l | _ -> invalid_arg "Json: expected list"
let to_string_exn = function Str s -> s | _ -> invalid_arg "Json: expected string"
let to_float_exn = function Num f -> f | _ -> invalid_arg "Json: expected number"
(* Exact ints only: a fraction or a value outside [min_int, max_int] is
   rejected, never truncated. *)
let to_int_exn j =
  let f = to_float_exn j in
  if Float.is_integer f && f >= Float.of_int min_int && f < -.Float.of_int min_int then
    int_of_float f
  else invalid_arg (Printf.sprintf "Json: %s is not an int" (to_string j))
