(** Minimal JSON implementation (parser + printer).

    Stands in for the ONNX protobuf interchange (§5.1): graphs serialize
    to JSON documents with the same information content. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_jsonw j] — value-exact conversion to the write-only AST of
    {!Obs.Jsonw}, which prints every document of the system. *)
val to_jsonw : t -> Obs.Jsonw.t

(** Compact (whitespace-free) rendering through {!Obs.Jsonw.to_string}:
    integers print without a decimal point, other finite numbers with 17
    significant digits (round-trip exact), and a non-finite number as
    [null]. *)
val to_string : t -> string

(** Raised by {!of_string} with a message and the byte offset. *)
exception Parse_error of string * int

(** Strict parser (no trailing garbage, no comments); [\uXXXX] escapes
    decode to UTF-8. *)
val of_string : string -> t

(** [member key j] — field lookup on objects, [None] otherwise. *)
val member : string -> t -> t option

val to_list_exn : t -> t list
val to_string_exn : t -> string
val to_float_exn : t -> float

(** Raises [Invalid_argument] unless the number is an exact integer in
    the [int] range (no truncation). *)
val to_int_exn : t -> int
