(** Minimal JSON writer for reports and traces (write-only; [Onnx.Json]
    parses the output back, and prints its own documents through
    {!to_string}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering. Non-finite floats print as [null] so the document
    always parses; integer-valued floats print without a decimal point,
    others with 17 significant digits (round-trip exact). *)
val to_string : t -> string
