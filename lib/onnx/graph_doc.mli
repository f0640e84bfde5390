(** The graph interchange document (the ONNX stand-in of §5.1), declared
    once with {!Codec}:
    {v
    { "format": "korch-onnx-json", "version": 1, "kind": "operator"|"primitive",
      "nodes": [ {"id": 0, "op": {"kind": ..., ...}, "inputs": [..], "shape": [..]} ],
      "outputs": [ .. ] }
    v}
    Finite numbers print with 17 significant digits; a non-finite one is
    the string ["NaN"], ["Infinity"] or ["-Infinity"], so every graph
    reads back bit for bit (up to NaN payloads). Node ids are positional:
    ["id"] and ["version"] are written but optional on read. Decoding
    checks that every edge points at an earlier node, every dimension is
    at least 1 (a reshape's at least 0) and every output is in range.

    A constant is [{"shape": .., "fill": ..}] plus its fill's members; a
    fold prints as its expression,
    [{"fill": "apply", "op": <primitive>, "args": [<constant>, ..]}], so
    a folded graph's document is about as long as the raw one's. A fold
    must apply a computing primitive and declare the shape it infers. *)

val opgraph : Ir.Opgraph.t Codec.t
val primgraph : Ir.Primgraph.t Codec.t
val opgraph_to_string : Ir.Opgraph.t -> string
val primgraph_to_string : Ir.Primgraph.t -> string

(** The one exception the string readers raise, naming the problem:
    malformed JSON with its byte offset, a member path or a node. *)
exception Format_error of string

(** Parse a document; carries the {!Faults.site-Onnx_parse} injection
    site. Raises {!Format_error}, or [Faults.Injected] when that site
    fires (a transient fault, not a malformed document). *)
val opgraph_of_string : string -> Ir.Opgraph.t

val primgraph_of_string : string -> Ir.Primgraph.t
