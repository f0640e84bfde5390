(** Length-prefixed framed JSON over a stream socket.

    Frame format: a 4-byte big-endian unsigned payload length, then
    exactly that many bytes of UTF-8 JSON. One request frame gets one
    response frame on the same connection. No external deps: requests
    parse with {!Onnx.Json}, responses print with {!Obs.Jsonw}.

    Frames are bounded ({!max_frame_bytes}) so a corrupt or hostile
    length prefix cannot make the daemon allocate unbounded memory. *)

(** 64 MiB — generous for a serialized model graph, small enough to shed
    garbage before allocating. *)
val max_frame_bytes : int

(** A malformed, truncated or oversized frame (includes a daemon or
    client dying mid-frame — the receiver sees truncation, never a torn
    JSON document accepted as valid). *)
exception Frame_error of string

(** [header len] — the 4-byte big-endian length prefix alone (exposed for
    tests that craft hostile frames). *)
val header : int -> string

(** [encode j] — the full wire bytes of one frame (header + payload). *)
val encode : Obs.Jsonw.t -> string

(** [write_frame fd j] — send one frame, handling short writes. *)
val write_frame : Unix.file_descr -> Obs.Jsonw.t -> unit

(** [read_frame fd] — [None] on clean EOF (connection closed between
    frames); raises {!Frame_error} on truncation mid-frame, an oversized
    length, or unparsable payload. *)
val read_frame : Unix.file_descr -> Onnx.Json.t option

(** A parsed serving request. Exactly one of [model] / [graph_doc]
    identifies the workload for [optimize] / [run]; admin verbs need
    neither. *)
type request = {
  verb : string;  (** optimize | run | table | stats | health | drain *)
  model : string option;  (** zoo model name *)
  graph_doc : string option;  (** inline ONNX-JSON operator-graph document *)
  small : bool;  (** use the model's reduced test-scale build *)
  batch : int;  (** batch size (cache-key component); default 1 *)
  gpu : string option;  (** override the daemon's GPU target *)
  precision : string option;  (** override the daemon's precision *)
  deadline_ms : float option;  (** per-request orchestration deadline *)
  backend : string option;  (** execution backend for [run] *)
  no_cache : bool;  (** bypass the plan cache (orchestrate fresh) *)
  batch_lo : int option;  (** [table] verb: first covered batch (default 1) *)
  batch_hi : int option;  (** [table] verb: last covered batch *)
}

val default_request : request

(** The request object. Members at their default ({!default_request})
    are omitted and default when absent or [null]; a wrong-typed member,
    e.g. a fractional [batch], is an error naming it. Unknown members are
    ignored (forward compat). *)
val request_codec : request Onnx.Codec.t

(** [request_codec]'s encoder: the client-side rendering of a request. *)
val request_to_json : request -> Obs.Jsonw.t

(** [error_response ~status msg] — a uniform [{status; error}] response
    object ([status] is e.g. ["error"] or ["retry"]). *)
val error_response : status:string -> string -> Obs.Jsonw.t
