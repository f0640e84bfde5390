(** Socket client for korch_serve with seeded retry.

    One request = one connection: connect, send a frame, read the
    response frame, close. Transport failures (daemon restarting, torn
    connection, truncated frame) and explicitly retryable responses
    ([status] of ["overloaded"] or ["retry"]) are retried
    under a {!Retry} policy — deterministic backoff, so a client that
    outlives a [kill -9]'d daemon reconnects to the restarted one and
    the request never fails. *)

(** Raised when every attempt failed (carries the last failure). *)
exception Request_failed of string

(** [request ?policy ~socket j] — send [j], return the parsed
    response. Retries per [policy] (default {!Retry.default}). *)
val request : ?policy:Retry.policy -> socket:string -> Obs.Jsonw.t -> Onnx.Json.t

(** [request_once ~socket j] — a single attempt, no retry. Raises
    [Unix.Unix_error] / {!Protocol.Frame_error} on transport failure. *)
val request_once : socket:string -> Obs.Jsonw.t -> Onnx.Json.t

(** [wait_ready ?timeout_s ~socket ()] — poll until a [health] request
    succeeds (daemon is up), or raise {!Request_failed} after
    [timeout_s] (default 30). *)
val wait_ready : ?timeout_s:float -> socket:string -> unit -> unit
