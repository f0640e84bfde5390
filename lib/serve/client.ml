(** Socket client with seeded retry (see the interface). *)

exception Request_failed of string

let () =
  Printexc.register_printer (function
    | Request_failed msg -> Some (Printf.sprintf "Serve.Client.Request_failed(%s)" msg)
    | _ -> None)

let request_once ~(socket : string) (j : Obs.Jsonw.t) : Onnx.Json.t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Protocol.write_frame fd j;
      match Protocol.read_frame fd with
      | Some resp -> resp
      | None -> raise (Protocol.Frame_error "daemon closed the connection without replying"))

(* A response the daemon explicitly marked as worth re-offering. *)
exception Soft_retry of string

(* "draining" is deliberately NOT retried by default: a draining daemon
   never comes back on this socket, and the `drain' verb's own success
   response carries that status. *)
let retryable_status (resp : Onnx.Json.t) : string option =
  match Onnx.Json.member "status" resp with
  | Some (Onnx.Json.Str (("overloaded" | "retry") as s)) -> Some s
  | _ -> None

let request ?(policy = Retry.default) ~(socket : string) (j : Obs.Jsonw.t) : Onnx.Json.t =
  let attempt () =
    let resp = request_once ~socket j in
    match retryable_status resp with
    | Some s -> raise (Soft_retry s)
    | None -> resp
  in
  let retryable = function
    | Unix.Unix_error
        ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EPIPE | Unix.ETIMEDOUT
          | Unix.EAGAIN | Unix.EINTR ),
          _,
          _ )
    | Protocol.Frame_error _ | Soft_retry _ ->
      true
    | _ -> false
  in
  match Retry.with_retries ~policy ~retryable attempt with
  | resp -> resp
  | exception Soft_retry s ->
    raise (Request_failed (Printf.sprintf "gave up after %d attempts (last: %s)" policy.Retry.attempts s))
  | exception (Unix.Unix_error _ as e) ->
    raise (Request_failed (Printf.sprintf "gave up after %d attempts (last: %s)" policy.Retry.attempts (Printexc.to_string e)))
  | exception Protocol.Frame_error msg ->
    raise (Request_failed (Printf.sprintf "gave up after %d attempts (last: frame error %s)" policy.Retry.attempts msg))

let wait_ready ?(timeout_s = 30.0) ~(socket : string) () : unit =
  let deadline = Obs.Clock.now_s () +. timeout_s in
  let health = Protocol.request_to_json { Protocol.default_request with Protocol.verb = "health" } in
  let rec go () =
    match request_once ~socket health with
    | _ -> ()
    | exception _ ->
      if Obs.Clock.now_s () > deadline then
        raise (Request_failed (Printf.sprintf "daemon on %s not ready after %.0fs" socket timeout_s))
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()
