(** Length-prefixed framed JSON (see the interface for the wire format). *)

let max_frame_bytes = 64 * 1024 * 1024

exception Frame_error of string

let () =
  Printexc.register_printer (function
    | Frame_error msg -> Some (Printf.sprintf "Serve.Protocol.Frame_error(%s)" msg)
    | _ -> None)

let frame_fail fmt = Printf.ksprintf (fun s -> raise (Frame_error s)) fmt

let header (len : int) : string =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (len land 0xff);
  Bytes.to_string b

let encode (j : Obs.Jsonw.t) : string =
  let payload = Obs.Jsonw.to_string j in
  let len = String.length payload in
  if len > max_frame_bytes then frame_fail "outgoing frame of %d bytes exceeds the bound" len;
  header len ^ payload

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let w = Unix.write_substring fd s off (n - off) in
      if w = 0 then frame_fail "write returned 0 (peer gone)";
      go (off + w)
    end
  in
  go 0

let write_frame (fd : Unix.file_descr) (j : Obs.Jsonw.t) : unit = write_all fd (encode j)

(* Read exactly [n] bytes. [eof_ok] permits a clean EOF before the first
   byte (between frames); EOF anywhere else is a truncated frame. *)
let read_exact (fd : Unix.file_descr) (n : int) ~(eof_ok : bool) : Bytes.t option =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Some buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 ->
        if off = 0 && eof_ok then None
        else frame_fail "connection closed mid-frame (%d of %d bytes)" off n
      | r -> go (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame (fd : Unix.file_descr) : Onnx.Json.t option =
  match read_exact fd 4 ~eof_ok:true with
  | None -> None
  | Some hdr ->
    let len =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    if len > max_frame_bytes then frame_fail "frame of %d bytes exceeds the bound" len;
    let payload =
      match read_exact fd len ~eof_ok:false with
      | Some b -> Bytes.to_string b
      | None -> assert false
    in
    (match Onnx.Json.of_string payload with
    | j -> Some j
    | exception Onnx.Json.Parse_error (msg, off) ->
      frame_fail "unparsable frame payload at byte %d: %s" off msg)

(* ------------------------------ requests ------------------------------ *)

type request = {
  verb : string;
  model : string option;
  graph_doc : string option;
  small : bool;
  batch : int;
  gpu : string option;
  precision : string option;
  deadline_ms : float option;
  backend : string option;
  no_cache : bool;
  batch_lo : int option;  (* "table" verb: first batch the table covers *)
  batch_hi : int option;  (* "table" verb: last batch the table covers *)
}

let default_request =
  {
    verb = "health";
    model = None;
    graph_doc = None;
    small = false;
    batch = 1;
    gpu = None;
    precision = None;
    deadline_ms = None;
    backend = None;
    no_cache = false;
    batch_lo = None;
    batch_hi = None;
  }

(* Members at their [default_request] value are omitted on the wire. *)
let request_codec : request Onnx.Codec.t =
  let d = default_request in
  let unless_default default v = if v = default then None else Some v in
  Onnx.Codec.(
    obj
      (fun verb model graph_doc small batch gpu precision deadline_ms backend no_cache
           batch_lo batch_hi ->
        {
          verb;
          model;
          graph_doc;
          small = Option.value small ~default:d.small;
          batch = Option.value batch ~default:d.batch;
          gpu;
          precision;
          deadline_ms;
          backend;
          no_cache = Option.value no_cache ~default:d.no_cache;
          batch_lo;
          batch_hi;
        })
    |> field "verb" string (fun r -> r.verb)
    |> opt "model" string (fun r -> r.model)
    |> opt "graph" string (fun r -> r.graph_doc)
    |> opt "small" bool (fun r -> unless_default d.small r.small)
    |> opt "batch" int (fun r -> unless_default d.batch r.batch)
    |> opt "gpu" string (fun r -> r.gpu)
    |> opt "precision" string (fun r -> r.precision)
    |> opt "deadline_ms" float (fun r -> r.deadline_ms)
    |> opt "backend" string (fun r -> r.backend)
    |> opt "no_cache" bool (fun r -> unless_default d.no_cache r.no_cache)
    |> opt "batch_lo" int (fun r -> r.batch_lo)
    |> opt "batch_hi" int (fun r -> r.batch_hi)
    |> finish)

let request_to_json = Onnx.Codec.encode request_codec

let error_response ~(status : string) (msg : string) : Obs.Jsonw.t =
  Obs.Jsonw.Obj [ ("status", Obs.Jsonw.Str status); ("error", Obs.Jsonw.Str msg) ]
