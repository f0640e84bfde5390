(** Structured diagnostics emitted by the static analysis passes.

    Every verifier finding carries a severity, the pass that produced it, a
    location inside the artifact being checked (a graph node, a plan
    kernel, a rewrite rule, ...), and a human-readable message. A report is
    a list of findings; only [Error]-severity findings make an artifact
    invalid — warnings flag suspicious-but-legal structure (dead nodes,
    empty output sets) and infos carry statistics. *)

type severity = Error | Warning | Info

type location =
  | Node of int  (** a graph node id *)
  | Kernel of int  (** a plan kernel, by position (0-based) *)
  | Output of int  (** a declared graph output id *)
  | Rule of string  (** a named rewrite/fission rule *)
  | Whole  (** the artifact as a whole *)

type diag = {
  severity : severity;
  pass : string;  (** emitting pass, e.g. "graph", "plan", "rules" *)
  loc : location;
  message : string;
}

type report = diag list

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let location_to_string = function
  | Node i -> Printf.sprintf "node %d" i
  | Kernel i -> Printf.sprintf "kernel %d" i
  | Output i -> Printf.sprintf "output %d" i
  | Rule name -> Printf.sprintf "rule %s" name
  | Whole -> "graph"

let make severity ~pass ~loc fmt =
  Printf.ksprintf (fun message -> { severity; pass; loc; message }) fmt

let error ~pass ~loc fmt = make Error ~pass ~loc fmt
let warning ~pass ~loc fmt = make Warning ~pass ~loc fmt
let info ~pass ~loc fmt = make Info ~pass ~loc fmt

let errors (r : report) = List.filter (fun d -> d.severity = Error) r
let warnings (r : report) = List.filter (fun d -> d.severity = Warning) r
let has_errors (r : report) = List.exists (fun d -> d.severity = Error) r

(** [count_severity r] is [(errors, warnings, infos)]. *)
let count_severity (r : report) =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) r

let pp_diag ppf (d : diag) =
  Format.fprintf ppf "[%s] %s: %s: %s"
    (severity_to_string d.severity)
    d.pass
    (location_to_string d.loc)
    d.message

(** [pp ppf r] prints one finding per line followed by a summary. *)
let pp ppf (r : report) =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp_diag d) r;
  let e, w, i = count_severity r in
  Format.fprintf ppf "%d error%s, %d warning%s, %d info@." e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")
    i

let to_string (r : report) : string = Format.asprintf "%a" pp r

(** [error_summary r] is a compact one-line rendering of the errors only,
    suitable for embedding in an exception message. *)
let error_summary (r : report) : string =
  match errors r with
  | [] -> "no errors"
  | errs ->
    String.concat "; "
      (List.map
         (fun d -> Printf.sprintf "%s: %s: %s" d.pass (location_to_string d.loc) d.message)
         errs)

(** [to_json ?meta r] — the [korch-lint/1] document for a report, the
    machine-readable form [korch_cli check --json] prints:

    {[
      { "schema": "korch-lint/1",
        "meta": { ... },                     // [meta], verbatim
        "summary": { "errors": E, "warnings": W, "infos": I,
                     "max_severity": "error" | "warning" | "info" | null },
        "findings": [
          { "severity": "error", "pass": "vrange",
            "loc": "node 12", "message": "..." }, ... ] }
    ]} *)
let to_json ?(meta : (string * Obs.Jsonw.t) list = []) (r : report) : Obs.Jsonw.t =
  let module J = Obs.Jsonw in
  let e, w, i = count_severity r in
  let max_severity =
    match (e, w, i) with
    | 0, 0, 0 -> J.Null
    | 0, 0, _ -> J.Str (severity_to_string Info)
    | 0, _, _ -> J.Str (severity_to_string Warning)
    | _ -> J.Str (severity_to_string Error)
  in
  J.Obj
    [
      ("schema", J.Str "korch-lint/1");
      ("meta", J.Obj meta);
      ( "summary",
        J.Obj
          [ ("errors", J.Int e); ("warnings", J.Int w); ("infos", J.Int i);
            ("max_severity", max_severity) ] );
      ( "findings",
        J.List
          (List.map
             (fun d ->
               J.Obj
                 [
                   ("severity", J.Str (severity_to_string d.severity));
                   ("pass", J.Str d.pass);
                   ("loc", J.Str (location_to_string d.loc));
                   ("message", J.Str d.message);
                 ])
             r) );
    ]

let json_string ?meta (r : report) : string = Obs.Jsonw.to_string (to_json ?meta r)
