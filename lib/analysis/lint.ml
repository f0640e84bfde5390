(** Findings as machine-readable JSON — the [korch-lint/1] schema.

    {[
      { "schema": "korch-lint/1",
        "meta": { ... },                     // caller-provided context
        "summary": { "errors": E, "warnings": W, "infos": I,
                     "max_severity": "error" | "warning" | "info" | null },
        "findings": [
          { "severity": "error", "pass": "vrange",
            "loc": "node 12", "message": "..." }, ... ] }
    ]}

    Consumed by the [@analyze] CI gate and anyone scripting around
    [korch_cli analyze]. *)

module D = Verify.Diagnostics
module J = Obs.Jsonw

let schema = "korch-lint/1"

(** Highest severity present, [None] for an empty report. *)
let max_severity (r : D.report) : D.severity option =
  List.fold_left
    (fun acc d ->
      match (acc, d.D.severity) with
      | Some D.Error, _ | _, D.Error -> Some D.Error
      | Some D.Warning, _ | _, D.Warning -> Some D.Warning
      | _ -> Some D.Info)
    None r

let diag_to_json (d : D.diag) : J.t =
  J.Obj
    [
      ("severity", J.Str (D.severity_to_string d.D.severity));
      ("pass", J.Str d.D.pass);
      ("loc", J.Str (D.location_to_string d.D.loc));
      ("message", J.Str d.D.message);
    ]

(** [to_json ?meta r] — the [korch-lint/1] document for a report. *)
let to_json ?(meta : (string * J.t) list = []) (r : D.report) : J.t =
  let e, w, i = D.count_severity r in
  J.Obj
    [
      ("schema", J.Str schema);
      ("meta", J.Obj meta);
      ( "summary",
        J.Obj
          [
            ("errors", J.Int e);
            ("warnings", J.Int w);
            ("infos", J.Int i);
            ( "max_severity",
              match max_severity r with
              | None -> J.Null
              | Some s -> J.Str (D.severity_to_string s) );
          ] );
      ("findings", J.List (List.map diag_to_json r));
    ]

let json_string ?meta (r : D.report) : string = J.to_string (to_json ?meta r)
