(** Findings as machine-readable JSON — the [korch-lint/1] schema
    consumed by the [@analyze] CI gate. *)

module J = Obs.Jsonw

(** The schema tag, ["korch-lint/1"]. *)
val schema : string

(** [to_json ?meta r] — the [korch-lint/1] document; [meta] lands
    verbatim under the ["meta"] member. *)
val to_json : ?meta:(string * J.t) list -> Verify.Diagnostics.report -> J.t

val json_string : ?meta:(string * J.t) list -> Verify.Diagnostics.report -> string
