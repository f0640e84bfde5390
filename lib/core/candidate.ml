(** Candidate kernels (§4.1).

    A candidate is a convex primitive subgraph together with one possible
    output set (Definition 3) and the latency/backend the profiler
    assigned. The segment solver selects a subset of candidates; several
    candidates may share the same member set but publish different
    outputs. *)

open Ir

type t = {
  members : Bitset.t;  (** executable primitives of this kernel *)
  outputs : int list;  (** published primitive ids (possible output set) *)
  ext_inputs : int list;
      (** producers outside [members] feeding it, including source nodes *)
  latency_us : float;
  backend : Gpu.Cost_model.backend_kind;
}

let pp ppf (c : t) =
  Format.fprintf ppf "{%s -> {%s} %.3fus %s}"
    (Bitset.to_string c.members)
    (String.concat "," (List.map string_of_int c.outputs))
    c.latency_us
    (Gpu.Cost_model.backend_to_string c.backend)
