(** Candidate kernels (§4.1).

    A candidate is a convex primitive subgraph together with one possible
    output set (Definition 3) and the latency/backend the profiler
    assigned. The segment solver selects a subset of candidates; several
    candidates may share a member set but publish different output
    subsets — the mechanism behind redundant execution (§4.2). *)

open Ir

type t = {
  members : Bitset.t;  (** executable primitives of this kernel *)
  outputs : int list;  (** published primitive ids (possible output set) *)
  ext_inputs : int list;
      (** producers outside [members] feeding it, including source nodes *)
  latency_us : float;  (** profiled latency, microseconds *)
  backend : Gpu.Cost_model.backend_kind;  (** who generated the kernel *)
}

val pp : Format.formatter -> t -> unit
