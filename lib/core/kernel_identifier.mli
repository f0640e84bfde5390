(** The kernel identifier (Algorithm 1).

    Enumerates all execution states, takes pairwise differences to obtain
    every convex subgraph (Theorem 1), enumerates possible output sets
    (Definition 3), and profiles each candidate. Candidates the profiler
    rejects — too many primitives, multiple linear primitives, opaque
    companions — are discarded, mirroring §6.5's observation that simple
    heuristics reject most of the quadratic candidate space. *)

open Ir

(** Output-set limit: a subgraph whose boundary has at most this many
    nodes (2) is offered every non-empty subset of it as an output set;
    a larger boundary only as a whole (Definition 3). *)
val max_boundary_enum : int

(** State guard: {!Exec_state.enumerate_bounded} stops a segment's
    enumeration at this many execution states (200,000). *)
val max_states : int

type config = {
  profiler : Gpu.Profiler.config;
      (** also caps enumerated subgraphs at the largest kernel it can
          accept: [max_tvm_prims], or a vendor primitive with its
          companions (§6.5) *)
}

val default_config : config

(** [kernel_cap cfg] — the largest kernel, in primitives, that
    enumeration keeps: the largest the profiler can accept. *)
val kernel_cap : config -> int

type stats = {
  states : int;
  states_truncated : bool;
      (** enumeration stopped at the state guard: the candidate set is
          valid but incomplete, and callers should surface the truncation *)
  distinct_subgraphs : int;
  profiled : int;
      (** (subgraph, output-set) pairs sent to the profiler, statically
          rejected ones included: [profiled = accepted + rejected] *)
  accepted : int;
  rejected : int;
  profile_failures : int;
      (** profiler calls that raised (injected faults / crashed
          measurements); counted within [rejected] *)
}

(** All-zero statistics — the record for a segment whose identification
    was skipped or failed entirely. *)
val empty_stats : stats

(** [identify cfg ~spec ~precision ~cache g] — all accepted candidate
    kernels of [g] plus enumeration statistics. Structurally identical
    candidates are profiled once via [cache] (the paper's TVM database). *)
val identify :
  config ->
  spec:Gpu.Spec.t ->
  precision:Gpu.Precision.t ->
  cache:Gpu.Profile_cache.t ->
  Primgraph.t ->
  Candidate.t array * stats
