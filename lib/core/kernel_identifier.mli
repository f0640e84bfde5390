(** The kernel identifier (Algorithm 1).

    Enumerates all execution states, takes pairwise differences to obtain
    every convex subgraph (Theorem 1), enumerates possible output sets
    (Definition 3), and profiles each candidate. Candidates the profiler
    rejects — too many primitives, multiple linear primitives, opaque
    companions — are discarded, mirroring §6.5's observation that simple
    heuristics reject most of the quadratic candidate space. *)

open Ir

type config = {
  max_kernel_prims : int;
      (** subgraphs larger than this are skipped before profiling (§6.5) *)
  prefilter : bool;
      (** drop candidates dominated by their members' singleton kernels —
          the paper's future-work "lightweight cost model" filter (§8) *)
  profiler : Gpu.Profiler.config;
}

val default_config : config

type stats = {
  states : int;
  states_truncated : bool;
      (** enumeration stopped at the state guard: the candidate set is
          valid but incomplete, and callers should surface the truncation *)
  distinct_subgraphs : int;
  profiled : int;  (** (subgraph, output-set) pairs sent to the profiler *)
  accepted : int;
  rejected : int;
  prefiltered : int;  (** accepted candidates later dropped as dominated *)
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
