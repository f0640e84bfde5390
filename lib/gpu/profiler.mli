(** The kernel profiler (§5.2).

    Takes a candidate kernel (a convex set of primitives plus its output
    set), decides which backend would implement it, and returns the
    modelled latency — or rejects the candidate, mirroring the paper's
    rules: memory-intensive subgraphs go to the generated
    (TVM-MetaSchedule-style) backend, subgraphs with exactly one linear
    transformation primitive go to vendor libraries, everything else is
    rejected ("Profiling returns ∞"). Simulated tuning time feeds
    Table 2 via {!Profile_cache}. *)

open Ir

type config = {
  cost : Cost_model.config;
  max_tvm_prims : int;
      (** "too many operators to generate within one kernel" (§6.5) *)
}

val default_config : config

(** Layout/elementwise primitives a vendor kernel absorbs around its
    linear primitive (transposed operands, bias/activation epilogues):
    4. *)
val max_vendor_companions : int

type result = {
  latency_us : float;
  backend : Cost_model.backend_kind;
  tuning_time_s : float;  (** simulated auto-tuning wall-clock cost *)
}

(** [signature g members ~outputs ~spec ~precision] — canonical structural
    key of a candidate kernel: member nodes renumbered by position,
    external inputs reduced to their shapes. Structurally identical
    subgraphs from different graph regions share one key, which is what
    lets {!Profile_cache} count each distinct kernel's tuning once. *)
val signature :
  Primgraph.t ->
  Bitset.t ->
  outputs:int list ->
  spec:Spec.t ->
  precision:Precision.t ->
  string

(** [profile cfg ~spec ~precision g members ~outputs] — generate-and-
    profile one candidate kernel; [None] means rejected. Carries the
    {!Faults.site-Profiler} injection site: an installed policy can make
    any call raise {!Faults.Injected} (callers treat that like a failed
    measurement and reject the candidate). *)
val profile :
  config ->
  spec:Spec.t ->
  precision:Precision.t ->
  Primgraph.t ->
  Bitset.t ->
  outputs:int list ->
  result option
