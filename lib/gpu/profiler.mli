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

(** What every candidate of one graph reads: computed once per graph by
    {!facts}, and passed to {!signature} and {!profile}. *)
type facts = {
  succs : int list array;  (** {!Ir.Graph.succs} *)
  member_tokens : string array;  (** each node spelled as a member: op and shape *)
  ext_tokens : string array;  (** each node spelled as an external input: shape *)
}

val facts : Primgraph.t -> facts

(** [signature ?facts g members ~outputs ~spec ~precision] — canonical
    structural key of a candidate kernel: member nodes renumbered by
    position, external inputs reduced to their shapes, a repeated one to
    a back-reference to its first occurrence. Structurally
    identical subgraphs from different graph regions share one key, which
    is what lets {!Profile_cache} count each distinct kernel's tuning once.
    [facts] must be [facts g]; it never changes the key. *)
val signature :
  ?facts:facts ->
  Primgraph.t ->
  Bitset.t ->
  outputs:int list ->
  spec:Spec.t ->
  precision:Precision.t ->
  string

(** [profile ?facts ?ext_inputs ?memo cfg ~spec ~precision g members
    ~outputs] — generate and profile one candidate kernel; [None] means
    rejected. The one profiling path: {!Stats.kernel_stats} once, the
    static backend rules on them, and only for a candidate they accept
    the {!signature} once and the price from the same stats. [facts] and
    [ext_inputs] (must be [Graph.external_inputs g members]) save
    recomputing them. [memo key measure] decides whether the measurement
    runs for signature [key] (default: always); {!Profile_cache} passes
    its table lookup.

    The measurement carries the {!Faults.site-Profiler} injection site: an
    installed policy can make it raise {!Faults.Injected} (callers treat
    that like a failed measurement and reject the candidate). *)
val profile :
  ?facts:facts ->
  ?ext_inputs:int list ->
  ?memo:(string -> (unit -> result) -> result) ->
  config ->
  spec:Spec.t ->
  precision:Precision.t ->
  Primgraph.t ->
  Bitset.t ->
  outputs:int list ->
  result option
