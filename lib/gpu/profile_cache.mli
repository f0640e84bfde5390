(** Profile database (the paper's "TVM database", §6.5/A.7).

    Caches profiling results by canonical kernel signature so structurally
    identical candidates are tuned once, and accumulates the simulated
    tuning time Table 2 reports. The table is striped into independently
    locked shards, so concurrent lookup/insert from several orchestrator
    worker domains is safe; a miss profiles under its shard lock, so each
    distinct kernel is tuned exactly once even under races. *)

open Ir

type t

(** [create ?shards ()] — an empty cache striped over [shards] (default
    64, clamped to at least 1) independently locked hash tables. *)
val create : ?shards:int -> unit -> t

(** {!Profiler.profile} with this table as its memo: a statically rejected
    candidate is neither signed nor looked up (and adds no entry); a miss
    prices the candidate and charges its tuning time; a hit is free. Safe
    to call from several domains. *)
val profile :
  ?facts:Profiler.facts ->
  ?ext_inputs:int list ->
  t ->
  max_tvm_prims:int ->
  spec:Spec.t ->
  precision:Precision.t ->
  Primgraph.t ->
  Bitset.t ->
  outputs:int list ->
  Profiler.result option

(** Accumulated simulated tuning time (each distinct kernel charged once). *)
val tuning_time_s : t -> float

(** Lookups answered from the table (statically accepted candidates only). *)
val hits : t -> int

(** Lookups that had to profile. *)
val misses : t -> int

(** Number of distinct accepted candidate kernels profiled so far. *)
val distinct_kernels : t -> int

(** {1 Measured timings}

    Wall-clock measurements from real native-kernel executions (the
    C-codegen backend), keyed by the same canonical {!Profiler.signature}
    as the modelled profiles so the two can be joined. The store is
    process-global — it accumulates calibration data across executor
    runs — and keeps the best (minimum) sample per kernel, the way real
    autotuners fold repeated measurements. *)

(** [record_measured ~key ~us] — fold one measured kernel wall-clock into
    the store. Non-finite and negative samples are discarded. *)
val record_measured : key:string -> us:float -> unit

(** Best (minimum) measured latency for a kernel signature, if any. *)
val measured_us : string -> float option

(** Number of samples folded into a kernel signature's entry. *)
val measured_count : string -> int

(** All measured entries as [(signature, best_us, samples)], sorted by
    signature. *)
val measured_entries : unit -> (string * float * int) list

(** Clear the process-global measured store (tests, bench isolation). *)
val reset_measured : unit -> unit
