(** Human-readable orchestration reports. *)

(** [pp_result ppf r] prints node/state/candidate counts, selected kernel
    count, redundancy, estimated latency, simulated tuning time and the
    static memory plan (tensors, slots, peak vs. no-reuse bytes, reuse
    ratio), followed by the degradation-ladder summary: segments per
    tier and any degraded or enumeration-truncated segments. *)
val pp_result : Format.formatter -> Orchestrator.result -> unit

(** [pp_segments ppf r] prints the per-segment outcome table: index,
    ladder tier, selected kernel count, worker retries and notes
    (fallback reason, transform degradation, state truncation). *)
val pp_segments : Format.formatter -> Orchestrator.result -> unit

(** [summary r] is [pp_result] rendered to a string. *)
val summary : Orchestrator.result -> string

(** [segment_table r] is [pp_segments] rendered to a string. *)
val segment_table : Orchestrator.result -> string

(** [execution_to_json ~backend stats] — the optional ["execution"] block
    of a korch-report/1 document: the backend that ran the plan plus the
    native backend's per-kernel accounting (native vs. interpreted kernel
    counts, per-kernel fallbacks with reasons, measured per-kernel
    wall-clocks). Pass the result to {!to_json}'s [?execution]. *)
val execution_to_json :
  backend:Runtime.Backend.t -> Runtime.Backend.exec_stats -> Obs.Jsonw.t

(** [to_json ?meta ?execution r] — machine-readable report, schema [korch-report/1]:
    run-level counts (primitives, states, candidates, kernels, redundancy,
    plan latency, tuning time), the degradation-tier census, a ["memory"]
    object with the {!Runtime.Memplan} stats of the stitched plan (an
    optional field — pre-memplan readers of the schema ignore it), an
    ["analysis"] object with the hazard cross-check outcome
    (status checked/skipped/off plus finding counts — also optional), a
    ["candidate_space"] object naming the cuts an [Optimal] segment is
    exact over (window, kernel cap, output-subset limit, state guard,
    settled-state budget — also optional),
    per-phase wall-clock timings, one object per segment (tier,
    kernel/candidate counts, enumeration stats, settled states, retries,
    fallback reason, phase timings) and a {!Obs.Metrics} snapshot under
    ["metrics"]. [meta] adds a caller-supplied ["meta"] object (model name, GPU, precision, jobs…);
    [execution] adds the optional ["execution"] block (see
    {!execution_to_json}). The output parses back with [Onnx.Json]. *)
val to_json :
  ?meta:(string * Obs.Jsonw.t) list ->
  ?execution:Obs.Jsonw.t ->
  Orchestrator.result ->
  Obs.Jsonw.t

(** [json_string ?meta ?execution r] is [to_json] rendered compactly. *)
val json_string :
  ?meta:(string * Obs.Jsonw.t) list ->
  ?execution:Obs.Jsonw.t ->
  Orchestrator.result ->
  string

(** {2 Round-tripped documents}

    Each schema is declared once as an {!Onnx.Codec.t}. Floats print with
    17 significant digits, so a decode recovers the value bit-identically
    — the round-trip the serving layer's durable plan cache depends on. *)

(** An executable plan: [total_latency_us] and per kernel [prims],
    [outputs], [latency_us], [backend]. Decoding rejects a stored total
    that disagrees with the kernels (a torn or hand-edited document). *)
val plan_codec : Runtime.Plan.t Onnx.Codec.t

val plan_to_json : Runtime.Plan.t -> Obs.Jsonw.t

(** [jsonw_of_json j] — value-exact conversion of a parsed document to
    the write-only AST ({!Onnx.Json.to_jsonw}). *)
val jsonw_of_json : Onnx.Json.t -> Obs.Jsonw.t

(** Schema [korch-plan-table/1]: model/GPU/precision, the batch interval,
    the crossovers and one object per range (bounds, probes, anchor, its
    graph and plan, signature, refinement flag). Decoding checks that the
    ranges partition [lo, hi] and agree with the crossovers. *)
val plan_table_codec : Plan_table.t Onnx.Codec.t

(** [plan_table_codec]'s encoding, rendered compactly. *)
val plan_table_json_string : Plan_table.t -> string

(** One orchestrated (model, platform) pair of a bench run. *)
type bench_entry = {
  experiment : string;
  model : string;
  gpu : string;
  precision : string;
  latency_us : float;  (** modelled plan latency *)
  kernels : int;
  redundancy : int;
  candidates : int;
  states : int;
  peak_mem_bytes : int;  (** planned peak *)
  degraded_segments : int;
}

(** The [korch-bench/1] document, written by the bench harness. Every
    member is deterministic, so [dune runtest] diffs the smoke run's
    document against [bench/baselines/BENCH_smoke.json] byte for byte. *)
val bench_codec : bench_entry list Onnx.Codec.t
