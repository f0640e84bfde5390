(** End-to-end Korch pipeline (Figure 1):

    computation graph → operator fission → partition → per-segment
    (primitive-graph transformations → kernel identification → kernel
    profiling → exact segment solve) → stitched executable plan.

    Each segment is solved exactly by {!Segment_solver}: the cheapest path
    over sets of published primitives, which is §4.2's optimum (Eqs.
    2–4) over the selections that also admit a deadlock-free order. A
    path is a schedule, so no cut loop is needed.

    Robustness contract: {e no single segment may kill an orchestration}.
    Each segment walks a degradation ladder — {!tier-Optimal} →
    {!tier-Greedy} → {!tier-Unfused} — so a profiler crash, a solver that
    exhausts its settled-state budget or a worker-domain death degrades
    that one segment instead of aborting the run. The unfused floor (one kernel
    per primitive) is always constructible and always schedulable. A
    stitch or final-verification failure still raises
    {!Orchestration_failed}: there is no sound plan to degrade to at that
    point.

    Fault injection is not configured here: tests and tools install a
    policy around a run with {!Faults.with_policy} or {!Faults.install}. *)

open Ir

(** Structured orchestration errors: which segment, which pipeline stage,
    what happened. *)
module Error : sig
  type site =
    | Transform  (** transformation search on a segment *)
    | Enumerate  (** execution-state enumeration / kernel identification *)
    | Solve  (** the segment solver *)
    | Schedule  (** sequencing selected kernels *)
    | Stitch  (** re-assembling per-segment graphs *)
    | Verify  (** a static-analysis boundary check *)

  val site_to_string : site -> string

  type t = {
    segment : int option;  (** segment index, when the failure is local *)
    site : site;
    detail : string;
  }

  val to_string : t -> string
end

exception Orchestration_failed of Error.t

(** Degradation-ladder tier a segment's final plan came from. *)
type tier =
  | Optimal
      (** the {!Segment_solver}'s cheapest path: exact over the
          segment's candidates, with no gap *)
  | Greedy
      (** the segment solver failed (settled-state budget exhausted, no
          path, or an injected fault); greedy fusion from the
          all-singletons start *)
  | Unfused  (** ladder floor: one kernel per primitive *)

val tier_to_string : tier -> string

(** [Greedy] and [Unfused] count as degraded. *)
val tier_is_degraded : tier -> bool

(** How one segment fared on the ladder. *)
type outcome = {
  tier : tier;
  retries : int;  (** worker-domain failures retried on the main domain *)
  fallback_reason : string option;
      (** first failure that pushed the segment down the ladder *)
  transform_degraded : bool;
      (** transformation search failed; plain CSE (or the raw segment)
          was used instead *)
}

(** The outcome of an untroubled segment: [Optimal], no retries, no
    fallback. Convenient for tests. *)
val ok_outcome : outcome

(** A per-request wall-clock deadline, propagated from the serving layer
    into orchestration. [at_s] is an absolute {!Obs.Clock.now_s} instant;
    [total_s] is the full budget the request started with. *)
type deadline = { at_s : float; total_s : float }

(** [deadline_in total_s] — a deadline [total_s] seconds from now. *)
val deadline_in : float -> deadline

(** The segment solver's settled-state budget per segment (100,000): a
    deterministic measure of solver work, so a segment that exhausts it
    does so for every [jobs] value. [config.deadline] scales it down. *)
val settled_state_limit : int

type config = {
  spec : Gpu.Spec.t;  (** target GPU datasheet *)
  precision : Gpu.Precision.t;  (** FP32 on V100, TF32 on A100 (§6.1) *)
  max_tvm_prims : int;
      (** the kernel cap: the most primitives one generated kernel may
          hold ({!Gpu.Profiler.max_tvm_prims}, 10, by default). The
          profiler rejects a larger one and enumeration keeps nothing
          larger than {!Kernel_identifier.kernel_cap} of it *)
  partition_max_prims : int;  (** segment size bound (default 12) *)
  use_transform : bool;  (** run the TASO-style optimizer per segment *)
  allow_redundancy : bool;
      (** §4.2's relaxation: primitives may execute in several kernels.
          Disable for the ablation (prior-work-style disjoint partitions) *)
  check_invariants : bool;
      (** run the {!Verify} static analyses at every pipeline boundary
          (fissioned graph, each transformed segment, stitched graph and
          plan); violations raise {!Orchestration_failed} with the full
          diagnostic report. On by default. Under the graceful ladder a
          transformed segment that fails verification falls back to the
          untransformed segment; only stitched-graph/plan violations are
          fatal *)
  jobs : int;
      (** worker domains solving independent partition segments
          concurrently. The default is [1] (sequential, no domains
          spawned); the CLI and bench harness default to
          {!Parallel.Domain_pool.default_jobs} via their [-j] flags.
          Plans are bit-identical for every [jobs] value: results merge
          in segment order, the sharded profile cache resolves each
          distinct kernel exactly once, and the segment solver is a
          pure function of its candidates: its ties break on the
          candidate-index sequence and its budget counts settled states
          rather than time, so it returns the same path however many
          domains share the machine *)
  deadline : deadline option;
      (** per-request wall-clock deadline ([None] = unconstrained, the
          default). Each segment samples the remaining fraction of the
          budget when it starts: the segment solver's settled-state
          budget is scaled down by that fraction (a binding budget takes
          the [Greedy] tier), and a segment starting past the deadline skips the
          transformation search and enumeration entirely, taking the
          unfused floor (recorded as a [Solve] fallback reason).
          Deadline-pressured plans depend on wall-clock and are therefore
          {e not} reproducible; callers that cache plans should treat
          them as incumbents, not finals *)
}

val default_config : config

(** How the static-analysis hazard cross-check of the stitched plan's
    memory planning fared ({!Verify.Hazard}). An analyzer {e crash}
    (or an injected [Faults.Analysis] fault) degrades to
    [Analysis_skipped] with the reason recorded — the analysis is an
    auditor, not a load-bearing stage — while a genuine {e finding}
    raises {!Orchestration_failed}: a failed cross-check means arena
    reuse would corrupt tensors. *)
type analysis_outcome =
  | Analysis_checked of Verify.Diagnostics.report
      (** cross-check ran; the retained report has no errors (errors
          raise) but keeps warnings and infos *)
  | Analysis_skipped of string  (** analyzer crashed; reason recorded *)
  | Analysis_off  (** [check_invariants] disabled *)

val analysis_outcome_to_string : analysis_outcome -> string

(** Per-segment solve outcome (diagnostics; the stitched plan is in
    {!type-result}). *)
type segment_result = {
  seg : Partition.segment;
  seg_index : int;  (** position in partition order *)
  transformed : Primgraph.t;  (** segment graph after transformations *)
  candidates : Candidate.t array;
      (** identified candidates, extended with synthesized singleton
          candidates so the unfused floor is always available *)
  id_stats : Kernel_identifier.stats;
  selected : int list;  (** scheduled order of candidate indices *)
  latency_us : float;  (** modelled latency of the selected strategy *)
  settled_states : int;
      (** states the {!Segment_solver} search settled on this segment
          (0 when it did not run: an empty segment, a segment past the
          deadline, or an injected solver fault) *)
  outcome : outcome;  (** where on the degradation ladder this segment landed *)
  phase_us : (string * float) list;
      (** wall-clock spent per pipeline phase of this segment, in
          microseconds: [transform], [identify] (enumeration + profiling),
          [solve] (segment solver + ladder). Observational only — never
          feeds back into optimization decisions *)
}

(** What a segment's [Optimal] is exact over: the candidates that
    identification produced under these cuts. *)
type candidate_space = {
  window : int;  (** [partition_max_prims]: primitives per segment *)
  kernel_cap : int;  (** {!Kernel_identifier.kernel_cap}: primitives per kernel *)
  output_subset_limit : int;
      (** {!Kernel_identifier.max_boundary_enum}: a larger boundary is
          offered only whole as an output set *)
  state_guard : int;  (** {!Kernel_identifier.max_states} per segment *)
  settled_budget : int;
      (** {!settled_state_limit}: the solver's budget per segment before a
          deadline scales it *)
}

type result = {
  graph : Primgraph.t;  (** stitched post-transformation primitive graph *)
  plan : Runtime.Plan.t;  (** kernels reference [graph] node ids *)
  segments : segment_result list;
  total_candidates : int;
  total_states : int;
  prim_nodes : int;  (** executable primitives after fission+transform *)
  tuning_time_s : float;  (** simulated profiling cost (Table 2) *)
  degraded_segments : int list;
      (** indices of segments that fell to [Greedy] or [Unfused] *)
  time_limit_hits : int;
      (** always 0: no solver reads a clock, so no segment's plan
          depends on a time limit. Kept until the benchmark that reads
          it changes *)
  candidate_space : candidate_space;
  truncated_segments : int list;
      (** indices of segments whose state enumeration was truncated by
          the identifier's state guard: their candidate sets are valid
          but incomplete *)
  memory : Runtime.Memplan.stats;
      (** static memory plan of the stitched plan: peak arena bytes,
          no-reuse bytes, slot count and reuse ratio, scaled by the
          configured precision's element width ({!Runtime.Memplan}) *)
  analysis : analysis_outcome;
      (** outcome of the independent hazard cross-check of the memory
          plan, run under [check_invariants] *)
  phase_us : (string * float) list;
      (** wall-clock spent per run-level phase, in microseconds:
          [fission] (present only via {!run}), [partition], [segments]
          (all per-segment pipelines, wall-clock — overlapping when
          [jobs > 1]), [stitch], [verify], [total]. Timed with the
          monotonic {!Obs.Clock}, so values are meaningful even when
          worker domains run concurrently *)
}

(** [solve_segment cfg ~cache ?seg_index seg] — transform, identify,
    profile and solve one partition segment, walking the degradation
    ladder on failure. Exposed for diagnostics and benches. *)
val solve_segment :
  config -> cache:Gpu.Profile_cache.t -> ?seg_index:int -> Partition.segment -> segment_result

(** [run_primgraph cfg g] — orchestrate a primitive graph. The returned
    plan executes against [result.graph] (not [g]: transformations may
    have rewritten it) via {!Runtime.Executor.run}. *)
val run_primgraph : config -> Primgraph.t -> result

(** [run cfg g] — apply operator fission to a computation graph, then
    {!run_primgraph}. *)
val run : config -> Opgraph.t -> result
