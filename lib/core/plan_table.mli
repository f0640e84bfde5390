(** Batch-parametric plan tables: one orchestration sweep over a probe
    ladder of batch sizes, collapsed into (batch-range, plan) segments
    with cost-model crossover batches between adjacent segments.

    Every range's plan is the verbatim output of a fixed-batch
    [Orchestrator.run] at the range's anchor batch — the symbolic batch
    layer ({!Ir.Batch_sym} + {!Gpu.Cost_model.substitute_shapes}) only
    refines where one range hands over to the next, and any fit or
    repricing failure falls back to the unrefined anchor boundary. *)

type range = {
  lo : int;  (** first batch this range serves (inclusive) *)
  hi : int;  (** last batch this range serves (inclusive) *)
  probes : int list;  (** probe batches solved into this range, ascending *)
  anchor : int;  (** largest probe; [graph]/[plan] are its verbatim solution *)
  graph : Ir.Primgraph.t;  (** stitched primitive graph at [anchor] *)
  plan : Runtime.Plan.t;  (** orchestrated plan at [anchor] *)
  signature : string;  (** batch-insensitive structural digest (hex) *)
  refined : bool;  (** upper boundary moved by cost-model repricing *)
}

type t = {
  model : string;
  gpu : string;  (** [Gpu.Spec.name] of the target *)
  precision : string;
  lo : int;
  hi : int;
  ranges : range list;  (** partition of [[lo, hi]], ascending *)
  crossovers : int list;  (** first batch of each range after the first *)
}

(** [probe_batches ~lo ~hi] — the doubling probe ladder
    [lo, 2lo, 4lo, ...] clipped to [hi], with [hi] always included.
    Raises [Invalid_argument] unless [1 <= lo <= hi]. *)
val probe_batches : lo:int -> hi:int -> int list

(** [signature g p] — hex digest of a solved plan's batch-insensitive
    structure (op kind tags without batch numerals, edges, outputs,
    kernel memberships and backends). Equal signatures at two batches
    mean orchestration chose the same plan topology at both. *)
val signature : Ir.Primgraph.t -> Runtime.Plan.t -> string

(** [build cfg ~model ~build ~lo ~hi] — orchestrate [build ~batch:p] at
    every probe, group consecutive same-signature probes into ranges and
    refine the range boundaries into cost-model crossover batches.
    Raises whatever [Orchestrator.run] raises; raises [Invalid_argument]
    unless [1 <= lo <= hi]. *)
val build :
  Orchestrator.config ->
  model:string ->
  build:(batch:int -> Ir.Opgraph.t) ->
  lo:int ->
  hi:int ->
  t

(** [range_for_probe t p] — the range holding probe [p], if [p] is one
    of the table's probe batches. *)
val range_for_probe : t -> int -> range option

val pp : Format.formatter -> t -> unit
