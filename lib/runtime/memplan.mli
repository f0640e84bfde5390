(** Static memory planner for stitched plans.

    Computes per-tensor lifetimes from the plan's kernel order (last-use
    analysis over kernel-published tensors and kernel-internal
    intermediates), assigns each instance to a reusable arena slot by
    greedy best-fit on byte size, and exposes the step-indexed death
    schedule {!Executor.run} consumes in [~reuse:true] mode. Sources
    (graph inputs and constants) are caller-owned and not planned; graph
    outputs are never released. *)

open Ir
open Tensor

(** Identity of a tensor instance in the executor's two-environment
    model: a value published to the global environment, or a private
    recomputation inside kernel [ki]. Republications of the same node are
    merged into one conservative [Published] instance. *)
type key = Published of int | Internal of int * int

type instance = {
  key : key;
  shape : Shape.t;
  bytes : int;
  birth : int;  (** step of the (first) evaluation producing this value *)
  death : int;  (** last step the value is read; [steps] for graph outputs *)
  slot : int;  (** arena slot assigned by best-fit *)
}

type stats = {
  instances : int;  (** planned tensor instances (sources excluded) *)
  steps : int;  (** evaluation + publish steps in the plan *)
  slots : int;  (** arena slots after reuse *)
  no_reuse_bytes : int;  (** sum of all instance sizes: the allocate-everything cost *)
  peak_bytes : int;  (** sum of slot capacities: the arena footprint with reuse *)
  live_peak_bytes : int;  (** max bytes simultaneously live (lower bound on any arena) *)
  reuse_ratio : float;  (** [1 - peak_bytes / no_reuse_bytes]; [0.] when nothing to reuse *)
}

type t = {
  publish_step : int array;  (** per kernel: the step its outputs are published *)
  instances : instance array;  (** all planned instances, in birth order *)
  deaths : key list array;  (** [deaths.(s)]: keys to release after step [s]; length [steps + 1], the end sentinel bucket holding graph outputs *)
  slot_bytes : int array;  (** final capacity of each slot *)
  stats : stats;
}

val string_of_key : key -> string

(** [pack spans] — greedy best-fit slot assignment. [spans] are
    [(birth, death, size)] triples in birth order; a slot is free for a
    span iff its last tenant died strictly before the span's birth. Each
    span takes the smallest free slot that fits it, else grows the
    largest free slot to its size, else opens a new slot. Returns each
    span's slot and each slot's final capacity (at least the size of
    every span it held). *)
val pack : (int * int * int) array -> int array * int array

(** [analyze ?bytes_per_element g plan] plans memory for executing [plan]
    over [g]. [bytes_per_element] (default 8, the interpreter's float
    width) scales element counts into bytes — pass the target precision's
    width to model device memory instead. The step stream matches
    {!Executor.run}'s evaluation order exactly: members of each kernel in
    topological order, then one publish step per kernel. *)
val analyze : ?bytes_per_element:int -> Primgraph.t -> Plan.t -> t

val stats : t -> stats

(** [slot_of t key] — the arena slot assigned to [key], if planned.
    Linear scan; for bulk access use {!slot_assignment}. *)
val slot_of : t -> key -> int option

(** [slot_assignment t] — the full key → slot map, in birth order.
    Exposed so external checkers (the static-check library's hazard
    cross-check) can audit the packing without reaching into
    [instances]. *)
val slot_assignment : t -> (key * int) list

val pp_stats : Format.formatter -> stats -> unit
