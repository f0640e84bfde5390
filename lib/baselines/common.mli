(** Shared machinery for the operator-level fusion baselines.

    A baseline produces a partition of the operator graph into convex
    fusion groups. Every group is costed as ONE kernel under the same GPU
    model Korch uses: its primitives are the union of the member
    operators' fission primitives, its outputs the primitives visible
    outside the group. A single operator outside the generated-kernel
    envelope (monolithic InstanceNorm, ...) dispatches a generic library
    kernel — never rejected, fully penalized; an unsupported multi-op
    fusion pattern falls back to per-operator execution. *)

open Ir

(** Operator classes driving the fusion policies. *)
type op_class =
  | Source
  | Injective  (** elementwise + layout + broadcast-like: cheap to fuse *)
  | Reduction  (** normalization / softmax / pooling / reductions *)
  | ComputeIntensive  (** conv / matmul *)
  | Opaque

val classify : Optype.t -> op_class

(** A partition of the non-source operator ids into fusion groups. *)
type grouping = int list list

(** Everything a baseline needs, precomputed once per (graph, gpu). *)
type env = {
  opgraph : Opgraph.t;  (** the BN-folded graph, as Korch orchestrates it *)
  primgraph : Primgraph.t;
  mapping : int array;  (** op id → output primitive id *)
  ranges : (int * int) array;  (** op id → fission primitive id range *)
  spec : Gpu.Spec.t;
  precision : Gpu.Precision.t;
}

(** [make_env ~spec ~precision g] folds [g]'s BatchNorms, then fissions. *)
val make_env : spec:Gpu.Spec.t -> precision:Gpu.Precision.t -> Opgraph.t -> env

(** Primitive members of an operator group (sources excluded). *)
val group_members : env -> int list -> Bitset.t

(** Latency and kernel description of executing the group as one kernel. *)
val cost_group : env -> int list -> Runtime.Plan.kernel

(** Cost every group and assemble a plan in group order. *)
val plan_of_grouping : env -> grouping -> Runtime.Plan.t

(** Operator ids in topological order, sources dropped. *)
val non_source_topo : Opgraph.t -> int list

(** Test hook: every group must be convex in the primitive graph. *)
val check_convex : env -> grouping -> bool
