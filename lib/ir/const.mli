(** Constant tensor specifications.

    Model weights and transformation-introduced constants (e.g. the
    all-ones vector that turns ReduceSum into a MatMul, §3/Figure 2) are
    described symbolically so cost-model-only pipelines never allocate
    paper-scale tensors; the executor materializes them on demand.

    Constant folding inside the transformation search leaves its results
    as [Folded] references into a table owned by that search; they are
    evaluated once, for the graph the search returns, and every graph
    outside it carries [Data] instead. *)

open Tensor

type fill =
  | Zeros
  | Ones
  | Value of float  (** constant fill *)
  | Randn of int  (** deterministic standard-normal data from a seed *)
  | Randn_scaled of int * float  (** seeded normal data times a factor *)
  | Data of Nd.t  (** explicit payload *)
  | Folded of int
      (** entry [i] of one constant-folding table ({!Transform.Constfold}),
          not yet evaluated; never seen outside the search *)

type t = { shape : Shape.t; fill : fill }

val zeros : Shape.t -> t
val ones : Shape.t -> t
val value : Shape.t -> float -> t
val randn : Shape.t -> int -> t

(** [randn_scaled shape seed scale] — e.g. 1/√fan-in initialisation. *)
val randn_scaled : Shape.t -> int -> float -> t

val of_nd : Nd.t -> t

(** Produce the concrete tensor (deterministic for seeded fills). Raises
    [Invalid_argument] on a [Folded] constant: only its table can
    evaluate it. *)
val materialize : t -> Nd.t

(** Structural equality; [Data] payloads compare elementwise, [Folded]
    ones by table entry. *)
val equal : t -> t -> bool

(** [Data] and [Folded] both print as [data]: a search sees the same
    spelling before and after evaluation. *)
val to_string : t -> string
