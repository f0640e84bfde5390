(** Constant tensor specifications.

    Model weights and transformation-introduced constants (e.g. the
    all-ones vector that turns ReduceSum into a MatMul, §3/Figure 2) are
    described symbolically so cost-model-only pipelines never allocate
    paper-scale tensors.

    A folded constant — a folded BatchNorm's conv weights, a fold of the
    transformation search — is an [Apply] expression over the constants
    it reads. Shape inference and the cost model see only its shape;
    {!Runtime.Prim_interp.materialize} evaluates it, once, when a kernel
    first reads it. *)

open Tensor

type fill = Primitive.fill =
  | Zeros
  | Ones
  | Value of float  (** constant fill *)
  | Randn of int  (** deterministic standard-normal data from a seed *)
  | Randn_scaled of int * float  (** seeded normal data times a factor *)
  | Data of Nd.t  (** explicit payload *)
  | Apply of Primitive.t * t list
      (** a computing primitive applied to argument constants, which may
          be folds themselves *)

and t = Primitive.const = { shape : Shape.t; fill : fill }

val zeros : Shape.t -> t
val ones : Shape.t -> t
val value : Shape.t -> float -> t
val randn : Shape.t -> int -> t

(** [randn_scaled shape seed scale] — e.g. 1/√fan-in initialisation. *)
val randn_scaled : Shape.t -> int -> float -> t

val of_nd : Nd.t -> t

(** [apply shape op args] — the fold of [op] over [args], of [shape]. *)
val apply : Shape.t -> Primitive.t -> t list -> t

(** Structural equality; [Data] payloads compare elementwise, [Apply]
    folds by expression, never by value. *)
val equal : t -> t -> bool

(** [Data] and [Apply] both print as [data]: a search sees the same
    spelling before and after a fold. *)
val to_string : t -> string
