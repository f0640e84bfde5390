(** Constant folding: primitives whose inputs are all constants become
    [Constant] nodes, up to {!max_elems} output elements (a larger result
    costs more memory traffic than recomputing it).

    Whether a node folds, and to what shape, is decided by shape alone.
    A fold is the expression [Const.Apply (op, args)] over the constants
    it reads, so a search that ranks graphs by shape never computes a
    payload: {!Runtime.Prim_interp.materialize} evaluates a fold once,
    when something first reads its value. *)

open Ir
open Tensor

(** The largest fold, in elements. *)
val max_elems : int

(** [fold_shape op shapes] — the shape [Prim_interp.eval_prim op] returns
    on constant inputs of these shapes, or [None] where it raises. *)
val fold_shape : Primitive.t -> Shape.t list -> Shape.t option

(** [fold g] folds to fixpoint; each fold is an [Apply] constant. *)
val fold : Primgraph.t -> Primgraph.t
