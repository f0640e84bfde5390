(** Constant folding: primitives whose inputs are all constants become
    [Constant] nodes, up to 65,536 output elements (a larger result costs
    more memory traffic than recomputing it).

    Whether a node folds, and to what shape, is decided by shape alone.
    Each fold becomes a [Const.Folded] entry of a {!table}, hash-consed by
    primitive and argument constants, so a search that ranks graphs by
    shape never computes a payload. {!resolve} evaluates the entries a
    graph holds, once per table: folds are materialized once, for the
    graph the search returns. *)

open Ir
open Tensor

(** The folds of one search. Not shared between domains. *)
type table

val create : unit -> table

(** [fold_shape op shapes] — the shape [Prim_interp.eval_prim op] returns
    on constant inputs of these shapes, or [None] where it raises. *)
val fold_shape : Primitive.t -> Shape.t list -> Shape.t option

(** [fold t g] folds to fixpoint; each fold is an entry of [t]. *)
val fold : table -> Primgraph.t -> Primgraph.t

(** [value t i] — the payload of entry [i] of [t], evaluated on first
    use. The first request for each entry counts once in the
    [constfold.materialized] metric; the arguments of a chained fold are
    evaluated on the way but not counted. *)
val value : table -> int -> Nd.t

(** [resolve t g] replaces every [Folded] constant of [g] with its
    {!value}. *)
val resolve : table -> Primgraph.t -> Primgraph.t

(** [run g] = [resolve t (fold t g)] with a fresh table: the folded graph
    with every payload materialized. *)
val run : Primgraph.t -> Primgraph.t
