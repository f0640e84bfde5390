(** Value-range analysis: a forward abstract interpretation with an
    interval × zero-exclusion × finiteness × NaN-exclusion domain.

    Flags numeric hazards before anything executes: guaranteed division
    by zero, [log]/[sqrt] of nonpositive ranges, [exp] overflow into
    inf. Severity discipline: [Error] only for defects guaranteed on
    every input, [Warning] when a bad region lies strictly inside an
    operand's range, [Info] when it is only a range endpoint (e.g. an
    [exp]-underflow denominator) — so a well-formed model zoo lints
    clean above [Warning]. *)

open Ir

(** One abstract tensor: every element lies in [[lo, hi]]; flags record
    values provably excluded for all elements. *)
type v = {
  lo : float;
  hi : float;
  nonzero : bool;  (** 0.0 excluded *)
  finite : bool;  (** ±inf excluded *)
  nonnan : bool;  (** NaN excluded *)
}

val bottom : v
val top : v

(** Arbitrary finite data — the fact assumed for graph inputs. *)
val input_fact : v

val is_empty : v -> bool

(** Abstraction of a constant: exact for a fill or a [Data] payload
    (scanned); a fold's fact is the transfer of its primitive over its
    arguments' facts. *)
val of_const : Const.t -> v

(** [mk ?nonzero ?nonnan lo hi] — an interval fact with finiteness
    derived from the bounds. Exposed, with the per-class combinators
    below, for per-primitive unit tests. *)
val mk : ?nonzero:bool -> ?nonnan:bool -> float -> float -> v

val unary_v : Primitive.unary -> v -> v
val binary_v : Primitive.binary -> v -> v -> v

(** [reduce_v agg ~k x] — aggregation of [k] elements drawn from [x]. *)
val reduce_v : Primitive.agg -> k:int -> v -> v

(** [dot_v ~k ?pad x y] — inner-product accumulation of [k] element
    pairs; [pad] admits zero contributions from padded borders. *)
val dot_v : k:int -> ?pad:bool -> v -> v -> v

(** [transfer g i input_facts] — node [i]'s fact from its inputs' facts
    (argument order). Exposed for per-primitive unit tests. *)
val transfer : Primgraph.t -> int -> v list -> v

(** [solve g] — the fact of every node, from one forward pass in
    dependency order. *)
val solve : Primgraph.t -> v array

(** Pass name used in findings (["vrange"]). *)
val pass : string

(** [check g] — solve, then report numeric hazards. Never raises. *)
val check : Primgraph.t -> Diagnostics.report
