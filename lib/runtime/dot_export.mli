(** Graphviz DOT export of orchestration plans. *)

open Ir

(** [plan_to_dot g plan] — the primitive graph with one coloured cluster
    per kernel; published outputs drawn with thick borders. Redundantly
    executed primitives appear once in every kernel that recomputes them,
    making the §4.2 relaxation directly visible. *)
val plan_to_dot : Primgraph.t -> Plan.t -> string
