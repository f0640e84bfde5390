(** Execution-state enumeration (Definition 2 / first half of Algorithm 1).

    An execution state is a downward-closed set of primitives — "what has
    been computed so far". All convex subgraphs of the primitive graph,
    i.e. all candidate kernels, arise as pairwise differences of execution
    states (Theorem 1). *)

open Ir

(** [enumerate_bounded g ~max_states] — execution states of [g], each
    including all source nodes (inputs and constants are always
    "computed"), up to the bound, plus a flag saying whether enumeration
    was truncated there. The count grows linearly with graph depth but
    exponentially with width (§4), so callers partition wide graphs
    first. Truncation degrades gracefully: differences of the returned states are
    still valid convex subgraphs, just not all of them. Carries the
    {!Faults.site-Enumerate} fault-injection site. *)
val enumerate_bounded : Primgraph.t -> max_states:int -> Bitset.t list * bool

(** [is_difference_of_states states s] — test oracle for Theorem 1: does
    [s] equal [d2 \ d1] for some pair of states with [d1 ⊆ d2]? Quadratic;
    meant for the property-based tests. *)
val is_difference_of_states : Bitset.t list -> Bitset.t -> bool
