(** Cost-guided backtracking search over primitive-graph transformations —
    the TASO-style superoptimizer Korch reuses (§2, §3).

    A priority queue of candidate graphs is ordered by a fast cost proxy
    (the sum of per-primitive single-kernel latencies under the GPU cost
    model). The cheapest graph is expanded by applying every rewrite rule
    at every site; results within 1.08× of the best cost are kept —
    TASO's relaxed acceptance, which lets locally-worse graphs enable
    globally-better ones. Terminates after a fixed budget of 40 graph
    expansions. *)

open Ir

(** The rewrite rule registry: reduce→MatMul (Figure 2b), Div⋄MatMul swap,
    shared-operand MatMul merging (Figure 9), transpose movement,
    broadcast movement, layout cancellation. Each rule returns one
    rewritten graph per applicable site; all are semantic identities
    (property-tested). *)
val all_rules : (string * (Primgraph.t -> Primgraph.t list)) list

(** [cost_proxy ~spec ~precision g] — the search heuristic:
    fusion-agnostic sum of single-primitive kernel latencies, each priced
    under the default {!Gpu.Profiler.max_tvm_prims}. *)
val cost_proxy : spec:Gpu.Spec.t -> precision:Gpu.Precision.t -> Primgraph.t -> float

(** [graph_fingerprint g] — structural hash used to deduplicate the search
    frontier. *)
val graph_fingerprint : Primgraph.t -> string

(** [start g] — where the search starts: [g] after CSE and constant
    folding. The orchestrator falls back to it when the search fails. *)
val start : Primgraph.t -> Primgraph.t

(** [optimize ~spec ~precision g] — search for a cheaper equivalent graph
    for [spec] at [precision]; returns the best found (possibly {!start}
    [g]). Folds stay unevaluated expressions ({!Constfold}). *)
val optimize : spec:Gpu.Spec.t -> precision:Gpu.Precision.t -> Primgraph.t -> Primgraph.t
