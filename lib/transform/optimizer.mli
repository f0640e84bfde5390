(** Cost-guided backtracking search over primitive-graph transformations —
    the TASO-style superoptimizer Korch reuses (§2, §3).

    A priority queue of candidate graphs is ordered by a fast cost proxy
    (the sum of per-primitive single-kernel latencies under the GPU cost
    model). The cheapest graph is expanded by applying every rewrite rule
    at every site; results within 1.08× of the best cost are kept —
    TASO's relaxed acceptance, which lets locally-worse graphs enable
    globally-better ones. Terminates via the expansion [budget]. *)

open Ir

type config = {
  spec : Gpu.Spec.t;
  precision : Gpu.Precision.t;
  budget : int;  (** maximum number of graph expansions *)
  profiler : Gpu.Profiler.config;
}

val default_config : config

(** The rewrite rule registry: reduce→MatMul (Figure 2b), Div⋄MatMul swap,
    shared-operand MatMul merging (Figure 9), transpose movement,
    broadcast movement, layout cancellation. Each rule returns one
    rewritten graph per applicable site; all are semantic identities
    (property-tested). *)
val all_rules : (string * (Primgraph.t -> Primgraph.t list)) list

(** [cost_proxy cfg g] — the search heuristic: fusion-agnostic sum of
    single-primitive kernel latencies. *)
val cost_proxy : config -> Primgraph.t -> float

(** [graph_fingerprint g] — structural hash used to deduplicate the search
    frontier. *)
val graph_fingerprint : Primgraph.t -> string

(** [optimize ?config g] — search for a cheaper equivalent graph; returns
    the best found (possibly [g] itself, CSE/constant-folded). *)
val optimize : ?config:config -> Primgraph.t -> Primgraph.t
