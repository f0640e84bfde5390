(** Operator-graph canonicalization passes applied before optimization —
    the standard "freeze" transformations every deployment stack performs,
    so the Korch-vs-baseline comparison measures orchestration rather than
    who folded batch norms. Called by [Korch.Orchestrator.fission] (so
    [Orchestrator.run]) and [Baselines.Common.make_env]. *)

open Ir

(** [fold_batch_norms g] — rewrite every
    [Conv (const weights) → BatchNormInference (const parameters)] pair
    (where the Conv feeds only the BN) into a single biased Conv with
    recomputed constant weights. Semantics-preserving; other nodes are
    copied unchanged, except a constant that no kept node reads (a
    folded BN's parameters, the pre-fold conv weights), which is
    dropped. *)
val fold_batch_norms : Opgraph.t -> Opgraph.t
