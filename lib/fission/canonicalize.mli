(** Operator-graph canonicalization passes applied before optimization —
    the standard "freeze" transformations every deployment stack performs,
    so the Korch-vs-baseline comparison measures orchestration rather than
    who folded batch norms. Called by [Korch.Orchestrator.fission] (so
    [Orchestrator.run]) and [Baselines.Common.make_env]. *)

open Ir

(** [fold_batch_norms g] — rewrite every
    [Conv (const weights) → BatchNormInference (const parameters)] pair
    (where the Conv feeds only the BN) into a single biased Conv whose
    weights and bias are folds ([Const.Apply]) over the pair's
    constants, with the scalar operations of the eager fold in the same
    operand order, so they evaluate to the same bits:
    [w' = w * reshape (scale / sqrt (var + eps))] and
    [b' = (b - mean) * factor + bias], [b] zeros for a bias-free conv.
    Reads no payload. Semantics-preserving; other nodes are
    copied unchanged, except a constant that no kept node reads (a
    folded BN's parameters, the pre-fold conv weights), which is
    dropped. *)
val fold_batch_norms : Opgraph.t -> Opgraph.t
