(** The executable generator / plan executor (§5.3).

    Walks the selected kernels in plan order and runs them against the
    tensor substrate. Each kernel recomputes its internal primitives from
    externally published tensors only and publishes exactly its declared
    outputs — the contract §4.2's dependency constraints (Eq. 4)
    guarantee and {!Plan.check} re-establishes on a plan's first run. *)

open Ir
open Tensor

exception Invalid_plan of string

(** Arena accounting for one [~reuse:true] run. All zero when reuse is
    off, except [evals], which counts the primitives the interpreter
    evaluated whatever the mode. *)
type run_stats = {
  mutable evals : int;  (** primitive evaluations performed *)
  mutable into_evals : int;  (** evaluations written into a recycled buffer *)
  mutable aliases : int;  (** zero-copy reshape aliases *)
  mutable fresh_elems : int;  (** elements of freshly allocated arena arrays *)
  mutable freed : int;  (** buffers returned to the recycle pool *)
}

val fresh_stats : unit -> run_stats

(** [run g plan ~inputs] executes [plan] over primitive graph [g] and
    returns the graph outputs in declaration order. It is the only walk
    over a plan's kernels: each one either runs as a native kernel or
    through the interpreter's member loop ({!eval_kernel}).

    [?backend] selects the execution backend (default
    {!Backend.default}, i.e. [KORCH_BACKEND] or the interpreter). With
    {!Backend.Native} and a linked native implementation, the whole plan
    is resolved to compiled code once per run, before the walk, and each
    kernel falls back to the interpreter on its own if it cannot be;
    [?exec_stats] receives the per-kernel accounting. [~reuse:true]
    runs every kernel on the interpreter — arena reuse is an
    interpreter-side feature.

    Each (graph, plan) pair, told apart by physical identity, is checked
    and signed once per plan: its first run keeps the {!Plan.check}
    verdict, each kernel's member order and, on its first native run,
    the native backend's kernel signatures, for as long as both the
    graph and the plan are alive; the metric [executor.plans_prepared]
    counts these preparations. Faults, the kernel cache and verification
    verdicts are consulted per run. Concurrent runs from several domains
    are safe.

    With [~reuse:true] the executor follows the {!Memplan} death
    schedule: tensors are released at their last use, every computing
    primitive evaluates into a recycled buffer of its result's length
    when one is free, and reshape aliases its argument zero-copy under
    reference counting.
    Outputs are bit-identical to [~reuse:false] — {!Prim_interp.eval_prim}
    computes the same floats with and without a destination. [?stats],
    when supplied, is filled with arena accounting for the run; its
    [evals] counts the primitives the interpreter evaluated, in every
    mode.

    Raises {!Invalid_plan} with the first {!Plan.check} error before
    computing anything if the plan is structurally invalid, on every
    call. *)
val run :
  ?backend:Backend.t ->
  ?reuse:bool ->
  ?stats:run_stats ->
  ?exec_stats:Backend.exec_stats ->
  Primgraph.t ->
  Plan.t ->
  inputs:(string * Nd.t) list ->
  Nd.t list

(** [validate g plan] — {!Plan.check}, reduced to its first error. *)
val validate : Primgraph.t -> Plan.t -> (unit, string) result

(** [check g plan] — {!validate} once per pair: its verdict is kept in
    the pair's prepared record, which {!run} shares. *)
val check : Primgraph.t -> Plan.t -> (unit, string) result

(** [eval_kernel g ~order global k] — {!run}'s interpreter member loop
    with reuse off, for one kernel of a plan that passed {!Plan.check}:
    recompute [k]'s members in [order] (a topological order of [g];
    non-members are skipped) from a kernel-local environment fed only by
    [global], then publish [k]'s outputs into [global]. The oracle the
    native backend's compiled kernels are verified against. *)
val eval_kernel : Primgraph.t -> order:int list -> Prim_interp.env -> Plan.kernel -> unit
