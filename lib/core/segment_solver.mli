(** Exact per-segment kernel orchestration: a shortest path over
    published sets.

    The execution-state view of §4.1 turned into a graph search. A state
    is the set of primitives published so far. A candidate can run from a
    state once the state holds all of its non-source external inputs;
    running it adds its outputs to the state and costs its latency. The
    goal is any state that holds the segment's non-source outputs.

    A path is a schedule, so the cheapest path is the optimum of §4.2's
    objective (Eq. 2) over the selections that satisfy Eqs. 3–4 {e and}
    admit a deadlock-free order — the question Eq. 4 alone leaves open
    (see {!Scheduler}). No relaxation is solved.

    The search is A*. Its bound at a state is the largest, over the
    segment outputs the state has not published, of the cheapest latency
    of any candidate that publishes that output. Every path to the goal
    still runs a publisher of each such output, so the bound never
    overestimates; a step of latency [l] either publishes the output
    that set the bound, which then was at most [l], or leaves it
    unpublished and the bound no lower — so the bound is consistent and a
    settled state's path is its cheapest. The queue is keyed by (cost +
    bound, cost, candidate-index sequence), and the cost is summed along
    the path in order: among equally cheap paths the lexicographically
    smallest sequence wins, exactly as under Dijkstra's order, so the
    result is a pure function of the segment and its candidates,
    identical for every [-j]; only fewer states are settled. States are
    {!Ir.Bitset.t}, so the segment size is not capped by a machine
    word.

    A settled state pays only for the candidates it can run. Exact
    duplicates are dropped once per solve: in index order a candidate is
    kept only if its latency is strictly below that of every earlier
    candidate with the same inputs and the same effect (outputs, and in
    the disjoint mode executed primitives). Such an earlier candidate
    runs wherever the later one does and reaches the same state; float
    addition is monotone, so its key is never above the later one's, and
    on an equal sum its lower index wins the tie-break. (Keeping only the
    cheapest duplicate would not be exact: a cheaper later one can round
    to the same sum and must then lose.) The kept candidates are grouped
    by their inputs, so a settled state tests each distinct input set
    once, and a successor is looked up among the settled states before it
    is priced. The result — order, cost bits and settled count — is that
    of testing every candidate at every settled state. *)

open Ir

type solution = {
  order : int list;  (** candidate indices in execution order *)
  cost : float;  (** summed latency of [order], in order *)
  settled : int;  (** states settled by the search, the goal included *)
}

type failure =
  | Budget_exhausted of int  (** the settled-state budget bound first *)
  | Unreachable of int
      (** no path publishes the outputs; the payload is the settled count *)

val failure_to_string : failure -> string

(** [solve ?disjoint ~budget g candidates] — the cheapest path, settling at
    most [budget] states.

    With [disjoint] (the ablation of §4.2's redundancy relaxation) a
    state also records which primitives have executed, and a candidate
    may not re-execute any of them: every primitive executes at most
    once.

    Carries the {!Faults.site-Solve} fault-injection site: an
    installed policy can make this call raise {!Faults.Injected}. The
    search runs in a [segment_solver] span with args [candidates],
    [kept] (after dropping duplicates) and [groups] (distinct input
    sets); the counter [segment_solver.expanded] counts successors
    built. *)
val solve :
  ?disjoint:bool ->
  budget:int ->
  Primgraph.t ->
  Candidate.t array ->
  (solution, failure) result
