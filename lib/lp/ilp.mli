(** Binary integer linear programming by branch-and-bound over LP
    relaxations — the "off-the-shelf BLP solver" of the paper (§4.2,
    §5.2).

    Distinctive features, all motivated by the structure of kernel
    orchestration instances (covering rows plus homogeneous dependency
    implications):

    - {b lazy dependency separation}: rows of the form [a . x >= 0] can be
      kept out of each node's LP and activated only when a fractional or
      integral optimum violates them — most are slack at the optimum, so
      node LPs stay small while bounds equal the full-row bounds;
    - {b warm starts}: a known feasible assignment (the all-singletons
      strategy in the orchestrator) seeds the incumbent;
    - {b gap tolerances}: nodes within an absolute/relative distance of
      the incumbent are pruned — two orchestration strategies within a
      fraction of one kernel launch are equivalent in practice. *)

type problem = {
  minimize : float array;
  rows : (float array * Simplex.relation * float) list;
}

type status =
  | Optimal  (** tree closed: solution proven optimal up to the gaps *)
  | TimeLimit  (** budget hit: best incumbent returned *)
  | Infeasible  (** no binary assignment satisfies the rows *)

type solution = {
  x : int array;  (** 0/1 assignment; empty when [status = Infeasible] *)
  objective : float;
  status : status;
  nodes_explored : int;
  time_limit_hit : bool;
      (** the wall-clock safety net (not the node budget) ended the
          search. Wall time is machine-load-dependent, so a binding time
          limit means the result may not reproduce run to run — callers
          should surface it *)
}

(** [is_feasible_binary p x] checks every row of [p] against the 0/1
    assignment [x] (with a small tolerance). *)
val is_feasible_binary : problem -> int array -> bool

(** [objective_of p x] is [p.minimize . x]. *)
val objective_of : problem -> int array -> float

(** [solve ?time_limit_s ?max_nodes ?rel_gap ?abs_gap ?lazy_dependencies
    ?warm_start p] minimizes over binary assignments.

    @param time_limit_s wall-clock budget (default 60 s), measured on
           {!Obs.Clock} ([CLOCK_MONOTONIC]) — {e never} [Sys.time], whose
           process-CPU semantics once shrank this budget jobs× under the
           worker pool. Still a safety net: callers wanting run-to-run
           reproducibility should bound work with [max_nodes]
    @param max_nodes branch-and-bound node budget (default 200k): at
           most this many nodes are explored. A deterministic work
           measure: the same problem with the same budget always stops at
           the same incumbent
    @param rel_gap relative optimality tolerance (default 0: exact)
    @param abs_gap absolute optimality tolerance (default 0: exact)
    @param lazy_dependencies treat homogeneous [>= 0] rows as lazy cuts
    @param warm_start feasible assignment used as the initial incumbent
           (silently ignored when infeasible or of the wrong width)

    Returns [None] only when the budget expires before {e any} incumbent
    or infeasibility proof is found. *)
val solve :
  ?time_limit_s:float ->
  ?max_nodes:int ->
  ?rel_gap:float ->
  ?abs_gap:float ->
  ?lazy_dependencies:bool ->
  ?warm_start:int array ->
  problem ->
  solution option
