(** Facade for the static-check library.

    Five passes, all diagnostic-producing and non-raising:

    - {!Graph_check} — structural + typing verification of operator and
      primitive graphs (positional ids, no dangling edges, acyclicity,
      arity, source discipline, shape re-inference, output validity,
      dead-node detection);
    - {!Vrange} — value ranges: a forward abstract interpretation that
      flags numeric hazards (division by zero, [log]/[sqrt] domain, [exp]
      overflow) in a primitive graph;
    - {!Plan_check} — validation of an orchestration plan against its
      primitive graph (convexity, coverage, executability, latency
      sanity, redundancy statistics);
    - {!Hazard} — an independent recomputation of tensor lifetimes that
      audits the memory planner's arena-slot assignment;
    - {!Rule_check} — a differential-testing linter that exercises every
      fission and transformation rule on seeded random pattern instances
      and checks interpreter-level equivalence.

    {!Diagnostics} holds the findings and their [korch-lint/1] JSON form.
    The orchestrator runs the graph, plan and hazard checks under its
    [check_invariants] configuration flag; [korch_cli check] drives every
    pass from the command line, and the [@lint] dune alias runs it with
    the rule lint. *)

module Diagnostics = Diagnostics
module Graph_check = Graph_check
module Vrange = Vrange
module Plan_check = Plan_check
module Hazard = Hazard
module Rule_check = Rule_check

(** [graph_check g] — verify a primitive graph (see {!Graph_check.check_prim}). *)
let graph_check = Graph_check.check_prim

(** [opgraph_check g] — verify an operator graph (see {!Graph_check.check_op}). *)
let opgraph_check = Graph_check.check_op

(** [plan_check g p] — validate a plan against its primitive graph. *)
let plan_check = Plan_check.check

(** [lint_rules ?seed ?count ()] — run the full rewrite-rule lint. *)
let lint_rules = Rule_check.lint_all
