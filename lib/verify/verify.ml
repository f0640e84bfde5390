(** Facade for the static analysis subsystem.

    Three passes, all diagnostic-producing and non-raising:

    - {!Graph_check} — structural + typing verification of operator and
      primitive graphs (positional ids, no dangling edges, acyclicity,
      arity, source discipline, shape re-inference, output validity,
      dead-node detection);
    - {!Plan_check} — validation of an orchestration plan against its
      primitive graph (convexity, coverage, executability, latency
      sanity, redundancy statistics);
    - {!Rule_check} — a differential-testing linter that exercises every
      fission and transformation rule on seeded random pattern instances
      and checks interpreter-level equivalence.

    The orchestrator runs the first two under its [check_invariants]
    configuration flag; [korch_cli check] and the [@lint] dune alias drive
    all three from the command line. *)

module Diagnostics = Diagnostics
module Graph_check = Graph_check
module Plan_check = Plan_check
module Rule_check = Rule_check

(** [graph_check g] — verify a primitive graph (see {!Graph_check.check_prim}). *)
let graph_check = Graph_check.check_prim

(** [opgraph_check g] — verify an operator graph (see {!Graph_check.check_op}). *)
let opgraph_check = Graph_check.check_op

(** [plan_check g p] — validate a plan against its primitive graph. *)
let plan_check = Plan_check.check

(** [lint_rules ?seed ?count ()] — run the full rewrite-rule lint. *)
let lint_rules = Rule_check.lint_all
