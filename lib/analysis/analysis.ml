(** Static analysis over primitive graphs and stitched plans.

    Two passes: value ranges ({!Vrange}) and the memory-planner hazard
    cross-check ({!Hazard}). {!Lint} serializes findings as
    [korch-lint/1] JSON. Dead code is {!Verify.Graph_check}'s finding.

    {!graph_report} lints a graph before orchestration; {!Hazard.check}
    audits one orchestrated plan's arena assignment. Both return
    {!Verify.Diagnostics} reports and never raise. *)

module Vrange = Vrange
module Hazard = Hazard
module Lint = Lint

(** [graph_report g] — value-range findings, then the graph verifier's
    (dead code, and structural errors in a malformed graph). *)
let graph_report (g : Ir.Primgraph.t) : Verify.Diagnostics.report =
  Vrange.check g @ Verify.graph_check g
