(** Static validation of orchestration plans against their primitive graph.

    The structural properties (convex kernels, publish-before-read, output
    coverage, sane ids and latencies) are {!Runtime.Plan.check}'s — the
    same function the executor and the plan cache call — and each of its
    errors becomes an error diagnostic here, so a solver, scheduler, or
    stitching bug surfaces as a diagnostic instead of a wrong answer
    inside the executor. This pass adds only what a report needs beyond
    validity:

    - a warning for a kernel that publishes nothing;
    - a warning when the recorded total disagrees with the kernel sum;
    - redundancy statistics (§4.2) as an info finding. *)

type stats = {
  kernels : int;
  executed : int;  (** primitive executions, with multiplicity *)
  distinct : int;  (** distinct primitives executed *)
  redundancy : int;  (** executed − distinct (§4.2's redundant computation) *)
  published : int;  (** tensors published across all kernels *)
}

let pass = "plan"

(** [compute_stats p] — execution statistics of a plan. *)
let compute_stats (p : Runtime.Plan.t) : stats =
  let all = Runtime.Plan.executed_prims p in
  let distinct = List.length (List.sort_uniq compare all) in
  {
    kernels = Runtime.Plan.kernel_count p;
    executed = List.length all;
    distinct;
    redundancy = List.length all - distinct;
    published =
      List.fold_left (fun a k -> a + List.length k.Runtime.Plan.outputs) 0 p.Runtime.Plan.kernels;
  }

(** [check g p] — validate plan [p] against primitive graph [g]; returns
    all findings, never raises. A degraded segment's plan must satisfy
    exactly the same invariants as an optimal one. *)
let check (g : Ir.Primgraph.t) (p : Runtime.Plan.t) : Diagnostics.report =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  List.iter
    (fun (e : Runtime.Plan.error) ->
      let loc =
        match e.Runtime.Plan.loc with
        | Runtime.Plan.Kernel ki -> Diagnostics.Kernel ki
        | Runtime.Plan.Output o -> Diagnostics.Output o
      in
      emit (Diagnostics.error ~pass ~loc "%s" e.Runtime.Plan.message))
    (Runtime.Plan.check g p);
  List.iteri
    (fun ki (k : Runtime.Plan.kernel) ->
      if k.Runtime.Plan.outputs = [] then
        emit (Diagnostics.warning ~pass ~loc:(Kernel ki) "kernel publishes no outputs"))
    p.Runtime.Plan.kernels;
  (* Total latency consistency. *)
  let sum =
    List.fold_left (fun a k -> a +. k.Runtime.Plan.latency_us) 0.0 p.Runtime.Plan.kernels
  in
  if Float.abs (sum -. p.Runtime.Plan.total_latency_us) > 1e-6 *. Float.max 1.0 sum then
    emit
      (Diagnostics.warning ~pass ~loc:Whole
         "recorded total latency %g us differs from kernel sum %g us"
         p.Runtime.Plan.total_latency_us sum);
  let s = compute_stats p in
  emit
    (Diagnostics.info ~pass ~loc:Whole
       "%d kernels, %d primitive executions (%d distinct, %d redundant), %d tensors published"
       s.kernels s.executed s.distinct s.redundancy s.published);
  List.rev !diags
