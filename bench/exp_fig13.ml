(* Figures 11 & 13: greedy fusion can be suboptimal. On a memory-bound
   Segformer subgraph TVM always fuses everything into one kernel
   (strategy A). At batch 1 that is right — launch overhead dominates.
   At batch 16 the monolithic kernel's generated code is too poor and
   splitting into several kernels (strategy B) wins (paper: 2.24x).
   Korch's cost-based ILP picks A at batch 1 and B at batch 16. *)

open Ir

(* Strategy A: the whole fissioned subgraph as one generated kernel.
   TVM would always choose this; cost it directly with the TVM backend
   (its codegen does emit such a kernel, quality penalties included). *)
let strategy_a ~spec ~precision (g : Opgraph.t) : float =
  let pg, _ = Fission.Engine.run g in
  let members =
    Bitset.of_list (Graph.length pg) (Primgraph.non_source_nodes pg)
  in
  Gpu.Cost_model.latency_us ~spec ~precision ~backend:Gpu.Cost_model.Tvm pg
    (Gpu.Stats.kernel_stats pg members ~outputs:pg.Graph.outputs)

let run () =
  Bench_common.section "Figure 13: greedy fusion vs Korch on a Segformer subgraph (V100)";
  let spec, precision = Bench_common.v100_fp32 in
  Printf.printf "%-8s %16s %16s %12s\n" "batch" "A: fuse all (us)" "B: Korch (us)" "A/B";
  (* For this study Korch's candidate cap is lifted to 20 primitives so
     the monolithic fuse-all kernel is inside its search space too — the
     point is that the ILP picks it at batch 1 and rejects it at 16. *)
  let cfg =
    let base = Bench_common.korch_config ~partition_max_prims:20 Bench_common.v100_fp32 in
    { base with Korch.Orchestrator.max_tvm_prims = 20 }
  in
  List.iter
    (fun batch ->
      let g = Models.Segformer.fig11_subgraph ~batch ~tokens:1024 ~channels:64 () in
      let a = strategy_a ~spec ~precision g in
      let g' = Fission.Canonicalize.fold_batch_norms g in
      let r = Korch.Orchestrator.run cfg g' in
      let b = r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us in
      Printf.printf "%-8d %16.1f %16.1f %11.2fx   (Korch kernels: %d)\n" batch a b (a /. b)
        (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan))
    [ 1; 16 ];
  Printf.printf
    "shape check: fuse-all is competitive at batch 1 but loses ~2x at batch 16 (paper: 2.24x)\n"
