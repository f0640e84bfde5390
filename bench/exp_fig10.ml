(* Figures 8-10: EfficientViT attention block case study. Korch first
   merges the ReduceSum into the MatMuls (Figure 9) and then orchestrates
   with redundant layout primitives, using far fewer kernels than the
   TensorRT strategy (paper: 7 vs 12 kernels, 3.29x). *)

let run () =
  Bench_common.section "Figure 10: EfficientViT attention block case study (V100)";
  let spec, precision = Bench_common.v100_fp32 in
  let g = Models.Efficientvit.fig8_attention_block ~batch:1 ~tokens:1024 ~channels:16 () in
  let env = Baselines.Common.make_env ~spec ~precision g in
  let trt_plan = Baselines.Trt.run env in
  let trt = trt_plan.Runtime.Plan.total_latency_us in
  let r = Bench_common.run_korch ~partition_max_prims:16 Bench_common.v100_fp32 g in
  let korch = r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us in
  Printf.printf "%-22s %8s %9s %11s\n" "strategy" "us" "kernels" "redundancy";
  Printf.printf "%-22s %8.1f %9d %11s\n" "TensorRT" trt
    (Runtime.Plan.kernel_count trt_plan) "-";
  Printf.printf "%-22s %8.1f %9d %11d\n" "Korch" korch
    (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan)
    (Runtime.Plan.redundancy r.Korch.Orchestrator.plan);
  Printf.printf "speedup: %.2fx (paper: 3.29x with 7 vs 12 kernels)\n"
    (Bench_common.speedup trt korch);
  Printf.printf "\nKorch kernels:\n";
  Bench_common.print_plan r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan;
  (* The Figure 9 transformation: the ReduceSum disappears into a MatMul. *)
  let count_reduces g =
    Array.fold_left
      (fun a nd -> match nd.Ir.Graph.op with Ir.Primitive.Reduce _ -> a + 1 | _ -> a)
      0 g.Ir.Graph.nodes
  in
  let pg = Korch.Orchestrator.fission g in
  Printf.printf
    "\nshape check: reduce primitives %d (after fission) -> %d (after transformations)\n"
    (count_reduces pg)
    (count_reduces r.Korch.Orchestrator.graph)
