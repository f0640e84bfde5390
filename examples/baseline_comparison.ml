(* Compare Korch against the fusion baselines on any model in the zoo, at
   test scale (so every strategy is also executed and checked for
   correctness, not just costed).

   Run with: dune exec examples/baseline_comparison.exe [model]        *)

open Ir

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "candy" in
  let entry =
    match Models.Registry.find name with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown model %s; available: %s\n" name
        (String.concat ", " (List.map (fun e -> e.Models.Registry.name) Models.Registry.all));
      exit 1
  in
  let spec = Gpu.Spec.v100 and precision = Gpu.Precision.FP32 in
  let env = Baselines.Common.make_env ~spec ~precision (entry.Models.Registry.build_small ()) in
  let g = env.Baselines.Common.opgraph in
  let inputs =
    Array.to_list g.Graph.nodes
    |> List.filter_map (fun nd ->
           match nd.Graph.op with
           | Optype.Input n -> Some (n, Tensor.Nd.randn (Tensor.Rng.create 11) nd.Graph.shape)
           | _ -> None)
  in
  let reference = Runtime.Interp.run g ~inputs in
  let verify plan graph =
    let got = Runtime.Executor.run graph plan ~inputs in
    List.fold_left2
      (fun acc e a -> Float.max acc (Tensor.Nd.max_abs_diff e a))
      0.0 reference got
  in
  Printf.printf "%s (test scale): Korch vs baselines on simulated %s\n\n" name spec.Gpu.Spec.name;
  Printf.printf "%-12s %10s %9s %12s\n" "strategy" "us" "kernels" "max |diff|";
  List.iter
    (fun (bname, run) ->
      let plan = run env in
      Printf.printf "%-12s %10.1f %9d %12g\n" bname plan.Runtime.Plan.total_latency_us
        (Runtime.Plan.kernel_count plan)
        (verify plan env.Baselines.Common.primgraph))
    [ ("eager", Baselines.Eager.run); ("greedy-tvm", Baselines.Greedy_tvm.run);
      ("tensorrt", Baselines.Trt.run); ("dp-chain", Baselines.Dp_chain.run) ];
  let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
  Printf.printf "%-12s %10.1f %9d %12g\n" "korch"
    r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
    (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan)
    (verify r.Korch.Orchestrator.plan r.Korch.Orchestrator.graph)
