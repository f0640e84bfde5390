(* Quickstart: build a small computation graph, let Korch find the optimal
   kernel orchestration, inspect the plan, and execute it.

   Run with: dune exec examples/quickstart.exe *)

open Ir

let () =
  (* 1. Build a computation graph: y = relu (softmax (x @ W1) @ W2). *)
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 32; 64 |] in
  let w1 = Opgraph.B.const b (Const.randn_scaled [| 64; 64 |] 1 0.125) in
  let w2 = Opgraph.B.const b (Const.randn_scaled [| 64; 16 |] 2 0.125) in
  let h = Opgraph.B.add b Optype.MatMul [ x; w1 ] in
  let p = Opgraph.B.add b (Optype.Softmax 1) [ h ] in
  let o = Opgraph.B.add b Optype.MatMul [ p; w2 ] in
  let y = Opgraph.B.add b Optype.Relu [ o ] in
  Opgraph.B.set_outputs b [ y ];
  let graph = Opgraph.B.finish b in
  Format.printf "computation graph:@.%a@." Opgraph.pp graph;

  (* 2. Orchestrate: fission -> transformations -> kernel identification ->
     profiling -> exact segment solve -> executable plan. *)
  let result = Korch.Orchestrator.run Korch.Orchestrator.default_config graph in
  print_string (Korch.Report.summary result);
  Format.printf "@.%a@." Runtime.Plan.pp result.Korch.Orchestrator.plan;

  (* 3. Execute the plan and check it against the reference interpreter. *)
  let input = Tensor.Nd.randn (Tensor.Rng.create 7) [| 32; 64 |] in
  let expected = Runtime.Interp.run graph ~inputs:[ ("x", input) ] in
  let got =
    Runtime.Executor.run result.Korch.Orchestrator.graph result.Korch.Orchestrator.plan
      ~inputs:[ ("x", input) ]
  in
  (match (expected, got) with
  | [ e ], [ g ] ->
    Printf.printf "plan output matches interpreter: max |diff| = %g\n"
      (Tensor.Nd.max_abs_diff e g)
  | _ -> assert false);

  (* 4. Compare against a PyTorch-style eager baseline under the same GPU
     cost model. *)
  let env =
    Baselines.Common.make_env ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32 graph
  in
  let eager = Baselines.Eager.run env in
  Printf.printf "eager: %.2f us in %d kernels; korch: %.2f us in %d kernels (%.2fx)\n"
    eager.Runtime.Plan.total_latency_us
    (Runtime.Plan.kernel_count eager)
    result.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
    (Runtime.Plan.kernel_count result.Korch.Orchestrator.plan)
    (eager.Runtime.Plan.total_latency_us
    /. result.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us)
