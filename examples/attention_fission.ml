(* Attention + operator fission walkthrough (the paper's Figures 2-4).

   Shows the softmax fission rule, the primitive-graph transformations that
   turn its reduce into a MatMul, and how orchestration maps softmax primitives
   into several kernels fused with their neighbours.

   Run with: dune exec examples/attention_fission.exe *)

open Ir

let () =
  let g = Models.Segformer.attention_subgraph ~batch:1 ~tokens:256 ~channels:64 () in
  Format.printf "self-attention computation graph (%d operators):@.%a@."
    (Graph.length g) Opgraph.pp g;

  (* Operator fission (Figure 3): softmax becomes exp / reduce / broadcast
     / div. *)
  let pg, _mapping = Fission.Engine.run g in
  Format.printf "@.after operator fission (%d primitives):@.%a@."
    (List.length (Primgraph.non_source_nodes pg))
    Primgraph.pp pg;

  (* Primitive-graph transformations (Figure 2b): the reduce can become a
     MatMul against a ones vector, the div can swap with the next MatMul. *)
  let optimized =
    Transform.Optimizer.optimize ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32 pg
  in
  Format.printf "@.after transformations (%d primitives):@.%a@."
    (List.length (Primgraph.non_source_nodes optimized))
    Primgraph.pp optimized;

  (* Full orchestration (Figure 4). *)
  let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
  Format.printf "@.Korch plan:@.%a@." Runtime.Plan.pp r.Korch.Orchestrator.plan;

  (* Verify the whole journey preserved semantics. *)
  let rng = Tensor.Rng.create 99 in
  let inputs =
    [ ("q", Tensor.Nd.randn rng [| 1; 256; 64 |]);
      ("k", Tensor.Nd.randn rng [| 1; 256; 64 |]);
      ("v", Tensor.Nd.randn rng [| 1; 256; 64 |]) ]
  in
  let reference = Runtime.Interp.run g ~inputs in
  let from_plan =
    Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs
  in
  List.iter2
    (fun e a -> Printf.printf "max |diff| vs reference: %g\n" (Tensor.Nd.max_abs_diff e a))
    reference from_plan
