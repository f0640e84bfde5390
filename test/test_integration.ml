(* End-to-end integration tests: the full Korch pipeline on every model in
   the zoo (test-scale), checked for plan validity, semantic equivalence
   against the operator interpreter, and cost dominance over the paper's
   baselines under the shared cost model. *)

open Ir
open Tensor

let spec = Gpu.Spec.v100
let precision = Gpu.Precision.FP32

let cfg = Korch.Orchestrator.default_config

let inputs_of (g : Opgraph.t) seed =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Optype.Input name -> Some (name, Nd.randn (Rng.create seed) nd.Graph.shape)
         | _ -> None)

let run_model (e : Models.Registry.entry) =
  let g = e.Models.Registry.build_small () in
  let r = Korch.Orchestrator.run cfg g in
  (g, r)

let test_model_equivalence (e : Models.Registry.entry) () =
  let g, r = run_model e in
  (match Runtime.Executor.validate r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid plan: %s" m);
  let inputs = inputs_of g 101 in
  let expected = Runtime.Interp.run g ~inputs in
  let got = Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs in
  Alcotest.(check int) "output arity" (List.length expected) (List.length got);
  List.iter2
    (fun e' a ->
      if not (Nd.allclose ~rtol:1e-4 ~atol:1e-6 e' a) then
        Alcotest.failf "orchestrated output differs (max diff %g)" (Nd.max_abs_diff e' a))
    expected got

let test_model_beats_baselines (e : Models.Registry.entry) () =
  let g, r = run_model e in
  let env = Baselines.Common.make_env ~spec ~precision g in
  let korch = r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us in
  List.iter
    (fun (name, run) ->
      let baseline = (run env).Runtime.Plan.total_latency_us in
      if korch > baseline +. 1e-6 then
        Alcotest.failf "korch (%.2f us) worse than %s (%.2f us)" korch name baseline)
    [ ("eager", Baselines.Eager.run); ("greedy-tvm", Baselines.Greedy_tvm.run);
      ("tensorrt", Baselines.Trt.run) ]

let test_model_stats (e : Models.Registry.entry) () =
  let _, r = run_model e in
  Alcotest.(check bool) "primitives counted" true (r.Korch.Orchestrator.prim_nodes > 0);
  Alcotest.(check bool) "states" true (r.Korch.Orchestrator.total_states > 0);
  Alcotest.(check bool) "candidates" true (r.Korch.Orchestrator.total_candidates > 0);
  Alcotest.(check bool) "redundancy >= 0" true
    (Runtime.Plan.redundancy r.Korch.Orchestrator.plan >= 0);
  (* every kernel latency positive; plan total = sum *)
  let sum =
    List.fold_left
      (fun a k -> a +. k.Runtime.Plan.latency_us)
      0.0 r.Korch.Orchestrator.plan.Runtime.Plan.kernels
  in
  Alcotest.(check bool) "Eq. 2 total" true
    (Float.abs (sum -. r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us) < 1e-6)

(* The orchestrator and the baselines fold BatchNorms themselves: a raw
   graph and its folded form give the same plan document, peak memory and
   candidate space, and the same baseline prices. *)
let test_raw_matches_folded (e : Models.Registry.entry) () =
  let raw = e.Models.Registry.build_small () in
  let folded = Fission.Canonicalize.fold_batch_norms raw in
  let a = Korch.Orchestrator.run cfg raw and b = Korch.Orchestrator.run cfg folded in
  let doc (r : Korch.Orchestrator.result) =
    Obs.Jsonw.to_string (Korch.Report.plan_to_json r.Korch.Orchestrator.plan)
  in
  Alcotest.(check bool) "plan document" true (doc a = doc b);
  Alcotest.(check int) "peak bytes" b.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes
    a.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes;
  Alcotest.(check bool) "candidate space" true
    (a.Korch.Orchestrator.candidate_space = b.Korch.Orchestrator.candidate_space);
  let prices g =
    let env = Baselines.Common.make_env ~spec ~precision g in
    List.map
      (fun run -> (run env).Runtime.Plan.total_latency_us)
      [ Baselines.Eager.run; Baselines.Greedy_tvm.run; Baselines.Trt.run; Baselines.Dp_chain.run ]
  in
  Alcotest.(check (list (float 0.0))) "baseline latencies" (prices folded) (prices raw)

(* The A100/TF32 configuration also runs end to end. *)
let test_a100_precision () =
  let g = Models.Segformer.attention_subgraph ~batch:1 ~tokens:16 ~channels:8 () in
  let cfg =
    { cfg with Korch.Orchestrator.spec = Gpu.Spec.a100; precision = Gpu.Precision.TF32 }
  in
  let r = Korch.Orchestrator.run cfg g in
  Alcotest.(check bool) "a100 plan" true
    (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan > 0);
  match Runtime.Executor.validate r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid plan: %s" m

(* Fission-only adaptation mode (Figure 7): feeding the primitive graph to
   the TRT-style orchestrator must not be slower than TRT on the operator
   graph. Modeled via greedy grouping over the fissioned graph inside the
   bench; here we just check the bench-facing API pieces exist and run. *)
let test_opaque_model_survives () =
  (* A graph containing TopK still orchestrates: the opaque primitive gets
     its own kernel. *)
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 4; 32 |] in
  let r = Opgraph.B.add b Optype.Relu [ x ] in
  let t = Opgraph.B.add b (Optype.TopK 5) [ r ] in
  let n = Opgraph.B.add b Optype.Neg [ t ] in
  Opgraph.B.set_outputs b [ n ];
  let g = Opgraph.B.finish b in
  let res = Korch.Orchestrator.run cfg g in
  let has_opaque_kernel =
    List.exists
      (fun k -> k.Runtime.Plan.backend = "opaque")
      res.Korch.Orchestrator.plan.Runtime.Plan.kernels
  in
  Alcotest.(check bool) "opaque kernel present" true has_opaque_kernel

let test_multi_output_graph () =
  (* Graphs with several outputs orchestrate and publish all of them. *)
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 16 |] in
  let a = Opgraph.B.add b Optype.Relu [ x ] in
  let o1 = Opgraph.B.add b Optype.Exp [ a ] in
  let o2 = Opgraph.B.add b Optype.Neg [ a ] in
  Opgraph.B.set_outputs b [ o1; o2 ];
  let g = Opgraph.B.finish b in
  let r = Korch.Orchestrator.run cfg g in
  let inputs = [ ("x", Nd.randn (Rng.create 4) [| 16 |]) ] in
  let expected = Runtime.Interp.run g ~inputs in
  let got = Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs in
  List.iter2
    (fun e a -> Alcotest.(check bool) "output" true (Nd.allclose ~rtol:1e-6 e a))
    expected got

(* Random operator graphs through the full pipeline: all tensors square
   [d x d] so any wiring type-checks; operators drawn from elementwise,
   softmax, layer norm, matmul and transpose. The orchestrated plan must
   execute and agree with the reference interpreter. *)
let random_opgraph : (Opgraph.t * int) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* d = int_range 2 5 in
  let* n_ops = int_range 1 10 in
  let* choices = list_size (return n_ops) (int_range 0 1000) in
  return
    (let b = Opgraph.B.create () in
     let x = Opgraph.B.input b "x" [| d; d |] in
     let nodes = ref [ x ] in
     List.iter
       (fun c ->
         let pick k = List.nth !nodes (k mod List.length !nodes) in
         let id =
           match c mod 7 with
           | 0 -> Opgraph.B.add b Optype.Relu [ pick (c / 7) ]
           | 1 -> Opgraph.B.add b Optype.Tanh [ pick (c / 7) ]
           | 2 -> Opgraph.B.add b Optype.Add [ pick (c / 7); pick (c / 11) ]
           | 3 -> Opgraph.B.add b Optype.Mul [ pick (c / 7); pick (c / 11) ]
           | 4 -> Opgraph.B.add b (Optype.Softmax 1) [ pick (c / 7) ]
           | 5 -> Opgraph.B.add b Optype.MatMul [ pick (c / 7); pick (c / 11) ]
           | _ -> Opgraph.B.add b (Optype.Transpose [| 1; 0 |]) [ pick (c / 7) ]
         in
         nodes := id :: !nodes)
       choices;
     Opgraph.B.set_outputs b [ List.hd !nodes ];
     (Opgraph.B.finish b, d))

let prop_orchestrator_random =
  QCheck2.Test.make ~name:"orchestrator is semantics-preserving on random graphs" ~count:25
    random_opgraph
    (fun (g, d) ->
      let small_cfg = { cfg with Korch.Orchestrator.partition_max_prims = 5 } in
      let r = Korch.Orchestrator.run small_cfg g in
      (match Runtime.Executor.validate r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan with
      | Ok () -> ()
      | Error m -> QCheck2.Test.fail_reportf "invalid plan: %s" m);
      let inputs = [ ("x", Nd.randn (Rng.create 17) [| d; d |]) ] in
      let expected = Runtime.Interp.run g ~inputs in
      let got =
        Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs
      in
      List.for_all2 (fun e a -> Nd.allclose ~rtol:1e-5 ~atol:1e-7 e a) expected got)

let model_cases mk =
  List.map
    (fun e -> Alcotest.test_case e.Models.Registry.name `Slow (mk e))
    Models.Registry.all

let () =
  Alcotest.run "integration"
    [
      ("equivalence", model_cases test_model_equivalence);
      ("beats baselines", model_cases test_model_beats_baselines);
      ("stats", model_cases test_model_stats);
      ("raw vs folded", model_cases test_raw_matches_folded);
      ( "configurations",
        [ Alcotest.test_case "a100 tf32" `Quick test_a100_precision;
          Alcotest.test_case "opaque model" `Quick test_opaque_model_survives;
          Alcotest.test_case "multi-output" `Quick test_multi_output_graph ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_orchestrator_random ]);
    ]
