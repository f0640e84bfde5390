(* Tests for the operator-level fusion baselines: groupings are valid
   partitions of the operator graph, their kernels are convex and
   executable, and the cost ordering matches each policy's power. *)

open Ir
open Tensor

let rng = Rng.create 31337

let spec = Gpu.Spec.v100
let precision = Gpu.Precision.FP32

let small_model () = Models.Registry.candy.Models.Registry.build_small ()

let env_of g = Baselines.Common.make_env ~spec ~precision g

let all_baselines =
  [ ("eager", Baselines.Eager.run); ("tvm", Baselines.Greedy_tvm.run);
    ("trt", Baselines.Trt.run); ("dp", Baselines.Dp_chain.run) ]

let groupings (env : Baselines.Common.env) =
  [ ("eager", Baselines.Eager.grouping env.Baselines.Common.opgraph);
    ("tvm", Baselines.Greedy_tvm.grouping env.Baselines.Common.opgraph);
    ("trt", Baselines.Trt.grouping env.Baselines.Common.opgraph);
    ("dp", Baselines.Dp_chain.grouping env) ]

let test_groupings_partition () =
  let env = env_of (small_model ()) in
  let expected =
    List.sort compare (Baselines.Common.non_source_topo env.Baselines.Common.opgraph)
  in
  List.iter
    (fun (name, grouping) ->
      let covered = List.sort compare (List.concat grouping) in
      Alcotest.(check (list int)) (name ^ " covers each op once") expected covered)
    (groupings env)

let test_groupings_convex () =
  let env = env_of (small_model ()) in
  List.iter
    (fun (name, grouping) ->
      Alcotest.(check bool) (name ^ " groups convex") true
        (Baselines.Common.check_convex env grouping))
    (groupings env)

let test_eager_is_singletons () =
  let g = small_model () in
  let grouping = Baselines.Eager.grouping g in
  Alcotest.(check bool) "all singletons" true
    (List.for_all (fun grp -> List.length grp = 1) grouping)

let test_trt_fuses_conv_relu () =
  (* conv + relu land in one group under the TensorRT policy. *)
  let ctx = Models.Blocks.create () in
  let x = Opgraph.B.input ctx.Models.Blocks.b "input" [| 1; 3; 8; 8 |] in
  let c = Models.Blocks.conv ctx x ~out_c:4 ~k:3 ~stride:1 ~padding:1 () in
  let r = Opgraph.B.add ctx.Models.Blocks.b Optype.Relu [ c ] in
  Opgraph.B.set_outputs ctx.Models.Blocks.b [ r ];
  let g = Opgraph.B.finish ctx.Models.Blocks.b in
  let grouping = Baselines.Trt.grouping g in
  Alcotest.(check int) "one group" 1 (List.length grouping);
  Alcotest.(check int) "two ops" 2 (List.length (List.hd grouping))

let test_tvm_fuses_elementwise_chain () =
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 64 |] in
  let a = Opgraph.B.add b Optype.Relu [ x ] in
  let c = Opgraph.B.add b Optype.Exp [ a ] in
  let d = Opgraph.B.add b Optype.Neg [ c ] in
  Opgraph.B.set_outputs b [ d ];
  let g = Opgraph.B.finish b in
  let grouping = Baselines.Greedy_tvm.grouping g in
  Alcotest.(check int) "entire chain one kernel" 1 (List.length grouping)

let test_tvm_reduction_closes_group () =
  (* injective -> reduce fuses; the op after the reduce starts fresh when
     it is compute-intensive. *)
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 4; 64 |] in
  let e = Opgraph.B.add b Optype.Exp [ x ] in
  let s = Opgraph.B.add b (Optype.Softmax 1) [ e ] in
  let w = Opgraph.B.const b (Const.randn [| 64; 8 |] 5) in
  let m = Opgraph.B.add b Optype.MatMul [ s; w ] in
  Opgraph.B.set_outputs b [ m ];
  let g = Opgraph.B.finish b in
  let grouping = Baselines.Greedy_tvm.grouping g in
  Alcotest.(check int) "two groups" 2 (List.length grouping)

let test_dp_no_worse_than_eager_on_chain () =
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 1 lsl 16 |] in
  let a = Opgraph.B.add b Optype.Relu [ x ] in
  let c = Opgraph.B.add b Optype.Exp [ a ] in
  let d = Opgraph.B.add b Optype.Sigmoid [ c ] in
  let e = Opgraph.B.add b Optype.Neg [ d ] in
  Opgraph.B.set_outputs b [ e ];
  let g = Opgraph.B.finish b in
  let env = env_of g in
  let eager = Baselines.Eager.run env in
  let dp = Baselines.Dp_chain.run env in
  Alcotest.(check bool) "dp <= eager" true
    (dp.Runtime.Plan.total_latency_us <= eager.Runtime.Plan.total_latency_us +. 1e-9);
  (* On a pure elementwise chain DP should fuse everything: 1 kernel. *)
  Alcotest.(check int) "dp fuses chain" 1 (Runtime.Plan.kernel_count dp)

let test_baseline_plans_execute_correctly () =
  (* Every baseline plan, executed kernel-by-kernel on the primitive
     graph, reproduces the reference interpreter output. *)
  let g = small_model () in
  let env = env_of g in
  let inputs = [ ("input", Nd.randn rng [| 1; 3; 32; 32 |]) ] in
  let expected = Runtime.Interp.run g ~inputs in
  List.iter
    (fun (name, run) ->
      let plan = run env in
      (match Runtime.Executor.validate env.Baselines.Common.primgraph plan with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invalid plan: %s" name m);
      let got = Runtime.Executor.run env.Baselines.Common.primgraph plan ~inputs in
      List.iter2
        (fun e a ->
          if not (Nd.allclose ~rtol:1e-5 ~atol:1e-7 e a) then
            Alcotest.failf "%s: wrong result (max diff %g)" name (Nd.max_abs_diff e a))
        expected got)
    all_baselines

let test_cost_ordering () =
  (* Fusion policies are ordered by power on the real models: eager is
     never the cheapest among the baselines. *)
  List.iter
    (fun e ->
      let env = env_of (e.Models.Registry.build_small ()) in
      let eager = (Baselines.Eager.run env).Runtime.Plan.total_latency_us in
      let tvm = (Baselines.Greedy_tvm.run env).Runtime.Plan.total_latency_us in
      let trt = (Baselines.Trt.run env).Runtime.Plan.total_latency_us in
      Alcotest.(check bool)
        (e.Models.Registry.name ^ ": fusion helps")
        true
        (tvm <= eager +. 1e-6 && trt <= eager +. 1e-6))
    [ Models.Registry.candy; Models.Registry.segformer ]

let test_classification () =
  Alcotest.(check bool) "conv compute" true
    (Baselines.Common.classify (Optype.Conv { stride = (1, 1); padding = (0, 0); bias = false })
    = Baselines.Common.ComputeIntensive);
  Alcotest.(check bool) "softmax reduction" true
    (Baselines.Common.classify (Optype.Softmax 1) = Baselines.Common.Reduction);
  Alcotest.(check bool) "relu injective" true
    (Baselines.Common.classify Optype.Relu = Baselines.Common.Injective);
  Alcotest.(check bool) "topk opaque" true
    (Baselines.Common.classify (Optype.TopK 5) = Baselines.Common.Opaque)

let () =
  Alcotest.run "baselines"
    [
      ( "groupings",
        [ Alcotest.test_case "partition" `Quick test_groupings_partition;
          Alcotest.test_case "convex" `Quick test_groupings_convex;
          Alcotest.test_case "eager singletons" `Quick test_eager_is_singletons;
          Alcotest.test_case "trt conv+relu" `Quick test_trt_fuses_conv_relu;
          Alcotest.test_case "tvm ew chain" `Quick test_tvm_fuses_elementwise_chain;
          Alcotest.test_case "tvm reduce closes" `Quick test_tvm_reduction_closes_group ] );
      ( "costs",
        [ Alcotest.test_case "dp vs eager" `Quick test_dp_no_worse_than_eager_on_chain;
          Alcotest.test_case "ordering" `Quick test_cost_ordering;
          Alcotest.test_case "classification" `Quick test_classification ] );
      ( "execution",
        [ Alcotest.test_case "plans execute" `Slow test_baseline_plans_execute_correctly ] );
    ]
