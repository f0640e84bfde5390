(* Operator fission tests: every fission rule must produce a primitive
   graph that computes exactly what the operator computes. The operator
   side is evaluated by Runtime.Interp (direct mathematical definitions);
   the primitive side by Runtime.Prim_interp on the fissioned graph. *)

open Ir
open Tensor

let rng = Rng.create 20240705

(* Build a single-op graph with the given input shapes, run both sides. *)
let check_op ?(eps = 1e-9) name (op : Optype.t) (input_shapes : Shape.t list) =
  let b = Opgraph.B.create () in
  let inputs =
    List.mapi (fun i s -> Opgraph.B.input b (Printf.sprintf "x%d" i) s) input_shapes
  in
  let out = Opgraph.B.add b op inputs in
  Opgraph.B.set_outputs b [ out ];
  let g = Opgraph.B.finish b in
  let values =
    List.mapi (fun i s -> (Printf.sprintf "x%d" i, Nd.randn rng s)) input_shapes
  in
  let expected = Runtime.Interp.run g ~inputs:values in
  let pg, mapping = Fission.Engine.run g in
  Alcotest.(check int) (name ^ ": mapping length") (Graph.length g) (Array.length mapping);
  let got = Runtime.Prim_interp.run pg ~inputs:values in
  match (expected, got) with
  | [ e ], [ a ] ->
    if not (Nd.allclose ~rtol:1e-7 ~atol:eps e a) then
      Alcotest.failf "%s: fission changed semantics (max diff %g)" name (Nd.max_abs_diff e a)
  | _ -> Alcotest.fail (name ^ ": arity")

let positive_shapes = [ [| 2; 3; 4 |] ]

let test_activations () =
  List.iter
    (fun (name, op) -> check_op name op positive_shapes)
    [ ("relu", Optype.Relu); ("leaky", Optype.LeakyRelu 0.2); ("sigmoid", Optype.Sigmoid);
      ("silu", Optype.Silu); ("mish", Optype.Mish); ("tanh", Optype.Tanh);
      ("gelu", Optype.Gelu); ("erf", Optype.Erf); ("exp", Optype.Exp); ("neg", Optype.Neg);
      ("square", Optype.Square) ]

let test_binaries () =
  List.iter
    (fun (name, op) -> check_op name op [ [| 2; 3 |]; [| 2; 3 |] ])
    [ ("add", Optype.Add); ("sub", Optype.Sub); ("mul", Optype.Mul) ];
  (* broadcasting across operands *)
  check_op "add broadcast" Optype.Add [ [| 2; 1; 4 |]; [| 3; 1 |] ]

let test_softmax () =
  check_op "softmax last" (Optype.Softmax 2) positive_shapes;
  check_op "softmax mid" (Optype.Softmax 1) positive_shapes;
  check_op "softmax first" (Optype.Softmax 0) positive_shapes

let test_softmax_sums_to_one () =
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 4; 8 |] in
  let s = Opgraph.B.add b (Optype.Softmax 1) [ x ] in
  Opgraph.B.set_outputs b [ s ];
  let g = Opgraph.B.finish b in
  let pg, _ = Fission.Engine.run g in
  match Runtime.Prim_interp.run pg ~inputs:[ ("x", Nd.randn rng [| 4; 8 |]) ] with
  | [ out ] ->
    let sums = Ops_reduce.sum ~axis:1 out in
    Alcotest.(check bool) "rows sum to 1" true
      (Nd.allclose ~rtol:1e-9 ~atol:1e-9 sums (Nd.ones [| 4 |]))
  | _ -> Alcotest.fail "arity"

let test_norms () =
  check_op "instance norm" (Optype.InstanceNorm 1e-5) [ [| 2; 3; 5; 5 |] ];
  check_op "layer norm plain" (Optype.LayerNorm 1e-5) [ [| 2; 6 |] ];
  check_op "layer norm affine" (Optype.LayerNorm 1e-5) [ [| 2; 4; 6 |]; [| 6 |]; [| 6 |] ];
  check_op "batch norm" (Optype.BatchNormInference 1e-5)
    [ [| 2; 3; 4; 4 |]; [| 3 |]; [| 3 |]; [| 3 |]; [| 3 |] ]

let test_instance_norm_statistics () =
  (* After InstanceNorm each (n, c) plane has mean ~0 and variance ~1. *)
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 1; 2; 8; 8 |] in
  let s = Opgraph.B.add b (Optype.InstanceNorm 1e-9) [ x ] in
  Opgraph.B.set_outputs b [ s ];
  let g = Opgraph.B.finish b in
  let pg, _ = Fission.Engine.run g in
  match Runtime.Prim_interp.run pg ~inputs:[ ("x", Nd.randn rng [| 1; 2; 8; 8 |]) ] with
  | [ out ] ->
    let mean = Ops_reduce.mean ~axis:2 (Ops_reduce.mean ~axis:2 out) in
    Alcotest.(check bool) "zero mean" true
      (Nd.allclose ~rtol:0. ~atol:1e-7 mean (Nd.zeros [| 1; 2 |]));
    let var = Ops_reduce.mean ~axis:2 (Ops_reduce.mean ~axis:2 (Ops_elementwise.square out)) in
    Alcotest.(check bool) "unit variance" true
      (Nd.allclose ~rtol:1e-4 ~atol:1e-4 var (Nd.ones [| 1; 2 |]))
  | _ -> Alcotest.fail "arity"

let test_reductions () =
  check_op "reduce sum" (Optype.ReduceSum { axis = 1; keepdims = false }) positive_shapes;
  check_op "reduce sum keep" (Optype.ReduceSum { axis = 2; keepdims = true }) positive_shapes;
  check_op "reduce mean" (Optype.ReduceMean { axis = 0; keepdims = false }) positive_shapes;
  check_op "reduce max" (Optype.ReduceMax { axis = 1; keepdims = true }) positive_shapes

let test_pools () =
  check_op "maxpool"
    (Optype.MaxPool { kernel = (3, 3); stride = (2, 2); padding = (1, 1) })
    [ [| 1; 2; 8; 8 |] ];
  check_op "avgpool"
    (Optype.AvgPool { kernel = (2, 2); stride = (2, 2); padding = (0, 0) })
    [ [| 1; 2; 8; 8 |] ];
  check_op "global avg pool" Optype.GlobalAvgPool [ [| 2; 3; 5; 5 |] ]

let test_layout_ops () =
  check_op "transpose" (Optype.Transpose [| 1; 0; 2 |]) positive_shapes;
  check_op "reshape" (Optype.Reshape [| 6; 4 |]) positive_shapes;
  check_op "pad"
    (Optype.Pad { before = [| 0; 1; 0 |]; after = [| 1; 0; 2 |]; value = 3.0 })
    positive_shapes;
  check_op "slice"
    (Optype.Slice { starts = [| 0; 1; 0 |]; stops = [| 2; 3; 2 |] })
    positive_shapes;
  check_op "concat" (Optype.Concat 1) [ [| 2; 3 |]; [| 2; 4 |] ];
  check_op "upsample" (Optype.Upsample 2) [ [| 1; 2; 3; 3 |] ]

let test_linear_ops () =
  check_op "matmul" Optype.MatMul [ [| 4; 6 |]; [| 6; 3 |] ];
  check_op "batched matmul" Optype.MatMul [ [| 2; 4; 6 |]; [| 2; 6; 3 |] ];
  check_op ~eps:1e-7 "conv" (Optype.Conv { stride = (1, 1); padding = (1, 1); bias = false })
    [ [| 1; 3; 6; 6 |]; [| 4; 3; 3; 3 |] ];
  check_op ~eps:1e-7 "conv bias"
    (Optype.Conv { stride = (2, 2); padding = (0, 0); bias = true })
    [ [| 1; 2; 6; 6 |]; [| 4; 2; 2; 2 |]; [| 4 |] ]

(* Gelu decomposes into 5 primitives; softmax into 4 (Figure 3). *)
let test_fission_granularity () =
  let count op input_shapes =
    let b = Opgraph.B.create () in
    let inputs = List.mapi (fun i s -> Opgraph.B.input b (Printf.sprintf "x%d" i) s) input_shapes in
    let out = Opgraph.B.add b op inputs in
    Opgraph.B.set_outputs b [ out ];
    let pg, _ = Fission.Engine.run (Opgraph.B.finish b) in
    List.length (Primgraph.non_source_nodes pg)
  in
  Alcotest.(check int) "softmax -> 4 primitives (Figure 3)" 4
    (count (Optype.Softmax 1) [ [| 2; 4 |] ]);
  Alcotest.(check int) "gelu -> 5 elementwise primitives" 5 (count Optype.Gelu [ [| 2; 4 |] ]);
  Alcotest.(check int) "relu stays single" 1 (count Optype.Relu [ [| 2; 4 |] ]);
  Alcotest.(check int) "matmul stays single" 1
    (count Optype.MatMul [ [| 2; 4 |]; [| 4; 2 |] ])

(* TopK is kept opaque (§3 "Supporting new operators"). *)
let test_opaque_topk () =
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 2; 10 |] in
  let t = Opgraph.B.add b (Optype.TopK 3) [ x ] in
  Opgraph.B.set_outputs b [ t ];
  let pg, _ = Fission.Engine.run (Opgraph.B.finish b) in
  let opaque =
    Array.exists
      (fun nd -> match nd.Graph.op with Primitive.Opaque _ -> true | _ -> false)
      pg.Graph.nodes
  in
  Alcotest.(check bool) "topk is opaque" true opaque;
  Alcotest.(check (array int)) "shape preserved" [| 2; 3 |]
    (Graph.shape pg (List.hd pg.Graph.outputs))

(* BatchNorm folding into Conv preserves semantics. *)
let test_bn_fold () =
  let ctx = Models.Blocks.create () in
  let x = Opgraph.B.input ctx.Models.Blocks.b "input" [| 1; 3; 8; 8 |] in
  let y = Models.Blocks.conv_bn_act ctx x ~out_c:4 ~k:3 ~stride:1 ~padding:1 ~act:`Relu in
  Opgraph.B.set_outputs ctx.Models.Blocks.b [ y ];
  let g = Opgraph.B.finish ctx.Models.Blocks.b in
  let folded = Fission.Canonicalize.fold_batch_norms g in
  (* the folded graph has no BatchNorm nodes *)
  let has_bn gr =
    Array.exists
      (fun nd -> match nd.Graph.op with Optype.BatchNormInference _ -> true | _ -> false)
      gr.Graph.nodes
  in
  Alcotest.(check bool) "original has BN" true (has_bn g);
  Alcotest.(check bool) "folded has no BN" false (has_bn folded);
  let input = [ ("input", Nd.randn rng [| 1; 3; 8; 8 |]) ] in
  let e = Runtime.Interp.run g ~inputs:input in
  let a = Runtime.Interp.run folded ~inputs:input in
  match (e, a) with
  | [ e ], [ a ] ->
    Alcotest.(check bool) "fold preserves semantics" true (Nd.allclose ~rtol:1e-6 ~atol:1e-7 e a)
  | _ -> Alcotest.fail "arity"

(* Folding drops the BN parameters and pre-fold weights it replaced:
   every constant left in a folded zoo model has a consumer. *)
let test_bn_fold_no_dead_constants () =
  List.iter
    (fun e ->
      let g = Fission.Canonicalize.fold_batch_norms (e.Models.Registry.build_small ()) in
      let succs = Graph.succs g in
      Array.iter
        (fun nd ->
          match nd.Graph.op with
          | Optype.Constant _ when succs.(nd.Graph.id) = [] ->
            Alcotest.failf "%s: constant %d has no consumer" e.Models.Registry.name nd.Graph.id
          | _ -> ())
        g.Graph.nodes)
    Models.Registry.all

(* Whole-model equivalence on the small registry variants. *)
let test_models_equivalent () =
  List.iter
    (fun e ->
      let g = e.Models.Registry.build_small () in
      let inputs =
        Array.to_list g.Graph.nodes
        |> List.filter_map (fun nd ->
               match nd.Graph.op with
               | Optype.Input name -> Some (name, Nd.randn (Rng.create 7) nd.Graph.shape)
               | _ -> None)
      in
      let expected = Runtime.Interp.run g ~inputs in
      let pg, _ = Fission.Engine.run g in
      let got = Runtime.Prim_interp.run pg ~inputs in
      List.iter2
        (fun expected got ->
          if not (Nd.allclose ~rtol:1e-5 ~atol:1e-7 expected got) then
            Alcotest.failf "%s: fission mismatch (max diff %g)" e.Models.Registry.name
              (Nd.max_abs_diff expected got))
        expected got)
    Models.Registry.all

let () =
  Alcotest.run "fission"
    [
      ( "per-op equivalence",
        [ Alcotest.test_case "activations" `Quick test_activations;
          Alcotest.test_case "binaries" `Quick test_binaries;
          Alcotest.test_case "softmax" `Quick test_softmax;
          Alcotest.test_case "softmax sums" `Quick test_softmax_sums_to_one;
          Alcotest.test_case "norms" `Quick test_norms;
          Alcotest.test_case "instance norm stats" `Quick test_instance_norm_statistics;
          Alcotest.test_case "reductions" `Quick test_reductions;
          Alcotest.test_case "pools" `Quick test_pools;
          Alcotest.test_case "layout" `Quick test_layout_ops;
          Alcotest.test_case "linear" `Quick test_linear_ops ] );
      ( "structure",
        [ Alcotest.test_case "granularity" `Quick test_fission_granularity;
          Alcotest.test_case "opaque topk" `Quick test_opaque_topk;
          Alcotest.test_case "bn fold" `Quick test_bn_fold;
          Alcotest.test_case "bn fold leaves no dead constants" `Quick
            test_bn_fold_no_dead_constants ] );
      ( "models",
        [ Alcotest.test_case "small models equivalent" `Slow test_models_equivalent ] );
    ]
