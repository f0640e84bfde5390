(* Tests for primitive-graph transformations: every rewrite rule must be a
   semantic identity, CSE/constfold must reduce and preserve, and the
   optimizer must never return a more expensive graph than its input. *)

open Ir
open Tensor

let rng = Rng.create 555

let inputs_of (g : Primgraph.t) =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Primitive.Input name -> Some (name, Nd.randn rng nd.Graph.shape)
         | _ -> None)

let equivalent ?(rtol = 1e-6) (g1 : Primgraph.t) (g2 : Primgraph.t) =
  let inputs = inputs_of g1 in
  let o1 = Runtime.Prim_interp.run g1 ~inputs in
  let o2 = Runtime.Prim_interp.run g2 ~inputs in
  List.length o1 = List.length o2
  && List.for_all2 (fun a b -> Nd.allclose ~rtol ~atol:1e-8 a b) o1 o2

let check_rule_preserves name rule g ~expect_fires =
  let rewrites = rule g in
  if expect_fires then
    Alcotest.(check bool) (name ^ " fires") true (rewrites <> []);
  List.iteri
    (fun i g' ->
      Graph.validate g';
      if not (equivalent g g') then Alcotest.failf "%s: rewrite %d changed semantics" name i)
    rewrites

(* ---------------- graphs the rules fire on ---------------- *)

(* softmax-style: exp -> reduce -> broadcast -> div, then matmul by a
   weight: the Figure 2b playground. *)
let softmax_matmul_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 6; 8 |] in
  let w = Primgraph.B.const b (Const.randn [| 8; 4 |] 11) in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let s = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ e ] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, 8)) [ s ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ e; bc ] in
  let mm = Primgraph.B.add b Primitive.Matmul [ d; w ] in
  Primgraph.B.set_outputs b [ mm ];
  Primgraph.B.finish b

let shared_input_matmuls () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 6; 8 |] in
  let w1 = Primgraph.B.const b (Const.randn [| 8; 4 |] 1) in
  let w2 = Primgraph.B.const b (Const.randn [| 8; 5 |] 2) in
  let m1 = Primgraph.B.add b Primitive.Matmul [ x; w1 ] in
  let m2 = Primgraph.B.add b Primitive.Matmul [ x; w2 ] in
  let r1 = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ m1 ] in
  let r2 = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ m2 ] in
  Primgraph.B.set_outputs b [ r1; r2 ];
  Primgraph.B.finish b

let transpose_matmul_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 6; 8 |] in
  let y = Primgraph.B.input b "y" [| 8; 4 |] in
  let mm = Primgraph.B.add b Primitive.Matmul [ x; y ] in
  let t = Primgraph.B.add b (Primitive.Transpose [| 1; 0 |]) [ mm ] in
  Primgraph.B.set_outputs b [ t ];
  Primgraph.B.finish b

let double_transpose_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 3; 4 |] in
  let t1 = Primgraph.B.add b (Primitive.Transpose [| 1; 2; 0 |]) [ x ] in
  let t2 = Primgraph.B.add b (Primitive.Transpose [| 2; 0; 1 |]) [ t1 ] in
  let r = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ t2 ] in
  Primgraph.B.set_outputs b [ r ];
  Primgraph.B.finish b

(* ---------------- rule tests ---------------- *)

let test_reduce_to_matmul () =
  check_rule_preserves "reduce_to_matmul" Transform.Rules_reduce_matmul.apply
    (softmax_matmul_graph ()) ~expect_fires:true

let test_swap_div_matmul () =
  check_rule_preserves "swap_div_matmul" Transform.Rules_swap.apply (softmax_matmul_graph ())
    ~expect_fires:true

let test_merge_matmul () =
  check_rule_preserves "merge_matmul" Transform.Rules_merge_matmul.apply
    (shared_input_matmuls ()) ~expect_fires:true

let test_merge_matmul_structure () =
  (* After the merge there is exactly one MatMul, fed by a Concat, and two
     Slices. *)
  match Transform.Rules_merge_matmul.apply (shared_input_matmuls ()) with
  | [] -> Alcotest.fail "merge did not fire"
  | g' :: _ ->
    let count p = Array.fold_left (fun a nd -> if p nd.Graph.op then a + 1 else a) 0 g'.Graph.nodes in
    Alcotest.(check int) "one matmul" 1 (count (fun o -> o = Primitive.Matmul));
    Alcotest.(check int) "one concat" 1
      (count (fun o -> match o with Primitive.Concat _ -> true | _ -> false));
    Alcotest.(check int) "two slices" 2
      (count (fun o -> match o with Primitive.Slice _ -> true | _ -> false))

let test_transpose_rules () =
  check_rule_preserves "transpose_of_matmul" Transform.Rules_transpose.apply
    (transpose_matmul_graph ()) ~expect_fires:true;
  check_rule_preserves "cancel_pairs" Transform.Rules_transpose.apply
    (double_transpose_graph ()) ~expect_fires:true

let test_transpose_cancellation_removes_nodes () =
  match Transform.Rules_transpose.cancel_pairs (double_transpose_graph ()) with
  | [] -> Alcotest.fail "cancellation did not fire"
  | g' :: _ ->
    let transposes =
      Array.fold_left
        (fun a nd -> match nd.Graph.op with Primitive.Transpose _ -> a + 1 | _ -> a)
        0 g'.Graph.nodes
    in
    (* [1;2;0] then [2;0;1] composes to the identity: both disappear. *)
    Alcotest.(check int) "transposes eliminated" 0 transposes

(* ---------------- broadcast rules ---------------- *)

let broadcast_unary_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, 6)) [ x ] in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ bc ] in
  Primgraph.B.set_outputs b [ e ];
  Primgraph.B.finish b

let test_broadcast_unary () =
  check_rule_preserves "broadcast/unary" Transform.Rules_broadcast.apply
    (broadcast_unary_graph ()) ~expect_fires:true

let test_broadcast_binary () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let y = Primgraph.B.input b "y" [| 4 |] in
  let bx = Primgraph.B.add b (Primitive.Broadcast (0, 3)) [ x ] in
  let by = Primgraph.B.add b (Primitive.Broadcast (0, 3)) [ y ] in
  let s = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ bx; by ] in
  Primgraph.B.set_outputs b [ s ];
  let g = Primgraph.B.finish b in
  check_rule_preserves "broadcast/binary" Transform.Rules_broadcast.apply g ~expect_fires:true

let test_reduce_of_broadcast () =
  List.iter
    (fun agg ->
      let b = Primgraph.B.create () in
      let x = Primgraph.B.input b "x" [| 3; 4 |] in
      (* keep values positive so Prod-vs-PowConst rounding matches *)
      let px = Primgraph.B.add b (Primitive.Unary Primitive.Sigmoid) [ x ] in
      let bc = Primgraph.B.add b (Primitive.Broadcast (1, 5)) [ px ] in
      let r = Primgraph.B.add b (Primitive.Reduce (agg, 1)) [ bc ] in
      Primgraph.B.set_outputs b [ r ];
      let g = Primgraph.B.finish b in
      check_rule_preserves
        ("reduce(broadcast) " ^ Tensor.Ops_reduce.agg_to_string agg)
        Transform.Rules_broadcast.apply g ~expect_fires:true)
    [ Primitive.Sum; Primitive.Mean; Primitive.Max; Primitive.Min; Primitive.Prod ]

(* ---------------- layout cancellation ---------------- *)

let test_reshape_fuse () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 6 |] in
  let r1 = Primgraph.B.add b (Primitive.Reshape [| 3; 4 |]) [ x ] in
  let r2 = Primgraph.B.add b (Primitive.Reshape [| 12 |]) [ r1 ] in
  let out = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ r2 ] in
  Primgraph.B.set_outputs b [ out ];
  let g = Primgraph.B.finish b in
  check_rule_preserves "reshape fuse" Transform.Rules_layout_cancel.apply g ~expect_fires:true;
  match Transform.Rules_layout_cancel.reshape_fuse g with
  | g' :: _ ->
    let reshapes =
      Array.fold_left
        (fun a nd -> match nd.Graph.op with Primitive.Reshape _ -> a + 1 | _ -> a)
        0 g'.Graph.nodes
    in
    Alcotest.(check int) "single reshape left" 1 reshapes
  | [] -> Alcotest.fail "did not fire"

let test_slice_of_pad_cancels () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 3 |] in
  let p =
    Primgraph.B.add b (Primitive.Pad { before = [| 1; 2 |]; after = [| 3; 1 |]; value = 0. }) [ x ]
  in
  let s =
    Primgraph.B.add b (Primitive.Slice { starts = [| 1; 2 |]; stops = [| 3; 5 |] }) [ p ]
  in
  let out = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ s ] in
  Primgraph.B.set_outputs b [ out ];
  let g = Primgraph.B.finish b in
  check_rule_preserves "slice(pad)" Transform.Rules_layout_cancel.apply g ~expect_fires:true;
  match Transform.Rules_layout_cancel.slice_of_pad g with
  | g' :: _ ->
    Alcotest.(check int) "pad and slice gone" 1 (List.length (Primgraph.non_source_nodes g'))
  | [] -> Alcotest.fail "did not fire"

let test_slice_of_concat () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 3 |] in
  let y = Primgraph.B.input b "y" [| 2; 4 |] in
  let c = Primgraph.B.add b (Primitive.Concat 1) [ x; y ] in
  (* slice inside the second piece *)
  let s = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 4 |]; stops = [| 2; 6 |] }) [ c ] in
  let out = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ s ] in
  Primgraph.B.set_outputs b [ out ];
  let g = Primgraph.B.finish b in
  check_rule_preserves "slice(concat)" Transform.Rules_layout_cancel.apply g ~expect_fires:true

let test_concat_of_slices_cancels () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 7 |] in
  let s1 = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 0 |]; stops = [| 2; 3 |] }) [ x ] in
  let s2 = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 3 |]; stops = [| 2; 7 |] }) [ x ] in
  let c = Primgraph.B.add b (Primitive.Concat 1) [ s1; s2 ] in
  let out = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ c ] in
  Primgraph.B.set_outputs b [ out ];
  let g = Primgraph.B.finish b in
  check_rule_preserves "concat(slices)" Transform.Rules_layout_cancel.apply g ~expect_fires:true;
  match Transform.Rules_layout_cancel.concat_of_slices g with
  | g' :: _ ->
    Alcotest.(check int) "collapsed to relu only" 1
      (List.length (Primgraph.non_source_nodes g'))
  | [] -> Alcotest.fail "did not fire"

let test_concat_of_slices_wrong_order_kept () =
  (* Reversed slice order is NOT the identity; the rule must not fire. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 6 |] in
  let s1 = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 3 |]; stops = [| 2; 6 |] }) [ x ] in
  let s2 = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 0 |]; stops = [| 2; 3 |] }) [ x ] in
  let c = Primgraph.B.add b (Primitive.Concat 1) [ s1; s2 ] in
  Primgraph.B.set_outputs b [ c ];
  let g = Primgraph.B.finish b in
  Alcotest.(check int) "rule does not fire" 0
    (List.length (Transform.Rules_layout_cancel.concat_of_slices g))

(* ---------------- CSE / constant folding ---------------- *)

let test_cse_merges_duplicates () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let e1 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let e2 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let s = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ e1; e2 ] in
  Primgraph.B.set_outputs b [ s ];
  let g = Primgraph.B.finish b in
  let g' = Transform.Cse.run g in
  Alcotest.(check bool) "fewer nodes" true (Graph.length g' < Graph.length g);
  Alcotest.(check bool) "semantics preserved" true (equivalent g g')

let test_cse_distinguishes_slices () =
  (* Regression: different Slice ranges must not be merged. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 6 |] in
  let s1 = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 0 |]; stops = [| 4; 3 |] }) [ x ] in
  let s2 = Primgraph.B.add b (Primitive.Slice { starts = [| 0; 3 |]; stops = [| 4; 6 |] }) [ x ] in
  let a = Primgraph.B.add b (Primitive.Binary Primitive.Sub) [ s1; s2 ] in
  Primgraph.B.set_outputs b [ a ];
  let g = Primgraph.B.finish b in
  let g' = Transform.Cse.run g in
  Alcotest.(check int) "nothing merged" (Graph.length g) (Graph.length g');
  Alcotest.(check bool) "semantics preserved" true (equivalent g g')

let test_constfold () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 2 |] in
  let c1 = Primgraph.B.const b (Const.value [| 2; 2 |] 3.0) in
  let c2 = Primgraph.B.const b (Const.value [| 2; 2 |] 4.0) in
  let s = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ c1; c2 ] in
  let out = Primgraph.B.add b (Primitive.Binary Primitive.Mul) [ x; s ] in
  Primgraph.B.set_outputs b [ out ];
  let g = Primgraph.B.finish b in
  let g' = Transform.Constfold.run g in
  Alcotest.(check bool) "semantics preserved" true (equivalent g g');
  let adds =
    Array.fold_left
      (fun a nd -> match nd.Graph.op with Primitive.Binary Primitive.Add -> a + 1 | _ -> a)
      0 g'.Graph.nodes
  in
  Alcotest.(check int) "constant add folded away" 0 adds

(* ---------------- Edit machinery ---------------- *)

let test_edit_gc () =
  (* Redirecting away from a node garbage-collects its exclusive chain. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let dead1 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let dead2 = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ dead1 ] in
  Primgraph.B.set_outputs b [ dead2 ];
  let g = Primgraph.B.finish b in
  let e = Transform.Edit.of_graph g in
  let fresh = Transform.Edit.add e (Primitive.Unary Primitive.Relu) [ 0 ] in
  Transform.Edit.redirect e ~old:dead2 ~new_:fresh;
  let g' = Transform.Edit.finish e in
  Alcotest.(check int) "dead chain collected" 2 (Graph.length g');
  Graph.validate g'

let test_edit_shape_guard () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let y = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 0)) [ x ] in
  Primgraph.B.set_outputs b [ y ];
  let g = Primgraph.B.finish b in
  let e = Transform.Edit.of_graph g in
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Edit.redirect: shape mismatch")
    (fun () -> Transform.Edit.redirect e ~old:y ~new_:x)

(* ---------------- optimizer ---------------- *)

let test_optimizer_preserves_and_improves () =
  let g = softmax_matmul_graph () in
  let spec = Gpu.Spec.v100 and precision = Gpu.Precision.FP32 in
  let g' = Transform.Optimizer.optimize ~spec ~precision g in
  Alcotest.(check bool) "semantics preserved" true (equivalent g g');
  let c = Transform.Optimizer.cost_proxy ~spec ~precision g in
  let c' = Transform.Optimizer.cost_proxy ~spec ~precision g' in
  Alcotest.(check bool) "cost not worse" true (c' <= c +. 1e-9)

let test_optimizer_idempotent_on_plain_graph () =
  (* A single relu has nothing to optimize. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let r = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  Primgraph.B.set_outputs b [ r ];
  let g = Primgraph.B.finish b in
  let g' = Transform.Optimizer.optimize ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32 g in
  Alcotest.(check int) "unchanged" (Graph.length g) (Graph.length g')

(* qcheck: rules preserve semantics on random shapes *)
let prop_merge_preserves =
  QCheck2.Test.make ~name:"merge_matmul preserves semantics on random shapes" ~count:40
    QCheck2.Gen.(quad (int_range 1 5) (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (m, k, n1, n2) ->
      let b = Primgraph.B.create () in
      let x = Primgraph.B.input b "x" [| m; k |] in
      let w1 = Primgraph.B.const b (Const.randn [| k; n1 |] 1) in
      let w2 = Primgraph.B.const b (Const.randn [| k; n2 |] 2) in
      let m1 = Primgraph.B.add b Primitive.Matmul [ x; w1 ] in
      let m2 = Primgraph.B.add b Primitive.Matmul [ x; w2 ] in
      Primgraph.B.set_outputs b [ m1; m2 ];
      let g = Primgraph.B.finish b in
      List.for_all (fun g' -> equivalent g g') (Transform.Rules_merge_matmul.apply g))

let prop_reduce_matmul_preserves =
  QCheck2.Test.make ~name:"reduce_to_matmul preserves semantics" ~count:40
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 6))
    (fun (m, n) ->
      let b = Primgraph.B.create () in
      let x = Primgraph.B.input b "x" [| m; n |] in
      let r = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ x ] in
      Primgraph.B.set_outputs b [ r ];
      let g = Primgraph.B.finish b in
      List.for_all (fun g' -> equivalent g g') (Transform.Rules_reduce_matmul.apply g))

let () =
  Alcotest.run "transform"
    [
      ( "rules",
        [ Alcotest.test_case "reduce->matmul" `Quick test_reduce_to_matmul;
          Alcotest.test_case "swap div/matmul" `Quick test_swap_div_matmul;
          Alcotest.test_case "merge matmul" `Quick test_merge_matmul;
          Alcotest.test_case "merge structure" `Quick test_merge_matmul_structure;
          Alcotest.test_case "transpose rules" `Quick test_transpose_rules;
          Alcotest.test_case "transpose cancellation" `Quick test_transpose_cancellation_removes_nodes ] );
      ( "broadcast rules",
        [ Alcotest.test_case "unary through" `Quick test_broadcast_unary;
          Alcotest.test_case "binary through" `Quick test_broadcast_binary;
          Alcotest.test_case "reduce of broadcast" `Quick test_reduce_of_broadcast ] );
      ( "layout cancellation",
        [ Alcotest.test_case "reshape fuse" `Quick test_reshape_fuse;
          Alcotest.test_case "slice of pad" `Quick test_slice_of_pad_cancels;
          Alcotest.test_case "slice of concat" `Quick test_slice_of_concat;
          Alcotest.test_case "concat of slices" `Quick test_concat_of_slices_cancels;
          Alcotest.test_case "wrong order kept" `Quick test_concat_of_slices_wrong_order_kept ] );
      ( "cleanup",
        [ Alcotest.test_case "cse merges" `Quick test_cse_merges_duplicates;
          Alcotest.test_case "cse slice regression" `Quick test_cse_distinguishes_slices;
          Alcotest.test_case "constfold" `Quick test_constfold ] );
      ( "edit",
        [ Alcotest.test_case "gc" `Quick test_edit_gc;
          Alcotest.test_case "shape guard" `Quick test_edit_shape_guard ] );
      ( "optimizer",
        [ Alcotest.test_case "preserves and improves" `Quick test_optimizer_preserves_and_improves;
          Alcotest.test_case "idempotent" `Quick test_optimizer_idempotent_on_plain_graph ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_merge_preserves; prop_reduce_matmul_preserves ] );
    ]
