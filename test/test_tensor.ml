(* Tests for the tensor substrate: shapes, elementwise broadcasting,
   reductions, layout ops, linear algebra. *)

open Tensor

let rng () = Rng.create 12345

let check_close ?(eps = 1e-9) msg a b =
  if not (Nd.equal ~eps a b) then
    Alcotest.failf "%s: %s vs %s (max diff %g)" msg (Nd.to_string a) (Nd.to_string b)
      (Nd.max_abs_diff a b)

(* ---------------- shape ---------------- *)

let test_numel () =
  Alcotest.(check int) "numel" 24 (Shape.numel [| 2; 3; 4 |]);
  Alcotest.(check int) "scalar numel" 1 (Shape.numel [||]);
  Alcotest.(check int) "zero dim" 0 (Shape.numel [| 2; 0; 3 |])

let test_strides () =
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides [| 2; 3; 4 |])

let test_ravel_unravel () =
  let s = [| 2; 3; 4 |] in
  for k = 0 to Shape.numel s - 1 do
    Alcotest.(check int) "roundtrip" k (Shape.ravel s (Shape.unravel s k))
  done

let test_broadcast () =
  Alcotest.(check (array int)) "same" [| 2; 3 |] (Shape.broadcast [| 2; 3 |] [| 2; 3 |]);
  Alcotest.(check (array int)) "stretch" [| 2; 3 |] (Shape.broadcast [| 2; 1 |] [| 1; 3 |]);
  Alcotest.(check (array int)) "rank" [| 4; 2; 3 |] (Shape.broadcast [| 4; 2; 3 |] [| 3 |]);
  Alcotest.check_raises "incompatible" (Invalid_argument "Shape.broadcast: incompatible [2x3] and [2x4]")
    (fun () -> ignore (Shape.broadcast [| 2; 3 |] [| 2; 4 |]))

let test_permute () =
  Alcotest.(check (array int)) "permute" [| 4; 2; 3 |]
    (Shape.permute [| 2; 3; 4 |] [| 2; 0; 1 |]);
  Alcotest.check_raises "bad perm" (Invalid_argument "Shape.permute: not a permutation")
    (fun () -> ignore (Shape.permute [| 2; 3 |] [| 0; 0 |]))

let test_axis_edits () =
  Alcotest.(check (array int)) "drop" [| 2; 4 |] (Shape.drop_axis [| 2; 3; 4 |] 1);
  Alcotest.(check (array int)) "insert" [| 2; 7; 3 |] (Shape.insert_axis [| 2; 3 |] 1 7);
  Alcotest.(check (array int)) "set" [| 2; 9 |] (Shape.set_axis [| 2; 3 |] 1 9)

(* ---------------- elementwise ---------------- *)

let test_broadcast_add () =
  let a = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Nd.of_array [| 3 |] [| 10.; 20.; 30. |] in
  let c = Ops_elementwise.add a b in
  check_close "row broadcast" c (Nd.of_array [| 2; 3 |] [| 11.; 22.; 33.; 14.; 25.; 36. |]);
  let col = Nd.of_array [| 2; 1 |] [| 100.; 200. |] in
  let d = Ops_elementwise.add a col in
  check_close "col broadcast" d (Nd.of_array [| 2; 3 |] [| 101.; 102.; 103.; 204.; 205.; 206. |])

let test_scalar_broadcast () =
  let a = Nd.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let s = Nd.scalar 10.0 in
  check_close "scalar" (Ops_elementwise.mul a s) (Nd.of_array [| 2; 2 |] [| 10.; 20.; 30.; 40. |])

let test_erf () =
  (* Reference values from tables: erf(0)=0, erf(1)≈0.8427, erf(-1)≈-0.8427 *)
  let x = Nd.of_array [| 3 |] [| 0.0; 1.0; -1.0 |] in
  let y = Ops_elementwise.erf x in
  Alcotest.(check bool) "erf values" true
    (Float.abs (Nd.get_linear y 0) < 1e-7
    && Float.abs (Nd.get_linear y 1 -. 0.8427008) < 1e-5
    && Float.abs (Nd.get_linear y 2 +. 0.8427008) < 1e-5)

let test_activations () =
  let x = Nd.of_array [| 4 |] [| -2.0; -0.5; 0.5; 2.0 |] in
  let relu = Ops_elementwise.relu x in
  check_close "relu" relu (Nd.of_array [| 4 |] [| 0.; 0.; 0.5; 2.0 |]);
  let lrelu = Ops_elementwise.leaky_relu ~alpha:0.1 x in
  check_close "leaky" lrelu (Nd.of_array [| 4 |] [| -0.2; -0.05; 0.5; 2.0 |]);
  (* silu(x) = x*sigmoid(x) *)
  let silu = Ops_elementwise.silu x in
  let expected = Ops_elementwise.mul x (Ops_elementwise.sigmoid x) in
  check_close ~eps:1e-12 "silu" silu expected

let test_select () =
  let c = Nd.of_array [| 3 |] [| 1.; 0.; 1. |] in
  let a = Nd.of_array [| 3 |] [| 10.; 20.; 30. |] in
  let b = Nd.of_array [| 3 |] [| 1.; 2.; 3. |] in
  check_close "select" (Ops_elementwise.select c a b) (Nd.of_array [| 3 |] [| 10.; 2.; 30. |]);
  (* A NaN taken from [a] is a value, not a request for [b]. *)
  let v = Ops_elementwise.select (Nd.of_array [| 1 |] [| 1. |]) (Nd.of_array [| 1 |] [| Float.nan |])
      (Nd.of_array [| 1 |] [| 5. |]) in
  Alcotest.(check bool) "select takes a NaN" true (Float.is_nan (Nd.to_scalar v));
  (* The three operands broadcast together. *)
  check_close "select broadcasts"
    (Ops_elementwise.select (Nd.of_array [| 2; 1 |] [| 0.; 1. |]) (Nd.scalar 7.)
       (Nd.of_array [| 3 |] [| 1.; 2.; 3. |]))
    (Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 7.; 7.; 7. |])

(* ---------------- reduce / broadcast ---------------- *)

let test_reduce_sum () =
  let x = Nd.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  check_close "axis 1" (Ops_reduce.sum ~axis:1 x) (Nd.of_array [| 2 |] [| 6.; 15. |]);
  check_close "axis 0" (Ops_reduce.sum ~axis:0 x) (Nd.of_array [| 3 |] [| 5.; 7.; 9. |]);
  check_close "keepdims" (Ops_reduce.sum ~keepdims:true ~axis:1 x)
    (Nd.of_array [| 2; 1 |] [| 6.; 15. |])

let test_reduce_variants () =
  let x = Nd.of_array [| 2; 2 |] [| 1.; 5.; -3.; 2. |] in
  check_close "max" (Ops_reduce.max ~axis:1 x) (Nd.of_array [| 2 |] [| 5.; 2. |]);
  check_close "min" (Ops_reduce.min ~axis:1 x) (Nd.of_array [| 2 |] [| 1.; -3. |]);
  check_close "mean" (Ops_reduce.mean ~axis:1 x) (Nd.of_array [| 2 |] [| 3.; -0.5 |])

let test_broadcast_axis_inverse () =
  (* reduce(broadcast(x)) / size = x for Sum; broadcast then indexing *)
  let x = Nd.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let b = Ops_reduce.broadcast_axis x ~axis:1 ~size:3 in
  Alcotest.(check (array int)) "shape" [| 2; 3; 2 |] (Nd.shape b);
  let r = Ops_reduce.reduce Ops_reduce.Mean ~axis:1 ~keepdims:false b in
  check_close "mean inverse" r x

let test_maxpool () =
  let x = Nd.of_array [| 1; 1; 4; 4 |] (Array.init 16 float_of_int) in
  let y = Ops_reduce.maxpool2d x ~kernel:(2, 2) ~stride:(2, 2) ~padding:(0, 0) in
  check_close "maxpool" y (Nd.of_array [| 1; 1; 2; 2 |] [| 5.; 7.; 13.; 15. |])

let test_avgpool_padding () =
  let x = Nd.ones [| 1; 1; 2; 2 |] in
  let y = Ops_reduce.avgpool2d x ~kernel:(2, 2) ~stride:(1, 1) ~padding:(1, 1) in
  Alcotest.(check (array int)) "shape" [| 1; 1; 3; 3 |] (Nd.shape y);
  (* corner window covers 1 valid cell of 4 -> 0.25 *)
  Alcotest.(check (float 1e-9)) "corner" 0.25 (Nd.get y [| 0; 0; 0; 0 |])

let test_global_avg_pool () =
  let x = Nd.of_array [| 1; 2; 2; 2 |] [| 1.; 2.; 3.; 4.; 10.; 20.; 30.; 40. |] in
  let y = Ops_reduce.global_avg_pool2d x in
  check_close "gap" y (Nd.of_array [| 1; 2; 1; 1 |] [| 2.5; 25. |])

(* ---------------- layout ---------------- *)

let test_transpose_involution () =
  let x = Nd.randn (rng ()) [| 2; 3; 4 |] in
  let t = Ops_layout.transpose x [| 2; 0; 1 |] in
  let back = Ops_layout.transpose t [| 1; 2; 0 |] in
  check_close "involution" back x

let test_pad_slice_inverse () =
  let x = Nd.randn (rng ()) [| 2; 3 |] in
  let p = Ops_layout.pad x ~before:[| 1; 2 |] ~after:[| 0; 1 |] ~value:7.0 in
  Alcotest.(check (array int)) "pad shape" [| 3; 6 |] (Nd.shape p);
  Alcotest.(check (float 0.)) "pad value" 7.0 (Nd.get p [| 0; 0 |]);
  let back = Ops_layout.slice p ~starts:[| 1; 2 |] ~stops:[| 3; 5 |] in
  check_close "slice inverse" back x

let test_concat_split_roundtrip () =
  let a = Nd.randn (rng ()) [| 2; 3 |] in
  let b = Nd.randn (Rng.create 99) [| 2; 5 |] in
  let c = Ops_layout.concat [ a; b ] ~axis:1 in
  match Ops_layout.split c ~axis:1 ~sizes:[ 3; 5 ] with
  | [ a'; b' ] ->
    check_close "split a" a' a;
    check_close "split b" b' b
  | _ -> Alcotest.fail "split arity"

(* ---------------- linear ---------------- *)

let test_matmul_known () =
  let a = Nd.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let b = Nd.of_array [| 2; 2 |] [| 5.; 6.; 7.; 8. |] in
  check_close "matmul" (Ops_linear.matmul a b) (Nd.of_array [| 2; 2 |] [| 19.; 22.; 43.; 50. |])

let test_matmul_identity () =
  let x = Nd.randn (rng ()) [| 4; 4 |] in
  let id = Nd.create [| 4; 4 |] (fun k -> if k / 4 = k mod 4 then 1.0 else 0.0) in
  check_close ~eps:1e-12 "right identity" (Ops_linear.matmul x id) x;
  check_close ~eps:1e-12 "left identity" (Ops_linear.matmul id x) x

let test_batch_matmul_broadcast () =
  let r = rng () in
  let a = Nd.randn r [| 3; 2; 4 |] in
  let b = Nd.randn r [| 4; 5 |] in
  let c = Ops_linear.batch_matmul a b in
  Alcotest.(check (array int)) "shape" [| 3; 2; 5 |] (Nd.shape c);
  (* check batch 1 equals plain matmul of slice *)
  let a1 = Ops_layout.slice a ~starts:[| 1; 0; 0 |] ~stops:[| 2; 2; 4 |] in
  let a1 = Nd.reshape a1 [| 2; 4 |] in
  let expected = Ops_linear.matmul a1 b in
  let c1 = Ops_layout.slice c ~starts:[| 1; 0; 0 |] ~stops:[| 2; 2; 5 |] in
  check_close ~eps:1e-12 "batch slice" (Nd.reshape c1 [| 2; 5 |]) expected

let test_conv_vs_direct () =
  let r = rng () in
  let x = Nd.randn r [| 2; 3; 8; 8 |] in
  let w = Nd.randn r [| 4; 3; 3; 3 |] in
  let a = Ops_linear.conv2d x w ~stride:(2, 2) ~padding:(1, 1) () in
  let b = Ref_tensor_ops.conv2d_direct x w ~stride:(2, 2) ~padding:(1, 1) in
  check_close ~eps:0.0 "library vs textbook loop" a b

let test_conv_bias () =
  let r = rng () in
  let x = Nd.randn r [| 1; 2; 4; 4 |] in
  let w = Nd.randn r [| 3; 2; 1; 1 |] in
  let bias = Nd.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let with_bias = Ops_linear.conv2d x w ~bias ~stride:(1, 1) ~padding:(0, 0) () in
  let without = Ops_linear.conv2d x w ~stride:(1, 1) ~padding:(0, 0) () in
  let diff = Ops_elementwise.sub with_bias without in
  Alcotest.(check (float 1e-12)) "bias channel 2" 3.0 (Nd.get diff [| 0; 2; 1; 1 |])

let test_upsample () =
  let x = Nd.of_array [| 1; 1; 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let y = Ops_linear.upsample_nearest2d x ~scale:2 in
  Alcotest.(check (array int)) "shape" [| 1; 1; 4; 4 |] (Nd.shape y);
  Alcotest.(check (float 0.)) "corner" 1.0 (Nd.get y [| 0; 0; 1; 1 |]);
  Alcotest.(check (float 0.)) "last" 4.0 (Nd.get y [| 0; 0; 3; 3 |])

let test_rng_determinism () =
  let a = Nd.randn (Rng.create 5) [| 10 |] in
  let b = Nd.randn (Rng.create 5) [| 10 |] in
  check_close ~eps:0.0 "deterministic" a b

(* ---------------- qcheck properties ---------------- *)

let small_shape =
  QCheck2.Gen.(map Array.of_list (list_size (int_range 1 3) (int_range 1 5)))

let prop_ravel_roundtrip =
  QCheck2.Test.make ~name:"ravel/unravel roundtrip" ~count:200 small_shape (fun s ->
      let n = Shape.numel s in
      n = 0
      || List.for_all
           (fun k -> Shape.ravel s (Shape.unravel s k) = k)
           (List.init (min n 50) Fun.id))

let prop_broadcast_commutative =
  QCheck2.Test.make ~name:"broadcast is commutative" ~count:200
    QCheck2.Gen.(pair small_shape small_shape)
    (fun (a, b) ->
      match (Shape.broadcast a b, Shape.broadcast b a) with
      | x, y -> Shape.equal x y
      | exception Invalid_argument _ -> (
        match Shape.broadcast b a with
        | _ -> false
        | exception Invalid_argument _ -> true))

let prop_reduce_sum_total =
  QCheck2.Test.make ~name:"sum over all axes equals total" ~count:100 small_shape (fun s ->
      let x = Nd.randn (Rng.create 1) s in
      if Shape.numel s = 0 then true
      else begin
        let total = Array.fold_left ( +. ) 0.0 x.Nd.data in
        let reduced = ref x in
        for _ = 1 to Shape.rank s do
          reduced := Ops_reduce.sum ~axis:0 !reduced
        done;
        Float.abs (Nd.to_scalar !reduced -. total) <= 1e-6 *. (1.0 +. Float.abs total)
      end)

let prop_transpose_preserves_multiset =
  QCheck2.Test.make ~name:"transpose preserves elements" ~count:100 small_shape (fun s ->
      let x = Nd.randn (Rng.create 2) s in
      let perm = Array.init (Shape.rank s) (fun i -> Shape.rank s - 1 - i) in
      let t = Ops_layout.transpose x perm in
      let sort a = List.sort compare (Array.to_list a) in
      sort x.Nd.data = sort t.Nd.data)

let prop_matmul_linear =
  QCheck2.Test.make ~name:"matmul is linear in first operand" ~count:50
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 4) (int_range 1 4))
    (fun (m, k, n) ->
      let r = Rng.create 3 in
      let a1 = Nd.randn r [| m; k |] and a2 = Nd.randn r [| m; k |] in
      let b = Nd.randn r [| k; n |] in
      let lhs = Ops_linear.matmul (Ops_elementwise.add a1 a2) b in
      let rhs = Ops_elementwise.add (Ops_linear.matmul a1 b) (Ops_linear.matmul a2 b) in
      Nd.allclose ~rtol:1e-9 ~atol:1e-9 lhs rhs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ravel_roundtrip; prop_broadcast_commutative; prop_reduce_sum_total;
      prop_transpose_preserves_multiset; prop_matmul_linear ]

let () =
  Alcotest.run "tensor"
    [
      ( "shape",
        [ Alcotest.test_case "numel" `Quick test_numel;
          Alcotest.test_case "strides" `Quick test_strides;
          Alcotest.test_case "ravel/unravel" `Quick test_ravel_unravel;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "permute" `Quick test_permute;
          Alcotest.test_case "axis edits" `Quick test_axis_edits ] );
      ( "elementwise",
        [ Alcotest.test_case "broadcast add" `Quick test_broadcast_add;
          Alcotest.test_case "scalar broadcast" `Quick test_scalar_broadcast;
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "activations" `Quick test_activations;
          Alcotest.test_case "select" `Quick test_select ] );
      ( "reduce",
        [ Alcotest.test_case "sum" `Quick test_reduce_sum;
          Alcotest.test_case "variants" `Quick test_reduce_variants;
          Alcotest.test_case "broadcast inverse" `Quick test_broadcast_axis_inverse;
          Alcotest.test_case "maxpool" `Quick test_maxpool;
          Alcotest.test_case "avgpool padding" `Quick test_avgpool_padding;
          Alcotest.test_case "global avg pool" `Quick test_global_avg_pool ] );
      ( "layout",
        [ Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "pad/slice inverse" `Quick test_pad_slice_inverse;
          Alcotest.test_case "concat/split" `Quick test_concat_split_roundtrip ] );
      ( "linear",
        [ Alcotest.test_case "matmul known" `Quick test_matmul_known;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "batch matmul broadcast" `Quick test_batch_matmul_broadcast;
          Alcotest.test_case "conv vs direct" `Quick test_conv_vs_direct;
          Alcotest.test_case "conv bias" `Quick test_conv_bias;
          Alcotest.test_case "upsample" `Quick test_upsample;
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism ] );
      ("properties", qcheck_cases);
    ]
