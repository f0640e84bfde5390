(* Tests for the graph IR: bitsets, DAG utilities, convexity (Theorem 1
   oracle), shape inference, builders. *)

open Ir

(* ---------------- bitset ---------------- *)

let test_bitset_basic () =
  let s = Bitset.of_list 70 [ 0; 5; 63; 64; 69 ] in
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 5 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 5; 63; 64; 69 ] (Bitset.elements s)

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] and b = Bitset.of_list 10 [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  Alcotest.(check bool) "subset yes" true (Bitset.subset (Bitset.of_list 10 [ 1; 2 ]) a);
  Alcotest.(check bool) "subset no" false (Bitset.subset b a)

let prop_bitset_roundtrip =
  QCheck2.Test.make ~name:"bitset of_list/elements roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) (int_range 0 99))
    (fun l ->
      let sorted = List.sort_uniq compare l in
      Bitset.elements (Bitset.of_list 100 l) = sorted)

(* ---------------- random DAG generator ---------------- *)

(* Random primitive graph: a couple of inputs, then unary/binary nodes with
   random earlier producers. All tensors share one shape so any wiring
   type-checks. *)
let random_primgraph : Primgraph.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n_nodes = int_range 1 12 in
  let* arities = list_size (return n_nodes) (int_range 0 99) in
  return
    (let b = Primgraph.B.create () in
     let i0 = Primgraph.B.input b "a" [| 2; 2 |] in
     let i1 = Primgraph.B.input b "b" [| 2; 2 |] in
     let nodes = ref [ i0; i1 ] in
     List.iteri
       (fun idx r ->
         let pick k = List.nth !nodes (k mod List.length !nodes) in
         let id =
           if r mod 2 = 0 then
             Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ pick (r / 2) ]
           else
             Primgraph.B.add b (Primitive.Binary Primitive.Add)
               [ pick (r / 2); pick (idx + (r / 3)) ]
         in
         nodes := id :: !nodes)
       arities;
     Primgraph.B.set_outputs b [ List.hd !nodes ];
     Primgraph.B.finish b)

(* ---------------- DAG utilities ---------------- *)

let diamond () =
  (* 0:input, 1=f(0), 2=g(1), 3=h(1), 4=k(2,3) *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2 |] in
  let f = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let g = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ f ] in
  let h = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ f ] in
  let k = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ g; h ] in
  Primgraph.B.set_outputs b [ k ];
  (Primgraph.B.finish b, x, f, g, h, k)

let test_topo_order () =
  let g, _, _, _, _, _ = diamond () in
  let order = Graph.topo_order g in
  Alcotest.(check int) "length" (Graph.length g) (List.length order);
  (* every edge goes forward *)
  let pos = Hashtbl.create 8 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) order;
  Array.iter
    (fun nd ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "edge forward" true
            (Hashtbl.find pos p < Hashtbl.find pos nd.Graph.id))
        nd.Graph.inputs)
    g.Graph.nodes

let test_cycle_detected () =
  let nodes =
    [| Graph.{ id = 0; op = Primitive.Unary Primitive.Relu; inputs = [ 1 ]; shape = [| 1 |] };
       Graph.{ id = 1; op = Primitive.Unary Primitive.Relu; inputs = [ 0 ]; shape = [| 1 |] } |]
  in
  let g = Graph.{ nodes; outputs = [ 0 ] } in
  Alcotest.check_raises "cycle" (Invalid_argument "Graph.validate: cycle detected") (fun () ->
      Graph.validate g)

let test_convexity_diamond () =
  let g, x, f, gg, h, k = diamond () in
  let set l = Bitset.of_list (Graph.length g) l in
  Alcotest.(check bool) "path set convex" true (Graph.is_convex g (set [ f; gg ]));
  (* {f, k} is not convex: f ~> g ~> k with g outside *)
  Alcotest.(check bool) "f,k not convex" false (Graph.is_convex g (set [ f; k ]));
  Alcotest.(check bool) "whole graph convex" true (Graph.is_convex g (set [ x; f; gg; h; k ]));
  Alcotest.(check bool) "branches convex" true (Graph.is_convex g (set [ gg; h ]))

let test_boundary_and_inputs () =
  let g, _, f, gg, h, _ = diamond () in
  let set l = Bitset.of_list (Graph.length g) l in
  Alcotest.(check (list int)) "boundary" [ gg; h ] (Graph.boundary_outputs g (set [ gg; h ]));
  Alcotest.(check (list int)) "ext inputs" [ f ] (Graph.external_inputs g (set [ gg; h ]));
  (* f feeds g and h outside the set -> boundary of {f} is {f} *)
  Alcotest.(check (list int)) "singleton boundary" [ f ] (Graph.boundary_outputs g (set [ f ]))

let test_ancestors_descendants () =
  let g, _, f, gg, h, k = diamond () in
  Alcotest.(check (list int)) "descendants of f" [ gg; h; k ]
    (Bitset.elements (Graph.descendants g f))

let test_execution_state () =
  let g, x, f, gg, _, _ = diamond () in
  let set l = Bitset.of_list (Graph.length g) l in
  Alcotest.(check bool) "downward closed" true (Graph.is_execution_state g (set [ x; f ]));
  Alcotest.(check bool) "missing pred" false (Graph.is_execution_state g (set [ f ]));
  Alcotest.(check bool) "with branch" true (Graph.is_execution_state g (set [ x; f; gg ]))

(* Theorem 1 (both directions) on random graphs: a non-source node set is
   convex iff it is a difference of two execution states. *)
let prop_theorem1 =
  QCheck2.Test.make ~name:"Theorem 1: convex iff difference of states" ~count:100
    QCheck2.Gen.(pair random_primgraph (list_size (int_range 0 6) (int_range 0 100)))
    (fun (g, picks) ->
      let n = Graph.length g in
      let exec =
        List.filter (fun i -> not (Primitive.is_source (Graph.op g i))) (List.init n Fun.id)
      in
      if exec = [] || picks = [] then true
      else begin
        let subset =
          List.sort_uniq compare
            (List.map (fun p -> List.nth exec (p mod List.length exec)) picks)
        in
        let s = Bitset.of_list n subset in
        let states, truncated = Korch.Exec_state.enumerate_bounded g ~max_states:100_000 in
        let convex = Graph.is_convex g s in
        let diff = Korch.Exec_state.is_difference_of_states states s in
        (not truncated) && convex = diff
      end)

(* Every execution state from the DFS is downward closed. *)
let prop_states_downward_closed =
  QCheck2.Test.make ~name:"DFS states are downward closed" ~count:100 random_primgraph
    (fun g ->
      let states, truncated = Korch.Exec_state.enumerate_bounded g ~max_states:100_000 in
      (not truncated) && List.for_all (fun s -> Graph.is_execution_state g s) states)

(* ---------------- shape inference ---------------- *)

let test_shape_infer_prims () =
  let check_shape msg expected p inputs =
    Alcotest.(check (array int)) msg expected (Shape_infer.prim p inputs)
  in
  check_shape "binary broadcast" [| 2; 3 |] (Primitive.Binary Primitive.Add)
    [ [| 2; 1 |]; [| 1; 3 |] ];
  check_shape "reduce" [| 2; 4 |] (Primitive.Reduce (Primitive.Sum, 1)) [ [| 2; 3; 4 |] ];
  check_shape "broadcast axis" [| 2; 5; 3 |] (Primitive.Broadcast (1, 5)) [ [| 2; 3 |] ];
  check_shape "matmul" [| 7; 2; 5 |] Primitive.Matmul [ [| 7; 2; 3 |]; [| 3; 5 |] ];
  check_shape "conv" [| 1; 8; 16; 16 |]
    (Primitive.Conv { stride = (2, 2); padding = (1, 1) })
    [ [| 1; 3; 32; 32 |]; [| 8; 3; 3; 3 |] ];
  check_shape "concat" [| 2; 7 |] (Primitive.Concat 1) [ [| 2; 3 |]; [| 2; 4 |] ];
  check_shape "pool" [| 1; 2; 2; 2 |]
    (Primitive.Pool { agg = Primitive.Max; kernel = (2, 2); stride = (2, 2); padding = (0, 0) })
    [ [| 1; 2; 4; 4 |] ]

let test_shape_infer_errors () =
  let fails p inputs =
    match Shape_infer.prim p inputs with
    | _ -> Alcotest.fail "expected failure"
    | exception Invalid_argument _ -> ()
  in
  fails Primitive.Matmul [ [| 2; 3 |]; [| 4; 5 |] ];
  fails (Primitive.Reduce (Primitive.Sum, 5)) [ [| 2; 3 |] ];
  fails (Primitive.Reshape [| 7 |]) [ [| 2; 3 |] ];
  fails (Primitive.Reshape [| -3; -2 |]) [ [| 2; 3 |] ];
  fails (Primitive.Concat 0) [];
  (* A pool whose kernel exceeds the padded input must be rejected, like
     the equivalent conv is — not yield a zero-sized spatial dim. *)
  fails
    (Primitive.Pool { agg = Primitive.Max; kernel = (5, 5); stride = (1, 1); padding = (0, 0) })
    [ [| 1; 2; 4; 4 |] ];
  fails
    (Primitive.Conv { stride = (1, 1); padding = (0, 0) })
    [ [| 1; 3; 4; 4 |]; [| 8; 3; 5; 5 |] ]

let test_op_shape_infer () =
  Alcotest.(check (array int)) "softmax keeps shape" [| 2; 5 |]
    (Shape_infer.op (Optype.Softmax 1) [ [| 2; 5 |] ]);
  Alcotest.(check (array int)) "gap" [| 2; 7; 1; 1 |]
    (Shape_infer.op Optype.GlobalAvgPool [ [| 2; 7; 5; 5 |] ]);
  Alcotest.(check (array int)) "topk" [| 2; 3 |]
    (Shape_infer.op (Optype.TopK 3) [ [| 2; 10 |] ])

(* ---------------- builders / categories ---------------- *)

let test_builder_shape_of () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 4 |] in
  let y = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  Alcotest.(check (array int)) "shape_of" [| 4; 4 |] (Primgraph.B.shape_of b y)

let test_graph_category_count () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 4 |] in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let s = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ e ] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, 4)) [ s ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ e; bc ] in
  Primgraph.B.set_outputs b [ d ];
  let g = Primgraph.B.finish b in
  Alcotest.(check bool) "elementwise, reduce, broadcast, elementwise" true
    (List.map (fun i -> Primitive.category (Graph.op g i)) [ e; s; bc; d ]
    = Primitive.[ Elementwise; Reduction; Broadcasting; Elementwise ]);
  Alcotest.(check (list int)) "non-source" [ e; s; bc; d ] (Primgraph.non_source_nodes g)

let test_primitive_categories () =
  let linear p = Primitive.category p = Primitive.Linear in
  Alcotest.(check bool) "matmul linear" true (linear Primitive.Matmul);
  Alcotest.(check bool) "conv linear" true
    (linear (Primitive.Conv { stride = (1, 1); padding = (0, 0) }));
  Alcotest.(check bool) "relu not linear" false (linear (Primitive.Unary Primitive.Relu));
  Alcotest.(check int) "table1 has 5 categories" 5 (List.length Primitive.table1)

let test_const_materialize () =
  let open Tensor in
  Alcotest.(check bool) "ones" true
    (Nd.equal (Runtime.Prim_interp.materialize (Const.ones [| 2; 2 |])) (Nd.ones [| 2; 2 |]));
  Alcotest.(check bool) "value" true
    (Nd.equal (Runtime.Prim_interp.materialize (Const.value [| 2 |] 3.5)) (Nd.full [| 2 |] 3.5));
  (* Deterministic across materializations *)
  let a = Runtime.Prim_interp.materialize (Const.randn [| 8 |] 7) in
  let b = Runtime.Prim_interp.materialize (Const.randn [| 8 |] 7) in
  Alcotest.(check bool) "randn deterministic" true (Nd.equal a b);
  let c = Runtime.Prim_interp.materialize (Const.randn_scaled [| 8 |] 7 0.5) in
  Alcotest.(check bool) "scaled = 0.5 * unscaled" true
    (Nd.equal c (Tensor.Ops_elementwise.unary (MulConst 0.5) a))

(* ---------------- batch_sym ---------------- *)

let test_batch_sym_fit_dim () =
  (match Batch_sym.fit_dim ~b1:1 ~v1:5 ~b2:3 ~v2:9 with
  | Some d ->
    Alcotest.(check int) "coeff" 2 d.Batch_sym.coeff;
    Alcotest.(check int) "const" 3 d.Batch_sym.const;
    Alcotest.(check int) "eval at 7" 17 (Batch_sym.eval_dim d 7)
  | None -> Alcotest.fail "affine pair must fit");
  (match Batch_sym.fit_dim ~b1:1 ~v1:3 ~b2:3 ~v2:3 with
  | Some d -> Alcotest.(check int) "structural axis has coeff 0" 0 d.Batch_sym.coeff
  | None -> Alcotest.fail "constant pair must fit");
  Alcotest.(check bool) "non-integral slope rejected" true
    (Batch_sym.fit_dim ~b1:1 ~v1:1 ~b2:3 ~v2:2 = None);
  Alcotest.(check bool) "negative constant rejected" true
    (Batch_sym.fit_dim ~b1:1 ~v1:1 ~b2:3 ~v2:9 = None);
  Alcotest.(check_raises) "b1 = b2 rejected"
    (Invalid_argument "Batch_sym.fit_dim: b1 = b2") (fun () ->
      ignore (Batch_sym.fit_dim ~b1:2 ~v1:1 ~b2:2 ~v2:1))

let () =
  Alcotest.run "ir"
    [
      ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          QCheck_alcotest.to_alcotest prop_bitset_roundtrip ] );
      ( "dag",
        [ Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detected;
          Alcotest.test_case "convexity diamond" `Quick test_convexity_diamond;
          Alcotest.test_case "boundary/inputs" `Quick test_boundary_and_inputs;
          Alcotest.test_case "ancestors/descendants" `Quick test_ancestors_descendants;
          Alcotest.test_case "execution state" `Quick test_execution_state ] );
      ( "theorem1",
        [ QCheck_alcotest.to_alcotest prop_theorem1;
          QCheck_alcotest.to_alcotest prop_states_downward_closed ] );
      ( "shape_infer",
        [ Alcotest.test_case "primitives" `Quick test_shape_infer_prims;
          Alcotest.test_case "errors" `Quick test_shape_infer_errors;
          Alcotest.test_case "operators" `Quick test_op_shape_infer ] );
      ( "batch_sym",
        [ Alcotest.test_case "fit_dim" `Quick test_batch_sym_fit_dim ] );
      ( "builders",
        [ Alcotest.test_case "shape_of" `Quick test_builder_shape_of;
          Alcotest.test_case "categories" `Quick test_graph_category_count;
          Alcotest.test_case "primitive categories" `Quick test_primitive_categories;
          Alcotest.test_case "const materialize" `Quick test_const_materialize ] );
    ]
