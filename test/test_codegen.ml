(* The native C-codegen backend, differentially tested against the
   interpreter.

   Every primitive the emitter supports gets a single-kernel graph run on
   both backends and compared bit for bit (the generated C replicates the
   interpreter's evaluation order and scalar semantics exactly; compile
   flags disable FMA contraction). Fused multi-primitive kernels exercise
   the arena temp planner, multi-kernel plans the publish discipline, and
   the zoo models the whole pipeline. Tests that need a C compiler skip
   gracefully when none is present. *)

open Ir
open Tensor

let skip_without_cc () =
  if not (Codegen.Kernel_cache.available ()) then
    Alcotest.skip ()

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let whole_graph_plan (g : Primgraph.t) : Runtime.Plan.t =
  Runtime.Plan.make
    [
      {
        Runtime.Plan.prims = Primgraph.non_source_nodes g;
        outputs = g.Graph.outputs;
        latency_us = 1.0;
        backend = "test";
      };
    ]

let bits_equal (a : Nd.t) (b : Nd.t) : bool =
  Shape.equal (Nd.shape a) (Nd.shape b)
  && begin
       let ok = ref true in
       for k = 0 to Nd.numel a - 1 do
         if
           not
             (Int64.equal
                (Int64.bits_of_float (Nd.get_linear a k))
                (Int64.bits_of_float (Nd.get_linear b k)))
         then ok := false
       done;
       !ok
     end

let first_bit_mismatch (a : Nd.t) (b : Nd.t) : string =
  let msg = ref "" in
  (try
     for k = 0 to Nd.numel a - 1 do
       let x = Nd.get_linear a k and y = Nd.get_linear b k in
       if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then begin
         msg := Printf.sprintf "element %d: interp %h vs native %h" k x y;
         raise Exit
       end
     done
   with Exit -> ());
  !msg

(* Run one graph through both backends on the same inputs; require native
   execution (no silent fallback) and bit-identical outputs. *)
let check_both ?(inputs = []) (g : Primgraph.t) : unit =
  skip_without_cc ();
  let plan = whole_graph_plan g in
  (match Runtime.Executor.validate g plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "test graph produced an invalid plan: %s" m);
  let expected = Runtime.Executor.run ~backend:Runtime.Backend.Interp g plan ~inputs in
  let es = Runtime.Backend.fresh_exec_stats () in
  let got =
    Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:es g plan ~inputs
  in
  (match es.Runtime.Backend.fallbacks with
  | [] -> ()
  | (_, reason) :: _ -> Alcotest.failf "kernel fell back to the interpreter: %s" reason);
  Alcotest.(check int) "native kernels" 1 es.Runtime.Backend.native_kernels;
  Alcotest.(check int) "output arity" (List.length expected) (List.length got);
  List.iter2
    (fun e a ->
      if not (bits_equal e a) then
        Alcotest.failf "backend outputs differ: %s" (first_bit_mismatch e a))
    expected got

let rand_input ?(seed = 7) name shape =
  (name, Nd.create shape (fun _ -> Rng.uniform (Rng.create (seed + 1)) ~lo:(-2.0) ~hi:2.0))

(* Deterministic input tensor with both signs, zeros and a NaN/inf-free
   spread; a second variant salts in specials for the hard cases. *)
let mixed_input name shape =
  let rng = Rng.create 99 in
  (name, Nd.create shape (fun i -> if i mod 7 = 0 then 0.0 else Rng.uniform rng ~lo:(-2.5) ~hi:2.5))

let special_input name shape =
  let rng = Rng.create 43 in
  ( name,
    Nd.create shape (fun i ->
        match i mod 11 with
        | 0 -> 0.0
        | 1 -> -0.0
        | 2 -> infinity
        | 3 -> neg_infinity
        | 4 -> nan
        | _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0) )

let unary_graph (u : Primitive.unary) shape =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" shape in
  let y = Primgraph.B.add b (Primitive.Unary u) [ x ] in
  Primgraph.B.set_outputs b [ y ];
  Primgraph.B.finish b

let binary_graph (op : Primitive.binary) sa sb =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" sa in
  let y = Primgraph.B.input b "y" sb in
  let z = Primgraph.B.add b (Primitive.Binary op) [ x; y ] in
  Primgraph.B.set_outputs b [ z ];
  Primgraph.B.finish b

(* ------------------------------------------------------------------ *)
(* Elementwise coverage                                                *)
(* ------------------------------------------------------------------ *)

let all_unaries : (string * Primitive.unary) list =
  [
    ("exp", Primitive.Exp); ("log", Primitive.Log); ("sqrt", Primitive.Sqrt);
    ("rsqrt", Primitive.Rsqrt); ("neg", Primitive.Neg); ("abs", Primitive.Abs);
    ("square", Primitive.Square); ("recip", Primitive.Reciprocal);
    ("relu", Primitive.Relu); ("leaky_relu", Primitive.LeakyRelu 0.1);
    ("sigmoid", Primitive.Sigmoid); ("silu", Primitive.Silu); ("mish", Primitive.Mish);
    ("tanh", Primitive.Tanh); ("erf", Primitive.Erf); ("gelu", Primitive.Gelu);
    ("add_const", Primitive.AddConst 0.5); ("mul_const", Primitive.MulConst (-1.3));
    ("pow_const_frac", Primitive.PowConst 3.7);
    (* Integer exponent: the constant-folding hazard (pow(x,2) -> x*x)
       the volatile k_pow pointer exists to defeat. *)
    ("pow_const_int", Primitive.PowConst 2.0);
    ("clip", Primitive.Clip (-0.5, 0.5));
  ]

let test_unary (u : Primitive.unary) () =
  let shape = [| 3; 5 |] in
  check_both ~inputs:[ mixed_input "x" shape ] (unary_graph u shape)

let all_binaries : (string * Primitive.binary) list =
  [
    ("add", Primitive.Add); ("sub", Primitive.Sub); ("mul", Primitive.Mul);
    ("div", Primitive.Div); ("max", Primitive.Max); ("min", Primitive.Min);
    ("pow", Primitive.Pow);
  ]

let test_binary (op : Primitive.binary) () =
  let shape = [| 4; 3 |] in
  check_both
    ~inputs:[ mixed_input "x" shape; rand_input ~seed:21 "y" shape ]
    (binary_graph op shape shape)

let test_binary_broadcast (op : Primitive.binary) () =
  check_both
    ~inputs:[ mixed_input "x" [| 2; 3; 4 |]; rand_input ~seed:31 "y" [| 3; 1 |] ]
    (binary_graph op [| 2; 3; 4 |] [| 3; 1 |])

(* Specials through the NaN/zero-sensitive scalar replicas: Float.min/max
   ordering of signed zeros and NaN payload propagation must survive
   compilation. *)
let test_minmax_specials () =
  List.iter
    (fun op ->
      let shape = [| 4; 11 |] in
      skip_without_cc ();
      check_both
        ~inputs:[ special_input "x" shape; special_input "y" shape ]
        (binary_graph op shape shape))
    [ Primitive.Max; Primitive.Min ]

let test_unary_specials () =
  let shape = [| 3; 11 |] in
  List.iter
    (fun u -> check_both ~inputs:[ special_input "x" shape ] (unary_graph u shape))
    [ Primitive.Relu; Primitive.Abs; Primitive.Neg; Primitive.Clip (-1.0, 1.0) ]

(* ------------------------------------------------------------------ *)
(* Reductions, broadcast, pooling                                      *)
(* ------------------------------------------------------------------ *)

let test_reduce () =
  List.iter
    (fun agg ->
      List.iter
        (fun axis ->
          let shape = [| 3; 4; 5 |] in
          let b = Primgraph.B.create () in
          let x = Primgraph.B.input b "x" shape in
          let y = Primgraph.B.add b (Primitive.Reduce (agg, axis)) [ x ] in
          Primgraph.B.set_outputs b [ y ];
          check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b))
        [ 0; 1; 2 ])
    [ Ops_reduce.Sum; Ops_reduce.Mean; Ops_reduce.Max; Ops_reduce.Min; Ops_reduce.Prod ]

let test_broadcast_axis () =
  List.iter
    (fun axis ->
      let shape = [| 3; 4 |] in
      let b = Primgraph.B.create () in
      let x = Primgraph.B.input b "x" shape in
      let y = Primgraph.B.add b (Primitive.Broadcast (axis, 5)) [ x ] in
      Primgraph.B.set_outputs b [ y ];
      check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b))
    [ 0; 1; 2 ]

let test_pool () =
  List.iter
    (fun agg ->
      let shape = [| 2; 3; 6; 6 |] in
      let b = Primgraph.B.create () in
      let x = Primgraph.B.input b "x" shape in
      let y =
        Primgraph.B.add b
          (Primitive.Pool { agg; kernel = (3, 3); stride = (2, 2); padding = (1, 1) })
          [ x ]
      in
      Primgraph.B.set_outputs b [ y ];
      check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b))
    [ Ops_reduce.Max; Ops_reduce.Mean; Ops_reduce.Sum ]

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_transpose () =
  let shape = [| 2; 3; 4 |] in
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" shape in
  let y = Primgraph.B.add b (Primitive.Transpose [| 2; 0; 1 |]) [ x ] in
  Primgraph.B.set_outputs b [ y ];
  check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b)

let test_reshape () =
  let shape = [| 2; 3; 4 |] in
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" shape in
  let y = Primgraph.B.add b (Primitive.Reshape [| 6; 4 |]) [ x ] in
  Primgraph.B.set_outputs b [ y ];
  check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b)

let test_pad_slice () =
  let shape = [| 3; 4 |] in
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" shape in
  let p =
    Primgraph.B.add b
      (Primitive.Pad { before = [| 1; 2 |]; after = [| 0; 1 |]; value = -1.5 })
      [ x ]
  in
  let s =
    Primgraph.B.add b (Primitive.Slice { starts = [| 0; 1 |]; stops = [| 3; 6 |] }) [ p ]
  in
  Primgraph.B.set_outputs b [ s ];
  check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b)

let test_concat () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 3 |] in
  let y = Primgraph.B.input b "y" [| 2; 2 |] in
  let z = Primgraph.B.input b "z" [| 2; 4 |] in
  let c = Primgraph.B.add b (Primitive.Concat 1) [ x; y; z ] in
  Primgraph.B.set_outputs b [ c ];
  check_both
    ~inputs:
      [ mixed_input "x" [| 2; 3 |]; rand_input ~seed:3 "y" [| 2; 2 |];
        rand_input ~seed:4 "z" [| 2; 4 |] ]
    (Primgraph.B.finish b)

(* ------------------------------------------------------------------ *)
(* Linear                                                              *)
(* ------------------------------------------------------------------ *)

let test_matmul () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 5; 7 |] in
  let y = Primgraph.B.input b "y" [| 7; 3 |] in
  let z = Primgraph.B.add b Primitive.Matmul [ x; y ] in
  Primgraph.B.set_outputs b [ z ];
  check_both
    ~inputs:[ mixed_input "x" [| 5; 7 |]; rand_input ~seed:11 "y" [| 7; 3 |] ]
    (Primgraph.B.finish b)

let test_batch_matmul () =
  (* Broadcast batching: [2;1;4;5] x [3;5;6] -> [2;3;4;6]. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 1; 4; 5 |] in
  let y = Primgraph.B.input b "y" [| 3; 5; 6 |] in
  let z = Primgraph.B.add b Primitive.Matmul [ x; y ] in
  Primgraph.B.set_outputs b [ z ];
  check_both
    ~inputs:[ mixed_input "x" [| 2; 1; 4; 5 |]; rand_input ~seed:13 "y" [| 3; 5; 6 |] ]
    (Primgraph.B.finish b)

let test_conv () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 1; 3; 6; 6 |] in
  let w = Primgraph.B.input b "w" [| 4; 3; 3; 3 |] in
  let z = Primgraph.B.add b (Primitive.Conv { stride = (2, 2); padding = (1, 1) }) [ x; w ] in
  Primgraph.B.set_outputs b [ z ];
  check_both
    ~inputs:[ mixed_input "x" [| 1; 3; 6; 6 |]; rand_input ~seed:17 "w" [| 4; 3; 3; 3 |] ]
    (Primgraph.B.finish b)

let test_upsample () =
  let shape = [| 1; 2; 3; 3 |] in
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" shape in
  let y = Primgraph.B.add b (Primitive.Upsample 2) [ x ] in
  Primgraph.B.set_outputs b [ y ];
  check_both ~inputs:[ mixed_input "x" shape ] (Primgraph.B.finish b)

(* ------------------------------------------------------------------ *)
(* Fusion, temps, multi-kernel plans                                   *)
(* ------------------------------------------------------------------ *)

(* A fused chain with an internal diamond: exercises the arena temp
   planner (intermediates with disjoint lifetimes share slots) and
   multi-input emission. *)
let fused_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 6 |] in
  let w = Primgraph.B.input b "w" [| 6; 6 |] in
  let mm = Primgraph.B.add b Primitive.Matmul [ x; w ] in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ mm ] in
  let s = Primgraph.B.add b (Primitive.Reduce (Ops_reduce.Sum, 1)) [ e ] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, 6)) [ s ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ e; bc ] in
  Primgraph.B.set_outputs b [ d ];
  Primgraph.B.finish b

let test_fused_softmax_like () =
  check_both
    ~inputs:[ mixed_input "x" [| 4; 6 |]; rand_input ~seed:23 "w" [| 6; 6 |] ]
    (fused_graph ())

let test_multi_output_kernel () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 3; 4 |] in
  let r = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let s = Primgraph.B.add b (Primitive.Unary Primitive.Sigmoid) [ r ] in
  Primgraph.B.set_outputs b [ r; s ];
  check_both ~inputs:[ mixed_input "x" [| 3; 4 |] ] (Primgraph.B.finish b)

let test_multi_kernel_plan () =
  skip_without_cc ();
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 4 |] in
  let a = Primgraph.B.add b (Primitive.Unary Primitive.Tanh) [ x ] in
  let c = Primgraph.B.add b (Primitive.Unary Primitive.Square) [ a ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ a; c ] in
  Primgraph.B.set_outputs b [ d ];
  let g = Primgraph.B.finish b in
  let plan =
    Runtime.Plan.make
      [
        { Runtime.Plan.prims = [ a ]; outputs = [ a ]; latency_us = 1.0; backend = "t" };
        {
          Runtime.Plan.prims = [ c; d ];
          outputs = [ d ];
          latency_us = 1.0;
          backend = "t";
        };
      ]
  in
  let inputs = [ mixed_input "x" [| 4; 4 |] ] in
  let expected = Runtime.Executor.run ~backend:Runtime.Backend.Interp g plan ~inputs in
  let es = Runtime.Backend.fresh_exec_stats () in
  (* Over a fresh kernel cache, the plan's two kernels compile in one cc
     run per chunk. *)
  let dir = Filename.temp_file "korch-kcache" "" in
  Sys.remove dir;
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)));
  let kc = Codegen.Kernel_cache.create ~dir () in
  let saved = !Codegen.Kernel_cache.default_instance in
  Codegen.Kernel_cache.default_instance := Some kc;
  let got =
    Fun.protect
      ~finally:(fun () -> Codegen.Kernel_cache.default_instance := saved)
      (fun () ->
        Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:es g plan ~inputs)
  in
  let st = Codegen.Kernel_cache.stats kc in
  Alcotest.(check (pair int int)) "one cc run per chunk compiles both kernels"
    (min 2 (Parallel.Domain_pool.default_jobs ()), 2)
    (st.Codegen.Kernel_cache.cc_runs, st.Codegen.Kernel_cache.compiles);
  Alcotest.(check int) "both kernels native" 2 es.Runtime.Backend.native_kernels;
  Alcotest.(check int) "timings recorded" 2
    (List.length es.Runtime.Backend.kernel_times_us);
  List.iter2
    (fun e a ->
      if not (bits_equal e a) then
        Alcotest.failf "multi-kernel outputs differ: %s" (first_bit_mismatch e a))
    expected got

(* Kernels with redundant computation (the same prim in two kernels, §4.2)
   still execute correctly: each kernel recomputes internally. *)
let test_redundant_prims () =
  skip_without_cc ();
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 3; 3 |] in
  let a = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let c = Primgraph.B.add b (Primitive.Unary Primitive.Log) [ a ] in
  let d = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ a ] in
  Primgraph.B.set_outputs b [ c; d ];
  let g = Primgraph.B.finish b in
  let plan =
    Runtime.Plan.make
      [
        { Runtime.Plan.prims = [ a; c ]; outputs = [ c ]; latency_us = 1.0; backend = "t" };
        { Runtime.Plan.prims = [ a; d ]; outputs = [ d ]; latency_us = 1.0; backend = "t" };
      ]
  in
  let inputs = [ mixed_input "x" [| 3; 3 |] ] in
  let expected = Runtime.Executor.run ~backend:Runtime.Backend.Interp g plan ~inputs in
  let got = Runtime.Executor.run ~backend:Runtime.Backend.Native g plan ~inputs in
  List.iter2
    (fun e a -> Alcotest.(check bool) "bits equal" true (bits_equal e a))
    expected got

(* ------------------------------------------------------------------ *)
(* Emitter invariants                                                  *)
(* ------------------------------------------------------------------ *)

let test_signature_deterministic () =
  let g = fused_graph () in
  let plan = whole_graph_plan g in
  let k = List.hd plan.Runtime.Plan.kernels in
  Alcotest.(check string)
    "signature stable" (Codegen.Emit.signature g k) (Codegen.Emit.signature g k);
  Alcotest.(check string) "source stable" (Codegen.Emit.source g k ~symbol:"k")
    (Codegen.Emit.source g k ~symbol:"k")

let test_signature_distinguishes_outputs () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 2 |] in
  let a = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let c = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ a ] in
  Primgraph.B.set_outputs b [ a; c ];
  let g = Primgraph.B.finish b in
  let k outputs =
    { Runtime.Plan.prims = [ a; c ]; outputs; latency_us = 1.0; backend = "t" }
  in
  (* Output order is ABI: outs[0] vs outs[1] assignment must be part of
     the cache key. *)
  Alcotest.(check bool)
    "output order in signature" false
    (String.equal (Codegen.Emit.signature g (k [ a; c ])) (Codegen.Emit.signature g (k [ c; a ])))

let test_signature_constant_precision () =
  (* 0.1 +. 0.2 prints as 0.3 under %g but is a different double: the
     signature must not collide the two kernels. *)
  let mk c =
    let g = unary_graph (Primitive.AddConst c) [| 2 |] in
    let plan = whole_graph_plan g in
    Codegen.Emit.signature g (List.hd plan.Runtime.Plan.kernels)
  in
  Alcotest.(check bool) "distinct constants" false
    (String.equal (mk 0.3) (mk (0.1 +. 0.2)))

let test_unsupported_kernel_rejected () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 2 |] in
  let o = Primgraph.B.add_raw b (Primitive.Opaque "topk") [ x ] [| 2; 2 |] in
  Primgraph.B.set_outputs b [ o ];
  let g = Primgraph.B.finish b in
  let plan = whole_graph_plan g in
  let k = List.hd plan.Runtime.Plan.kernels in
  match Codegen.Emit.signature g k with
  | exception Codegen.Emit.Unsupported_kernel _ -> ()
  | _ -> Alcotest.fail "expected Unsupported_kernel for an opaque member"

(* ------------------------------------------------------------------ *)
(* ULP comparison                                                      *)
(* ------------------------------------------------------------------ *)

let test_ulp_diff () =
  Alcotest.(check int) "equal" 0 (Codegen.Native.ulp_diff 1.5 1.5);
  Alcotest.(check int) "nan nan" 0 (Codegen.Native.ulp_diff nan (0.0 /. 0.0));
  Alcotest.(check int) "adjacent" 1
    (Codegen.Native.ulp_diff 1.0 (Float.succ 1.0));
  Alcotest.(check int) "adjacent down" 1
    (Codegen.Native.ulp_diff 1.0 (Float.pred 1.0));
  Alcotest.(check int) "across zero" 2
    (Codegen.Native.ulp_diff (Float.succ 0.0) (Float.pred 0.0));
  Alcotest.(check int) "signed zeros" 0 (Codegen.Native.ulp_diff 0.0 (-0.0));
  Alcotest.(check bool) "far" true (Codegen.Native.ulp_diff 1.0 2.0 > 1000);
  Alcotest.(check bool) "nan vs number" true
    (Codegen.Native.ulp_diff nan 1.0 = max_int)

(* ------------------------------------------------------------------ *)
(* Zoo models end to end                                               *)
(* ------------------------------------------------------------------ *)

let inputs_of (g : Opgraph.t) seed =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Optype.Input name -> Some (name, Nd.randn (Rng.create seed) nd.Graph.shape)
         | _ -> None)

let test_zoo_model (e : Models.Registry.entry) () =
  skip_without_cc ();
  let g = e.Models.Registry.build_small () in
  let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
  let inputs = inputs_of g 101 in
  let pg = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
  let expected = Runtime.Executor.run ~backend:Runtime.Backend.Interp pg plan ~inputs in
  let es = Runtime.Backend.fresh_exec_stats () in
  let got =
    Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:es pg plan ~inputs
  in
  (* Most kernels must actually compile and run natively... *)
  Alcotest.(check bool)
    (Printf.sprintf "native kernels ran (%d native / %d interp)"
       es.Runtime.Backend.native_kernels es.Runtime.Backend.interp_kernels)
    true
    (es.Runtime.Backend.native_kernels > 0);
  (* ... and the mixed native/fallback execution must match the pure
     interpreter bit for bit. *)
  List.iter2
    (fun e' a ->
      if not (bits_equal e' a) then
        Alcotest.failf "zoo output differs: %s" (first_bit_mismatch e' a))
    expected got

let model_cases =
  List.map
    (fun e -> Alcotest.test_case e.Models.Registry.name `Slow (test_zoo_model e))
    Models.Registry.all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codegen"
    [
      ( "unary",
        List.map (fun (n, u) -> Alcotest.test_case n `Quick (test_unary u)) all_unaries );
      ( "binary",
        List.map (fun (n, op) -> Alcotest.test_case n `Quick (test_binary op)) all_binaries
        @ List.map
            (fun (n, op) ->
              Alcotest.test_case (n ^ " broadcast") `Quick (test_binary_broadcast op))
            all_binaries );
      ( "specials",
        [
          Alcotest.test_case "min/max specials" `Quick test_minmax_specials;
          Alcotest.test_case "unary specials" `Quick test_unary_specials;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "reduce aggs x axes" `Quick test_reduce;
          Alcotest.test_case "broadcast axis" `Quick test_broadcast_axis;
          Alcotest.test_case "pool" `Quick test_pool;
        ] );
      ( "layout",
        [
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "reshape" `Quick test_reshape;
          Alcotest.test_case "pad+slice" `Quick test_pad_slice;
          Alcotest.test_case "concat" `Quick test_concat;
        ] );
      ( "linear",
        [
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "batch matmul broadcast" `Quick test_batch_matmul;
          Alcotest.test_case "conv" `Quick test_conv;
          Alcotest.test_case "upsample" `Quick test_upsample;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "softmax-like chain" `Quick test_fused_softmax_like;
          Alcotest.test_case "multi-output kernel" `Quick test_multi_output_kernel;
          Alcotest.test_case "multi-kernel plan" `Quick test_multi_kernel_plan;
          Alcotest.test_case "redundant prims" `Quick test_redundant_prims;
        ] );
      ( "emitter",
        [
          Alcotest.test_case "deterministic" `Quick test_signature_deterministic;
          Alcotest.test_case "output order" `Quick test_signature_distinguishes_outputs;
          Alcotest.test_case "constant precision" `Quick test_signature_constant_precision;
          Alcotest.test_case "opaque rejected" `Quick test_unsupported_kernel_rejected;
          Alcotest.test_case "ulp distance" `Quick test_ulp_diff;
        ] );
      ("zoo", model_cases);
    ]
