(* Tests for the GPU performance model: datasheet trends (Figure 5),
   roofline behaviour, profiler accept/reject rules (§5.2, §6.5), and the
   profile cache. *)

open Ir

let spec = Gpu.Spec.v100
let precision = Gpu.Precision.FP32
let max_tvm_prims = Gpu.Profiler.max_tvm_prims

(* Small primitive graphs to profile. *)

let ew_chain n elems =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| elems |] in
  let prev = ref x in
  for _ = 1 to n do
    prev := Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ !prev ]
  done;
  Primgraph.B.set_outputs b [ !prev ];
  (Primgraph.B.finish b, !prev)

let softmax_graph elems =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; elems |] in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let s = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ e ] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, elems)) [ s ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ e; bc ] in
  Primgraph.B.set_outputs b [ d ];
  Primgraph.B.finish b

let all_members g =
  Bitset.of_list (Graph.length g) (Primgraph.non_source_nodes g)

let profile_all g =
  let members = all_members g in
  let outputs = g.Graph.outputs in
  Gpu.Profiler.profile ~max_tvm_prims ~spec ~precision g members ~outputs

(* ---------------- Figure 5 trends ---------------- *)

let test_figure5_trend () =
  (* FLOP-to-bandwidth ratio grows monotonically across generations. *)
  let ratios = List.map Gpu.Spec.flops_to_bw_ratio Gpu.Spec.all in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "compute outgrows bandwidth" true (increasing ratios)

let test_spec_lookup () =
  Alcotest.(check bool) "v100 by name" true (Gpu.Spec.by_name "V100" = Some Gpu.Spec.v100);
  Alcotest.(check bool) "unknown" true (Gpu.Spec.by_name "B200" = None)

let test_precision () =
  Alcotest.(check int) "tf32 stores 4 bytes" 4 (Gpu.Precision.bytes_per_element Gpu.Precision.TF32);
  (* A100 TF32 matrix peak is far above its FP32 CUDA-core peak. *)
  Alcotest.(check bool) "a100 tf32 tensor cores" true
    (Gpu.Precision.peak_tflops Gpu.Spec.a100 Gpu.Precision.TF32
    > (2.0 *. Gpu.Precision.peak_tflops Gpu.Spec.a100 Gpu.Precision.FP32))

(* ---------------- roofline behaviour ---------------- *)

let test_fusion_beats_separate_kernels () =
  (* One fused elementwise chain must be cheaper than per-primitive
     kernels: fewer launches, no intermediate traffic. *)
  let g, _ = ew_chain 4 (1 lsl 20) in
  let fused = Option.get (profile_all g) in
  let singles =
    List.map
      (fun id ->
        let members = Bitset.of_list (Graph.length g) [ id ] in
        (Option.get
           (Gpu.Profiler.profile ~max_tvm_prims ~spec ~precision g members ~outputs:[ id ]))
          .Gpu.Profiler.latency_us)
      (Primgraph.non_source_nodes g)
  in
  let sum_singles = List.fold_left ( +. ) 0.0 singles in
  Alcotest.(check bool) "fused cheaper" true (fused.Gpu.Profiler.latency_us < sum_singles)

let test_monolithic_softmax_pays_penalty () =
  (* The monolithic softmax kernel (mixed parallelism categories, §1)
     must cost more than a pure elementwise kernel over the same data. *)
  let n = 1 lsl 18 in
  let sm = softmax_graph n in
  let soft = Option.get (profile_all sm) in
  let ew, _ = ew_chain 2 (4 * n) in
  let ew_k = Option.get (profile_all ew) in
  Alcotest.(check bool) "softmax slower than elementwise" true
    (soft.Gpu.Profiler.latency_us > ew_k.Gpu.Profiler.latency_us)

let test_memory_scales_with_size () =
  let g1, _ = ew_chain 1 (1 lsl 16) in
  let g2, _ = ew_chain 1 (1 lsl 22) in
  let l1 = (Option.get (profile_all g1)).Gpu.Profiler.latency_us in
  let l2 = (Option.get (profile_all g2)).Gpu.Profiler.latency_us in
  Alcotest.(check bool) "bigger is slower" true (l2 > l1)

let test_gemm_aspect_ratio_penalty () =
  (* A thin GEMM runs at a small fraction of peak (Figure 8's 3.5x). *)
  let fat = Gpu.Cost_model.gemm_efficiency (512, 512, 512) in
  let thin = Gpu.Cost_model.gemm_efficiency (4096, 8, 512) in
  Alcotest.(check bool) "thin gemm inefficient" true (thin < fat /. 3.0);
  Alcotest.(check bool) "fat gemm near base" true (fat > 0.8)

let test_launch_overhead_floor () =
  (* A tiny kernel costs at least the launch overhead. *)
  let g, _ = ew_chain 1 8 in
  let l = (Option.get (profile_all g)).Gpu.Profiler.latency_us in
  Alcotest.(check bool) "launch floor" true (l >= spec.Gpu.Spec.launch_overhead_us)

(* ---------------- profiler accept/reject rules ---------------- *)

let matmul_with_companions ~n_ew =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 64; 64 |] in
  let w = Primgraph.B.const b (Const.randn [| 64; 64 |] 3) in
  let mm = Primgraph.B.add b Primitive.Matmul [ x; w ] in
  let prev = ref mm in
  for _ = 1 to n_ew do
    prev := Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ !prev ]
  done;
  Primgraph.B.set_outputs b [ !prev ];
  Primgraph.B.finish b

let test_vendor_accepts_epilogue () =
  let g = matmul_with_companions ~n_ew:2 in
  match profile_all g with
  | Some r -> Alcotest.(check bool) "vendor backend" true (r.Gpu.Profiler.backend = Gpu.Cost_model.Vendor)
  | None -> Alcotest.fail "should accept matmul + small epilogue"

let test_vendor_rejects_big_prologue () =
  let g = matmul_with_companions ~n_ew:Gpu.Profiler.max_vendor_companions in
  (* exactly max companions accepted... *)
  Alcotest.(check bool) "at limit accepted" true (profile_all g <> None);
  let g = matmul_with_companions ~n_ew:(Gpu.Profiler.max_vendor_companions + 1) in
  Alcotest.(check bool) "over limit rejected" true (profile_all g = None)

let two_matmuls () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 8; 8 |] in
  let w1 = Primgraph.B.const b (Const.randn [| 8; 8 |] 1) in
  let w2 = Primgraph.B.const b (Const.randn [| 8; 8 |] 2) in
  let m1 = Primgraph.B.add b Primitive.Matmul [ x; w1 ] in
  let m2 = Primgraph.B.add b Primitive.Matmul [ m1; w2 ] in
  Primgraph.B.set_outputs b [ m2 ];
  Primgraph.B.finish b

let test_reject_two_matmuls () =
  Alcotest.(check bool) "two linear primitives rejected (§6.5)" true
    (profile_all (two_matmuls ()) = None)

let test_reject_vendor_with_reduction () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 8; 8 |] in
  let w = Primgraph.B.const b (Const.randn [| 8; 8 |] 1) in
  let m = Primgraph.B.add b Primitive.Matmul [ x; w ] in
  let r = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ m ] in
  Primgraph.B.set_outputs b [ r ];
  let g = Primgraph.B.finish b in
  Alcotest.(check bool) "matmul + reduce rejected" true (profile_all g = None)

let test_reject_oversized_tvm_kernel () =
  let g, _ = ew_chain (max_tvm_prims + 1) 64 in
  Alcotest.(check bool) "too many primitives rejected" true (profile_all g = None);
  let g, _ = ew_chain max_tvm_prims 64 in
  Alcotest.(check bool) "at limit accepted" true (profile_all g <> None)

let test_opaque_alone_only () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 8; 8 |] in
  let o = Primgraph.B.add_raw b (Primitive.Opaque "topk") [ x ] [| 8; 3 |] in
  Primgraph.B.set_outputs b [ o ];
  let g = Primgraph.B.finish b in
  (match profile_all g with
  | Some r -> Alcotest.(check bool) "opaque backend" true (r.Gpu.Profiler.backend = Gpu.Cost_model.OpaqueExec)
  | None -> Alcotest.fail "single opaque must be accepted");
  (* opaque + companion: rejected *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 8; 8 |] in
  let r = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let o = Primgraph.B.add_raw b (Primitive.Opaque "topk") [ r ] [| 8; 3 |] in
  Primgraph.B.set_outputs b [ o ];
  let g = Primgraph.B.finish b in
  Alcotest.(check bool) "opaque + companion rejected" true (profile_all g = None)

(* ---------------- stats ---------------- *)

let test_kernel_stats () =
  let g = softmax_graph 64 in
  let s = Gpu.Stats.kernel_stats g (all_members g) ~outputs:g.Graph.outputs in
  Alcotest.(check int) "4 primitives" 4 s.Gpu.Stats.n_prims;
  Alcotest.(check int) "one in-kernel reduce pass" 1 s.Gpu.Stats.reduce_passes;
  (* softmax re-traverses the full input after the sum *)
  Alcotest.(check (float 0.1)) "extra read" 256.0 s.Gpu.Stats.extra_read_elems;
  Alcotest.(check bool) "no linear" true (s.Gpu.Stats.linear_prims = []);
  (* read = input, write = output, both 4 x 64 *)
  Alcotest.(check (float 0.1)) "read elems" 256.0 s.Gpu.Stats.read_elems;
  Alcotest.(check (float 0.1)) "write elems" 256.0 s.Gpu.Stats.write_elems

let test_prim_flops () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 16; 32 |] in
  let w = Primgraph.B.const b (Const.randn [| 32; 8 |] 1) in
  let mm = Primgraph.B.add b Primitive.Matmul [ x; w ] in
  Primgraph.B.set_outputs b [ mm ];
  let g = Primgraph.B.finish b in
  Alcotest.(check (float 0.5)) "gemm flops 2mnk" (2.0 *. 16.0 *. 8.0 *. 32.0)
    (Gpu.Stats.prim_flops g mm)

(* ---------------- cache ---------------- *)

let test_cache_counts_tuning_once () =
  let cache = Gpu.Profile_cache.create () in
  let g, out = ew_chain 2 1024 in
  let members = all_members g in
  let p () =
    Gpu.Profile_cache.profile cache ~max_tvm_prims ~spec ~precision g members ~outputs:[ out ]
  in
  let r1 = Option.get (p ()) in
  let t1 = Gpu.Profile_cache.tuning_time_s cache in
  let r2 = Option.get (p ()) in
  Alcotest.(check (float 1e-9)) "same latency" r1.Gpu.Profiler.latency_us r2.Gpu.Profiler.latency_us;
  Alcotest.(check (float 1e-9)) "tuning time unchanged on hit" t1
    (Gpu.Profile_cache.tuning_time_s cache);
  Alcotest.(check int) "one distinct kernel" 1 (Gpu.Profile_cache.distinct_kernels cache);
  Alcotest.(check int) "hit counted" 1 (Gpu.Profile_cache.hits cache);
  Alcotest.(check int) "miss counted" 1 (Gpu.Profile_cache.misses cache)

(* A statically rejected candidate is neither signed, looked up nor
   measured: the cache stays empty and the profiler's fault site (set to
   fail every measurement) is never reached. Its first matmul alone passes
   the static rules, so it does reach the site. *)
let test_static_reject_skips_cache_and_measurement () =
  let g = two_matmuls () in
  let cache = Gpu.Profile_cache.create () in
  let profile members =
    Gpu.Profile_cache.profile cache ~max_tvm_prims ~spec ~precision g
      (Bitset.of_list (Graph.length g) members)
      ~outputs:[ List.hd (List.rev members) ]
  in
  let first, second =
    match Primgraph.non_source_nodes g with [ a; b ] -> (a, b) | _ -> assert false
  in
  Faults.with_policy [ (Faults.Profiler, Faults.Always) ] (fun () ->
      Alcotest.(check bool) "rejected" true (profile [ first; second ] = None);
      Alcotest.(check int) "no measurement" 0 (Faults.calls Faults.Profiler);
      Alcotest.(check int) "no cache entry" 0 (Gpu.Profile_cache.distinct_kernels cache);
      Alcotest.(check int) "no lookup" 0
        (Gpu.Profile_cache.hits cache + Gpu.Profile_cache.misses cache);
      match profile [ first ] with
      | _ -> Alcotest.fail "a lone matmul must reach the measurement"
      | exception Faults.Injected _ ->
        Alcotest.(check int) "one measurement" 1 (Faults.calls Faults.Profiler))

let test_signature_structural () =
  (* Structurally identical subgraphs in different graph regions share a
     signature. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 32 |] in
  let r1 = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let r2 = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ r1 ] in
  let r3 = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ r2 ] in
  Primgraph.B.set_outputs b [ r3 ];
  let g = Primgraph.B.finish b in
  let sig_of id =
    Gpu.Profiler.signature g (Bitset.of_list (Graph.length g) [ id ]) ~outputs:[ id ] ~spec
      ~precision
  in
  Alcotest.(check string) "same structure same signature" (sig_of r2) (sig_of r3)

(* A kernel that reads one tensor twice and one that reads two
   same-shaped tensors differ in traffic, so they must not share a
   profile-cache key; the repeat is spelled as a back-reference. *)
let test_signature_repeated_input () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 32 |] and y = Primgraph.B.input b "y" [| 32 |] in
  let sq = Primgraph.B.add b (Primitive.Binary Primitive.Mul) [ x; x ] in
  let xy = Primgraph.B.add b (Primitive.Binary Primitive.Mul) [ x; y ] in
  Primgraph.B.set_outputs b [ sq; xy ];
  let g = Primgraph.B.finish b in
  let sig_of id =
    Gpu.Profiler.signature g (Bitset.of_list (Graph.length g) [ id ]) ~outputs:[ id ] ~spec
      ~precision
  in
  Alcotest.(check bool) "x*x and x*y differ" true (sig_of sq <> sig_of xy);
  Alcotest.(check bool) "the repeat is a back-reference" true
    (String.ends_with ~suffix:"ext#0!out" (sig_of sq))

(* ---------------- qcheck properties ---------------- *)

(* Latency grows monotonically with tensor size for a fixed kernel shape. *)
let prop_latency_monotone_in_size =
  QCheck2.Test.make ~name:"latency monotone in tensor size" ~count:100
    QCheck2.Gen.(pair (int_range 4 18) (int_range 1 4))
    (fun (log_elems, chain) ->
      let lat n =
        let g, _ = ew_chain chain (1 lsl n) in
        (Option.get (profile_all g)).Gpu.Profiler.latency_us
      in
      lat log_elems <= lat (log_elems + 1) +. 1e-9)

(* Fusing an elementwise chain never loses to running it kernel-per-prim. *)
let prop_fusion_never_loses =
  QCheck2.Test.make ~name:"fused elementwise chain <= per-primitive kernels" ~count:60
    QCheck2.Gen.(pair (int_range 2 8) (int_range 6 20))
    (fun (chain, log_elems) ->
      let g, _ = ew_chain chain (1 lsl log_elems) in
      let fused = (Option.get (profile_all g)).Gpu.Profiler.latency_us in
      let singles =
        List.fold_left
          (fun acc id ->
            let members = Bitset.of_list (Graph.length g) [ id ] in
            acc
            +. (Option.get
                  (Gpu.Profiler.profile ~max_tvm_prims ~spec ~precision g members ~outputs:[ id ]))
                 .Gpu.Profiler.latency_us)
          0.0
          (Primgraph.non_source_nodes g)
      in
      fused <= singles +. 1e-9)

(* GEMM efficiency is monotone in each dimension and never exceeds base. *)
let prop_gemm_efficiency_monotone =
  QCheck2.Test.make ~name:"gemm efficiency monotone and bounded" ~count:200
    QCheck2.Gen.(triple (int_range 1 512) (int_range 1 512) (int_range 1 512))
    (fun (m, n, k) ->
      let e = Gpu.Cost_model.gemm_efficiency (m, n, k) in
      e > 0.0
      && e <= Gpu.Cost_model.gemm_base_eff +. 1e-9
      && Gpu.Cost_model.gemm_efficiency (m + 64, n, k) >= e -. 1e-9
      && Gpu.Cost_model.gemm_efficiency (m, n + 64, k) >= e -. 1e-9
      && Gpu.Cost_model.gemm_efficiency (m, n, k + 64) >= e -. 1e-9)

let gpu_properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_latency_monotone_in_size; prop_fusion_never_loses; prop_gemm_efficiency_monotone ]

let () =
  Alcotest.run "gpu"
    [
      ( "figure5",
        [ Alcotest.test_case "trend" `Quick test_figure5_trend;
          Alcotest.test_case "lookup" `Quick test_spec_lookup;
          Alcotest.test_case "precision" `Quick test_precision ] );
      ( "roofline",
        [ Alcotest.test_case "fusion wins" `Quick test_fusion_beats_separate_kernels;
          Alcotest.test_case "softmax penalty" `Quick test_monolithic_softmax_pays_penalty;
          Alcotest.test_case "size scaling" `Quick test_memory_scales_with_size;
          Alcotest.test_case "gemm aspect ratio" `Quick test_gemm_aspect_ratio_penalty;
          Alcotest.test_case "launch floor" `Quick test_launch_overhead_floor ] );
      ( "profiler rules",
        [ Alcotest.test_case "vendor epilogue" `Quick test_vendor_accepts_epilogue;
          Alcotest.test_case "vendor size limit" `Quick test_vendor_rejects_big_prologue;
          Alcotest.test_case "two matmuls" `Quick test_reject_two_matmuls;
          Alcotest.test_case "matmul + reduce" `Quick test_reject_vendor_with_reduction;
          Alcotest.test_case "tvm size limit" `Quick test_reject_oversized_tvm_kernel;
          Alcotest.test_case "opaque" `Quick test_opaque_alone_only ] );
      ( "stats",
        [ Alcotest.test_case "kernel stats" `Quick test_kernel_stats;
          Alcotest.test_case "prim flops" `Quick test_prim_flops ] );
      ( "cache",
        [ Alcotest.test_case "tuning counted once" `Quick test_cache_counts_tuning_once;
          Alcotest.test_case "static reject skips cache and measurement" `Quick
            test_static_reject_skips_cache_and_measurement;
          Alcotest.test_case "structural signature" `Quick test_signature_structural;
          Alcotest.test_case "repeated external input" `Quick test_signature_repeated_input ] );
      ("properties", gpu_properties);
    ]
