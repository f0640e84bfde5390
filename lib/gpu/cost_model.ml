(** Analytical GPU kernel cost model (substitute for on-device profiling).

    Roofline with kernel-launch overhead:
    [latency = max (memory_time, compute_time) + launch_overhead].

    Memory time models three effects the paper's case studies hinge on:
    - fused kernels touch each distinct external input once and each
      published output once — intermediates live in registers/shared
      memory, so fusion removes traffic;
    - every reduction whose result is consumed inside the same kernel at
      pre-reduction resolution forces an extra pass over the data (the
      softmax problem, §1);
    - mixing primitive categories with different parallelism degrees in a
      generated (TVM-style) kernel lowers achieved bandwidth, and very
      large fused kernels degrade codegen quality (Figure 13).

    Compute time models GEMM/conv tile efficiency, including the
    extreme-aspect-ratio penalty that makes layout-folded MatMuls several
    times faster (Figure 8, ~3.5x). *)

(* The model's coefficients. None is tuned per target: the GPU datasheet
   ({!Spec}) carries everything that differs between targets. *)

let tvm_base_eff = 0.82 (* achieved/peak bandwidth of a clean generated kernel *)
let vendor_base_eff = 0.90 (* bandwidth efficiency of vendor library kernels *)
let class_mix_penalty = 0.28 (* per extra primitive category in one kernel *)

(* Generated-code quality decays beyond [codegen_free_prims] primitives,
   superlinearly: auto-schedulers degrade gracefully on mid-size fusions
   but fall off a cliff on very large ones (the Figure 13 effect). *)
let codegen_decay = 0.05
let codegen_decay_exp = 1.7
let codegen_free_prims = 5

let gemm_base_eff = 0.88 (* vendor GEMM efficiency at friendly shapes *)
let gemm_tile = 64.0 (* dimension below which GEMM tiles are underfilled *)
let ew_compute_eff = 0.70 (* CUDA-core efficiency of elementwise math *)
let opaque_eff = 0.50

type backend_kind = Tvm | Vendor | OpaqueExec

let backend_to_string = function
  | Tvm -> "tvm"
  | Vendor -> "vendor"
  | OpaqueExec -> "opaque"

let backend_of_string = function
  | "tvm" -> Some Tvm
  | "vendor" -> Some Vendor
  | "opaque" -> Some OpaqueExec
  | _ -> None

(** [gemm_efficiency (m, n, k)] — fraction of peak matrix throughput a
    vendor GEMM achieves. Thin matrices underfill tiles: efficiency decays
    linearly below [gemm_tile] in any dimension. *)
let gemm_efficiency ((m, n, k) : int * int * int) : float =
  let dim_eff d = Float.min 1.0 (float_of_int d /. gemm_tile) in
  gemm_base_eff *. dim_eff m *. dim_eff n *. Float.min 1.0 (dim_eff k *. 2.0)

(** [memory_efficiency ~spec ~backend stats] — achieved fraction of
    peak bandwidth for this kernel. Generated (TVM) kernels additionally
    scale with the architecture's [tvm_maturity] (§6.2: TVM lags TensorRT
    on A100). *)
let memory_efficiency ~(spec : Spec.t) ~(backend : backend_kind)
    (s : Stats.kernel_stats) : float =
  let base =
    match backend with
    | Tvm -> tvm_base_eff *. spec.Spec.tvm_maturity
    | Vendor -> vendor_base_eff
    | OpaqueExec -> opaque_eff
  in
  (* Parallelism classes, not categories: elementwise, broadcast and
     layout primitives are all injective maps with identical parallelism,
     so fusing them is free; only mixing injective work with reductions or
     linear transformations costs generated-kernel quality (§1/§3). *)
  let parallelism_class = function
    | Ir.Primitive.Elementwise | Broadcasting | Layout -> Some `Injective
    | Reduction -> Some `Reduce
    | Linear -> Some `Linear
    | Unknown -> Some `Opaque
    | Source -> None
  in
  let exec_classes =
    List.sort_uniq compare (List.filter_map parallelism_class s.Stats.classes)
  in
  let mix = Float.max 0.0 (float_of_int (List.length exec_classes - 1)) in
  let size_decay =
    codegen_decay
    *. (float_of_int (Stdlib.max 0 (s.Stats.n_prims - codegen_free_prims))
       ** codegen_decay_exp)
  in
  base /. (1.0 +. (class_mix_penalty *. mix) +. size_decay)

(** [latency_us ~spec ~precision ~backend g s] — modelled latency in
    microseconds of the kernel of [g] whose {!Stats.kernel_stats} are [s]. *)
let latency_us ~(spec : Spec.t) ~(precision : Precision.t)
    ~(backend : backend_kind) (g : Ir.Primgraph.t) (s : Stats.kernel_stats) : float =
  let bytes_per = float_of_int (Precision.bytes_per_element precision) in
  let traffic_bytes =
    (s.Stats.read_elems +. s.Stats.extra_read_elems +. s.Stats.write_elems) *. bytes_per
  in
  let mem_eff = memory_efficiency ~spec ~backend s in
  let mem_time_s = traffic_bytes /. (spec.Spec.mem_bw_gb_s *. 1e9 *. mem_eff) in
  let compute_time_s =
    match s.Stats.linear_prims with
    | [] ->
      let peak = Precision.vector_tflops spec precision *. 1e12 in
      s.Stats.flops /. (peak *. ew_compute_eff)
    | lins ->
      let peak = Precision.peak_tflops spec precision *. 1e12 in
      let eff =
        List.fold_left
          (fun acc id ->
            match Stats.linear_dims g id with
            | Some dims -> Float.min acc (gemm_efficiency dims)
            | None -> acc)
          1.0 lins
      in
      s.Stats.flops /. (peak *. Float.max 0.01 eff)
  in
  (Float.max mem_time_s compute_time_s *. 1e6) +. spec.Spec.launch_overhead_us

(** [plan_latency_us latencies] — Eq. (2): execution strategies cost the
    sum of their kernels' latencies. *)
let plan_latency_us (latencies : float list) = List.fold_left ( +. ) 0.0 latencies

(** [substitute_shapes g shapes] — the same graph with every node's shape
    replaced. The cost model reads a graph only through shapes and op
    kinds ({!Stats}), so substituting the shapes a batch-parametric model
    takes at another batch ({!Ir.Batch_sym.shapes_at}) re-prices its
    kernels at that batch without re-running fission or stitching. Stale
    payload numerals (Reshape targets, Broadcast sizes) are harmless
    here: no {!Stats} quantity reads them. *)
let substitute_shapes (g : Ir.Primgraph.t) (shapes : Tensor.Shape.t array) : Ir.Primgraph.t =
  if Array.length shapes <> Array.length g.Ir.Graph.nodes then
    invalid_arg "Cost_model.substitute_shapes: shape count does not match the graph";
  {
    g with
    Ir.Graph.nodes =
      Array.mapi (fun i nd -> { nd with Ir.Graph.shape = shapes.(i) }) g.Ir.Graph.nodes;
  }

(** Affine-in-batch latency summaries.

    Traffic and FLOPs of a batch-parametric kernel are affine in the
    batch, so its roofline latency is affine on each side of the
    efficiency knees ([gemm_tile] underfill, memory- vs compute-bound
    switchover). Fitting one affine form across probe evaluations gives a
    cheap interpolator; [max_residual_us] reports how badly the knees
    bend it — callers that need exactness evaluate the cost model at the
    exact batch instead and use the summary as evidence/printing. *)
module Batch_affine = struct
  type t = { intercept_us : float; slope_us_per_batch : float; max_residual_us : float }

  (** Least-squares affine fit over [(batch, latency_us)] probe
      evaluations; [None] on fewer than two distinct batches. *)
  let fit (points : (int * float) list) : t option =
    match points with
    | [] | [ _ ] -> None
    | _ ->
      let n = float_of_int (List.length points) in
      let sx = List.fold_left (fun a (b, _) -> a +. float_of_int b) 0.0 points in
      let sy = List.fold_left (fun a (_, l) -> a +. l) 0.0 points in
      let sxx = List.fold_left (fun a (b, _) -> a +. (float_of_int b ** 2.0)) 0.0 points in
      let sxy = List.fold_left (fun a (b, l) -> a +. (float_of_int b *. l)) 0.0 points in
      let det = (n *. sxx) -. (sx *. sx) in
      if Float.abs det < 1e-9 then None
      else
        let slope = ((n *. sxy) -. (sx *. sy)) /. det in
        let intercept = (sy -. (slope *. sx)) /. n in
        let residual =
          List.fold_left
            (fun acc (b, l) ->
              Float.max acc (Float.abs (l -. (intercept +. (slope *. float_of_int b)))))
            0.0 points
        in
        Some { intercept_us = intercept; slope_us_per_batch = slope; max_residual_us = residual }

  let eval (t : t) (batch : int) : float =
    t.intercept_us +. (t.slope_us_per_batch *. float_of_int batch)

  let to_string (t : t) =
    Printf.sprintf "%.3f + %.3f*b us (max residual %.3f us)" t.intercept_us
      t.slope_us_per_batch t.max_residual_us
end
