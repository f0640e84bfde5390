(** Shared machinery for the operator-level fusion baselines.

    A baseline produces a partition of the operator graph into fusion
    groups (each group convex). Every group is costed as ONE kernel under
    the same GPU cost model Korch uses: its primitive set is the union of
    the member operators' fission primitives, its outputs are the
    primitives of operators visible outside the group. When the candidate
    shape falls outside the generated-kernel envelope (e.g. a monolithic
    InstanceNorm), the framework is assumed to dispatch a handwritten
    library kernel (generic, unspecialized quality with full
    category-mixing penalties) — it is never rejected, because frameworks
    always have *some* kernel. *)

open Ir

(** Operator classes driving the fusion policies. *)
type op_class =
  | Source
  | Injective  (** elementwise + layout + broadcast-like: cheap to fuse *)
  | Reduction  (** normalization / softmax / pooling / reductions *)
  | ComputeIntensive  (** conv / matmul *)
  | Opaque

let classify : Optype.t -> op_class = function
  | Optype.Input _ | Constant _ -> Source
  | Relu | LeakyRelu _ | Sigmoid | Silu | Mish | Tanh | Gelu | Erf | Exp | Log | Sqrt | Neg
  | Square | Add | Sub | Mul | Div | Pow | Transpose _ | Reshape _ | Pad _ | Slice _
  | Concat _ | Upsample _ ->
    Injective
  | Softmax _ | InstanceNorm _ | LayerNorm _ | BatchNormInference _ | ReduceSum _
  | ReduceMean _ | ReduceMax _ | MaxPool _ | AvgPool _ | GlobalAvgPool ->
    Reduction
  | MatMul | Conv _ -> ComputeIntensive
  | TopK _ -> Opaque

type grouping = int list list  (** partition of non-source operator ids *)

(** Everything a baseline needs, precomputed once per (graph, gpu). *)
type env = {
  opgraph : Opgraph.t;
  primgraph : Primgraph.t;
  mapping : int array;  (** op id -> output primitive id *)
  ranges : (int * int) array;  (** op id -> fission primitive id range *)
  spec : Gpu.Spec.t;
  precision : Gpu.Precision.t;
}

let make_env ~spec ~precision (g : Opgraph.t) : env =
  let g = Fission.Canonicalize.fold_batch_norms g in
  let primgraph, mapping, ranges = Fission.Engine.run_detailed g in
  { opgraph = g; primgraph; mapping; ranges; spec; precision }

(* Primitive members of a group of operators (sources excluded). *)
let group_members (env : env) (ops : int list) : Bitset.t =
  let n = Graph.length env.primgraph in
  List.fold_left
    (fun acc op_id ->
      let start, stop = env.ranges.(op_id) in
      let acc = ref acc in
      for p = start to stop - 1 do
        if not (Primitive.is_source (Graph.op env.primgraph p)) then
          acc := Bitset.add !acc p
      done;
      !acc)
    (Bitset.empty n) ops

(** [cost_group env ops] — latency and kernel description for executing the
    operator group as one kernel. *)
let rec cost_group (env : env) (ops : int list) : Runtime.Plan.kernel =
  let members = group_members env ops in
  let op_succs = Graph.succs env.opgraph in
  let group_set = List.sort_uniq compare ops in
  let outputs =
    List.filter
      (fun op_id ->
        List.mem op_id env.opgraph.Graph.outputs
        || List.exists (fun s -> not (List.mem s group_set)) op_succs.(op_id))
      group_set
    |> List.map (fun op_id -> env.mapping.(op_id))
  in
  let latency_us, backend =
    match
      Gpu.Profiler.profile ~max_tvm_prims:Gpu.Profiler.max_tvm_prims ~spec:env.spec
        ~precision:env.precision env.primgraph members ~outputs
    with
    | Some r -> (r.Gpu.Profiler.latency_us, Gpu.Cost_model.backend_to_string r.Gpu.Profiler.backend)
    | None when List.length ops = 1 ->
      (* Single operator outside the generated-kernel envelope (e.g. a
         monolithic InstanceNorm): the framework dispatches a handwritten
         library kernel — never rejected, but it pays the full
         category-mixing cost. *)
      ( Gpu.Cost_model.latency_us ~spec:env.spec
          ~precision:env.precision ~backend:Gpu.Cost_model.OpaqueExec env.primgraph
          (Gpu.Stats.kernel_stats env.primgraph members ~outputs),
        "framework" )
    | None ->
      (* Unsupported multi-operator fusion pattern: the framework falls
         back to running the member operators one kernel each. *)
      let per_op =
        List.map (fun op_id -> cost_group env [ op_id ]) (List.sort_uniq compare ops)
      in
      (List.fold_left (fun a k -> a +. k.Runtime.Plan.latency_us) 0.0 per_op, "unfused")
  in
  Runtime.Plan.{ prims = Bitset.elements members; outputs; latency_us; backend }

(** [plan_of_grouping env grouping] — cost every group and assemble a plan
    in topological group order. *)
let plan_of_grouping (env : env) (grouping : grouping) : Runtime.Plan.t =
  Runtime.Plan.make (List.map (cost_group env) grouping)

(** [non_source_topo g] — operator ids in topological order, sources
    dropped. *)
let non_source_topo (g : Opgraph.t) : int list =
  List.filter (fun id -> classify (Graph.op g id) <> Source) (Graph.topo_order g)

(** [check_convex env grouping] — sanity check used by tests: every group
    must be convex in the primitive graph. *)
let check_convex (env : env) (grouping : grouping) : bool =
  List.for_all (fun ops -> Graph.is_convex env.primgraph (group_members env ops)) grouping
