(** Batch-parametric plan tables.

    A fixed-batch orchestration run prices and solves one concrete graph;
    under serving traffic the batch is exactly the axis that varies. A
    plan table amortizes orchestration across the batch axis: the
    orchestrator runs at a geometric ladder of probe batches
    ({!probe_batches}), consecutive probes whose solved plans share a
    batch-insensitive structural {!signature} collapse into one range,
    and the boundary between adjacent ranges is refined into a cost-model
    crossover batch — "plan A below batch 16, plan B from 16 up" — by
    re-pricing both plans at the in-between batches with
    {!Gpu.Cost_model.substitute_shapes} over {!Ir.Batch_sym} affine shape
    fits.

    Ranges partition [[lo, hi]]. Each range materializes the stitched
    graph and plan at its {e anchor} (its largest probe): serving pads a
    request batch up to a probe ({!execution_probe}), so the anchor plan
    can execute any batch the range's probes cover. Refinement only ever
    {e extends} a range above its anchor (both anchors are known-optimal
    at their own batches because orchestration solved them directly), so
    a batch in the extension pads up into the next range's first probe —
    the table records that the extended range's plan would be cheaper at
    the exact batch, which is evidence, not an executable.

    Correctness never rests on the symbolic layer: every range's plan is
    the verbatim output of a fixed-batch [Orchestrator.run] at the
    anchor, and any fit/repricing failure degrades to the unrefined
    boundary (anchor-bounded ranges). *)

type range = {
  lo : int;  (** first batch this range serves (inclusive) *)
  hi : int;  (** last batch this range serves (inclusive) *)
  probes : int list;  (** probe batches solved into this range, ascending *)
  anchor : int;  (** largest probe; [graph]/[plan] are its verbatim solution *)
  graph : Ir.Primgraph.t;  (** stitched primitive graph at [anchor] *)
  plan : Runtime.Plan.t;  (** orchestrated plan at [anchor] *)
  signature : string;  (** batch-insensitive structural digest (hex) *)
  refined : bool;  (** upper boundary moved by cost-model repricing *)
}

type t = {
  model : string;
  gpu : string;  (** [Gpu.Spec.name] of the target *)
  precision : string;
  lo : int;
  hi : int;
  ranges : range list;  (** partition of [[lo, hi]], ascending *)
  crossovers : int list;  (** first batch of each range after the first *)
}

(* ------------------------------ probes ------------------------------ *)

(** [probe_batches ~lo ~hi] — the geometric (doubling) probe ladder
    [lo, 2lo, 4lo, ...] clipped to [hi], with [hi] always included so the
    table's largest anchor can execute its largest batch. *)
let probe_batches ~(lo : int) ~(hi : int) : int list =
  if lo < 1 then invalid_arg "Plan_table.probe_batches: lo must be >= 1";
  if hi < lo then invalid_arg "Plan_table.probe_batches: hi must be >= lo";
  let rec go b acc = if b >= hi then List.rev (hi :: acc) else go (b * 2) (b :: acc) in
  go lo []

(* ---------------------------- signature ----------------------------- *)

(* A structural tag of one primitive that is identical across batch
   sizes: payload numerals that scale with the batch (Reshape targets,
   Slice/Pad index arrays, Broadcast sizes) and all shapes are excluded;
   everything structural (op kind, axes, permutations, conv geometry)
   stays. Constants keep only their kind — their data is required to be
   batch-invariant by [Ir.Batch_sym] anyway. *)
let prim_tag : Ir.Primitive.t -> string = function
  | Ir.Primitive.Input name -> "input:" ^ name
  | Ir.Primitive.Constant _ -> "const"
  | Ir.Primitive.Unary u -> "unary:" ^ Ir.Primitive.unary_to_string u
  | Ir.Primitive.Binary b -> "binary:" ^ Ir.Primitive.binary_to_string b
  | Ir.Primitive.Reduce (agg, ax) ->
    Printf.sprintf "reduce:%s:%d" (Tensor.Ops_reduce.agg_to_string agg) ax
  | Ir.Primitive.Broadcast (ax, _size) -> Printf.sprintf "broadcast:%d" ax
  | Ir.Primitive.Pool { agg; kernel = kh, kw; stride = sh, sw; padding = ph, pw } ->
    Printf.sprintf "pool:%s:%d,%d:%d,%d:%d,%d" (Tensor.Ops_reduce.agg_to_string agg) kh kw
      sh sw ph pw
  | Ir.Primitive.Transpose perm ->
    "transpose:" ^ String.concat "," (Array.to_list (Array.map string_of_int perm))
  | Ir.Primitive.Reshape _ -> "reshape"
  | Ir.Primitive.Pad { value; _ } -> Printf.sprintf "pad:%h" value
  | Ir.Primitive.Slice _ -> "slice"
  | Ir.Primitive.Concat ax -> Printf.sprintf "concat:%d" ax
  | Ir.Primitive.Matmul -> "matmul"
  | Ir.Primitive.Conv { stride = sh, sw; padding = ph, pw } ->
    Printf.sprintf "conv:%d,%d:%d,%d" sh sw ph pw
  | Ir.Primitive.Upsample s -> Printf.sprintf "upsample:%d" s
  | Ir.Primitive.Opaque name -> "opaque:" ^ name

(** [signature g p] — hex digest of the plan's batch-insensitive
    structure: per-node op tags and edges, graph outputs, and per-kernel
    primitive memberships, published outputs and backends. Two probe
    batches with equal signatures solved to the same plan {e topology}
    (only shapes and prices differ). *)
let signature (g : Ir.Primgraph.t) (p : Runtime.Plan.t) : string =
  let buf = Buffer.create 1024 in
  let ints l = List.iter (fun i -> Buffer.add_string buf (string_of_int i); Buffer.add_char buf ',') l in
  Array.iter
    (fun (nd : Ir.Primitive.t Ir.Graph.node) ->
      Buffer.add_string buf (prim_tag nd.Ir.Graph.op);
      Buffer.add_char buf '<';
      ints nd.Ir.Graph.inputs;
      Buffer.add_char buf ';')
    g.Ir.Graph.nodes;
  Buffer.add_char buf '>';
  ints g.Ir.Graph.outputs;
  List.iter
    (fun (k : Runtime.Plan.kernel) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf k.Runtime.Plan.backend;
      Buffer.add_char buf ':';
      ints k.Runtime.Plan.prims;
      Buffer.add_char buf '/';
      ints k.Runtime.Plan.outputs)
    p.Runtime.Plan.kernels;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --------------------------- repricing ------------------------------ *)

let node_shapes (g : Ir.Primgraph.t) : Tensor.Shape.t array =
  Array.map (fun nd -> nd.Ir.Graph.shape) g.Ir.Graph.nodes

(** Re-price every kernel of [plan] on [g] with the cost model —
    [None] when any kernel's backend is not a cost-model backend (the
    unfused floor's pseudo-backend, or a forward-incompatible string). *)
let reprice_plan ~(spec : Gpu.Spec.t)
    ~(precision : Gpu.Precision.t) (g : Ir.Primgraph.t) (plan : Runtime.Plan.t) :
    float option =
  let n = Ir.Graph.length g in
  let rec go acc = function
    | [] -> Some acc
    | (k : Runtime.Plan.kernel) :: rest -> (
      match Gpu.Cost_model.backend_of_string k.Runtime.Plan.backend with
      | None -> None
      | Some backend ->
        let members = Ir.Bitset.of_list n k.Runtime.Plan.prims in
        let us =
          Gpu.Cost_model.latency_us ~spec ~precision ~backend g
            (Gpu.Stats.kernel_stats g members ~outputs:k.Runtime.Plan.outputs)
        in
        go (acc +. us) rest)
  in
  go 0.0 plan.Runtime.Plan.kernels

type probe_solution = {
  ps_batch : int;
  ps_graph : Ir.Primgraph.t;
  ps_plan : Runtime.Plan.t;
  ps_signature : string;
}

(** Cost of [run]'s plan at batch [b], by substituting the affine shape
    fit evaluated at [b] into the anchor graph. [None] when the run has
    fewer than two probes (nothing to fit), the fit is non-affine, or a
    kernel backend cannot be repriced. *)
let run_cost_at ~(spec : Gpu.Spec.t)
    ~(precision : Gpu.Precision.t) (run : probe_solution list) (b : int) : float option =
  match run with
  | [] | [ _ ] -> None
  | _ ->
    let arr = Array.of_list run in
    let last = arr.(Array.length arr - 1) and prev = arr.(Array.length arr - 2) in
    (match
       Ir.Batch_sym.fit_shapes ~b1:prev.ps_batch (node_shapes prev.ps_graph)
         ~b2:last.ps_batch (node_shapes last.ps_graph)
     with
    | Error _ -> None
    | Ok fit ->
      let g = Gpu.Cost_model.substitute_shapes last.ps_graph (Ir.Batch_sym.shapes_at fit b) in
      reprice_plan ~spec ~precision g last.ps_plan)

(** Crossover batch between adjacent runs [a] (cheaper at its anchor) and
    [b] (cheaper at its first probe): the last batch in
    [[anchor a, first_probe b - 1]] at which [a]'s repriced plan is still
    no slower than [b]'s. Returns [None] (fall back to the unrefined
    anchor boundary) whenever either run cannot be repriced or the
    repricing disagrees with orchestration at the endpoints — the
    symbolic layer refines, it never overrules. *)
let refine_crossover ~(spec : Gpu.Spec.t)
    ~(precision : Gpu.Precision.t) (a : probe_solution list) (b : probe_solution list) :
    int option =
  let a_anchor = (List.nth a (List.length a - 1)).ps_batch in
  let b_first = (List.hd b).ps_batch in
  if b_first - a_anchor <= 1 then None
  else
    let cost_a x = run_cost_at ~spec ~precision a x in
    let cost_b x = run_cost_at ~spec ~precision b x in
    match (cost_a a_anchor, cost_b a_anchor, cost_a b_first, cost_b b_first) with
    | Some caa, Some cba, Some cab, Some cbb when caa <= cba && cbb <= cab ->
      (* Walk up from the anchor; stop at the last batch where plan A is
         still no slower. Monotonicity is not assumed — the walk stops at
         the first reversal. *)
      let rec walk x last_good =
        if x >= b_first then last_good
        else
          match (cost_a x, cost_b x) with
          | Some ca, Some cb when ca <= cb -> walk (x + 1) x
          | _ -> last_good
      in
      Some (walk (a_anchor + 1) a_anchor)
    | _ -> None

(* ------------------------------ build ------------------------------- *)

(** Group consecutive probe solutions by signature. *)
let group_runs (sols : probe_solution list) : probe_solution list list =
  List.fold_left
    (fun acc s ->
      match acc with
      | (cur :: _ as run) :: rest when cur.ps_signature = s.ps_signature ->
        (run @ [ s ]) :: rest
      | _ -> [ s ] :: acc)
    [] sols
  |> List.rev

let build (cfg : Orchestrator.config) ~(model : string)
    ~(build : batch:int -> Ir.Opgraph.t) ~(lo : int) ~(hi : int) : t =
  let probes = probe_batches ~lo ~hi in
  let sols =
    List.map
      (fun b ->
        let r = Orchestrator.run cfg (build ~batch:b) in
        {
          ps_batch = b;
          ps_graph = r.Orchestrator.graph;
          ps_plan = r.Orchestrator.plan;
          ps_signature = signature r.Orchestrator.graph r.Orchestrator.plan;
        })
      probes
  in
  let runs = group_runs sols in
  let spec = cfg.Orchestrator.spec and precision = cfg.Orchestrator.precision in
  (* Upper boundary of each non-final run: refined crossover when the
     symbolic layer can price both sides, the run's anchor otherwise. *)
  let rec boundaries = function
    | [] | [ _ ] -> []
    | a :: (b :: _ as rest) ->
      let bound =
        match refine_crossover ~spec ~precision a b with
        | Some c -> (c, true)
        | None -> ((List.nth a (List.length a - 1)).ps_batch, false)
      in
      bound :: boundaries rest
  in
  let bounds = boundaries runs in
  let mk_range ~r_lo ~r_hi ~refined (run : probe_solution list) : range =
    let anchor_sol = List.nth run (List.length run - 1) in
    {
      lo = r_lo;
      hi = r_hi;
      probes = List.map (fun s -> s.ps_batch) run;
      anchor = anchor_sol.ps_batch;
      graph = anchor_sol.ps_graph;
      plan = anchor_sol.ps_plan;
      signature = anchor_sol.ps_signature;
      refined;
    }
  in
  let rec stitch r_lo runs bounds =
    match (runs, bounds) with
    | [], _ -> []
    | [ run ], [] -> [ mk_range ~r_lo ~r_hi:hi ~refined:false run ]
    | run :: rest, (c, refined) :: bs -> mk_range ~r_lo ~r_hi:c ~refined run :: stitch (c + 1) rest bs
    | _ -> invalid_arg "Plan_table.build: boundary bookkeeping out of step"
  in
  let ranges = stitch lo runs bounds in
  {
    model;
    gpu = spec.Gpu.Spec.name;
    precision = Gpu.Precision.to_string precision;
    lo;
    hi;
    ranges;
    crossovers = List.map (fun (r : range) -> r.lo) (List.tl ranges);
  }

(* ----------------------------- lookup ------------------------------- *)

let in_table (t : t) (b : int) = b >= t.lo && b <= t.hi

(** [plan_for_batch t b] — the range whose [[lo, hi]] contains [b]: the
    plan the cost model recommends for batch [b]. [None] outside
    [[t.lo, t.hi]]. *)
let plan_for_batch (t : t) (b : int) : range option =
  if not (in_table t b) then None else List.find_opt (fun (r : range) -> b >= r.lo && b <= r.hi) t.ranges

(** [execution_probe t b] — the smallest probe batch [>= b] anywhere in
    the table: the batch a server pads [b] up to so a materialized
    anchor plan can execute it. Always exists inside [[t.lo, t.hi]]
    because [t.hi] is a probe. *)
let execution_probe (t : t) (b : int) : int option =
  if not (in_table t b) then None
  else
    List.concat_map (fun (r : range) -> r.probes) t.ranges
    |> List.filter (fun p -> p >= b)
    |> function
    | [] -> None
    | ps -> Some (List.fold_left min max_int ps)

(** [range_for_probe t p] — the range holding probe [p] (every probe lies
    inside its own run's range). *)
let range_for_probe (t : t) (p : int) : range option =
  List.find_opt (fun (r : range) -> List.mem p r.probes) t.ranges

let pp ppf (t : t) =
  Format.fprintf ppf "plan table: %s on %s/%s, batch %d..%d, %d range(s)@." t.model t.gpu
    t.precision t.lo t.hi (List.length t.ranges);
  List.iter
    (fun (r : range) ->
      Format.fprintf ppf "  [%d..%d] anchor=%d kernels=%d %.2f us sig=%s%s@." r.lo r.hi
        r.anchor
        (Runtime.Plan.kernel_count r.plan)
        r.plan.Runtime.Plan.total_latency_us
        (String.sub r.signature 0 8)
        (if r.refined then " (refined)" else ""))
    t.ranges

let summary (t : t) : string = Format.asprintf "%a" pp t
