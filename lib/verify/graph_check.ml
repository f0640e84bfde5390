(** Static structural and typing verification of computation graphs.

    Works uniformly over both IR levels through a small per-vocabulary
    [spec] (operator graphs and primitive graphs are the two instances).
    Unlike {!Ir.Graph.validate} — which raises on the first violation and
    only guards builder output — this pass never raises: it sweeps the
    whole graph and returns every finding as a diagnostic, so a broken
    graph produced by a buggy rewrite yields an actionable report rather
    than a stack trace (or, worse, a silent wrong answer at run time).

    Checks performed:
    - node ids are positional and inputs reference earlier nodes only
      (topological id order, the invariant every pass relies on);
    - no dangling edge or output references;
    - no cycles (Kahn's algorithm over the in-range edges);
    - per-node input arity matches the operator/primitive vocabulary;
    - source nodes ([Input]/[Constant]) have no predecessors;
    - declared outputs exist and are not duplicated;
    - every stored shape agrees with a re-run of {!Ir.Shape_infer};
    - dead (unreachable-from-outputs) nodes are reported: computing ones
      as warnings with their element count, unused sources as infos. *)

open Ir
open Tensor

type arity = Exact of int | At_least of int | Between of int * int | Any

(** Vocabulary-specific hooks: how to describe, classify, and re-infer a
    node of a particular IR level. [infer] returns [None] when the shape is
    axiomatic (graph inputs, opaque nodes) rather than derivable. *)
type 'op spec = {
  level : string;  (** "operator" or "primitive", for messages *)
  describe : 'op -> string;
  is_source : 'op -> bool;
  arity : 'op -> arity;
  infer : 'op -> Shape.t list -> Shape.t option;
}

let arity_to_string = function
  | Exact n -> string_of_int n
  | At_least n -> Printf.sprintf ">= %d" n
  | Between (lo, hi) -> Printf.sprintf "%d..%d" lo hi
  | Any -> "any"

let arity_ok a n =
  match a with
  | Exact k -> n = k
  | At_least k -> n >= k
  | Between (lo, hi) -> n >= lo && n <= hi
  | Any -> true

let pass = "graph"

(** [check spec g] — full structural + typing sweep; returns all findings,
    never raises. *)
let check (spec : 'op spec) (g : 'op Graph.t) : Diagnostics.report =
  let n = Graph.length g in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let in_range i = i >= 0 && i < n in
  (* -- positional ids ------------------------------------------------- *)
  Array.iteri
    (fun i nd ->
      if nd.Graph.id <> i then
        emit
          (Diagnostics.error ~pass ~loc:(Node i)
             "node at position %d carries id %d (ids must be positional)" i nd.Graph.id))
    g.Graph.nodes;
  (* -- edges: range and topological id order -------------------------- *)
  Array.iteri
    (fun i nd ->
      List.iter
        (fun p ->
          if not (in_range p) then
            emit
              (Diagnostics.error ~pass ~loc:(Node i)
                 "dangling input reference %d (graph has %d nodes)" p n)
          else if p >= i then
            emit
              (Diagnostics.error ~pass ~loc:(Node i)
                 "input %d is not an earlier node (ids must be topologically ordered)" p))
        nd.Graph.inputs)
    g.Graph.nodes;
  (* -- cycle detection over in-range edges ---------------------------- *)
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iteri
    (fun i nd ->
      List.sort_uniq compare nd.Graph.inputs
      |> List.iter (fun p ->
             if in_range p && p <> i then begin
               indeg.(i) <- indeg.(i) + 1;
               succs.(p) <- i :: succs.(p)
             end))
    g.Graph.nodes;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let visited = Array.make n false in
  let n_visited = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    visited.(v) <- true;
    incr n_visited;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      succs.(v)
  done;
  if !n_visited <> n then begin
    let cyclic =
      Array.to_list (Array.mapi (fun i v -> (i, v)) visited)
      |> List.filter_map (fun (i, v) -> if v then None else Some (string_of_int i))
    in
    emit
      (Diagnostics.error ~pass ~loc:Whole "cycle detected involving nodes {%s}"
         (String.concat "," cyclic))
  end;
  (* -- per-node arity / source / shape checks ------------------------- *)
  Array.iteri
    (fun i nd ->
      let op = nd.Graph.op in
      let n_inputs = List.length nd.Graph.inputs in
      let a = spec.arity op in
      if not (arity_ok a n_inputs) then
        emit
          (Diagnostics.error ~pass ~loc:(Node i) "%s %s expects %s input(s), has %d" spec.level
             (spec.describe op) (arity_to_string a) n_inputs);
      if spec.is_source op && n_inputs > 0 then
        emit
          (Diagnostics.error ~pass ~loc:(Node i) "source %s must have no predecessors, has %d"
             (spec.describe op) n_inputs);
      (* Re-infer the shape from the stored input shapes; a node whose
         inputs are themselves broken is skipped (already reported). *)
      if arity_ok a n_inputs && List.for_all in_range nd.Graph.inputs then begin
        let in_shapes = List.map (fun p -> g.Graph.nodes.(p).Graph.shape) nd.Graph.inputs in
        match spec.infer op in_shapes with
        | None -> ()
        | Some inferred ->
          if not (Shape.equal inferred nd.Graph.shape) then
            emit
              (Diagnostics.error ~pass ~loc:(Node i)
                 "%s %s: stored shape %s but shape inference gives %s" spec.level
                 (spec.describe op) (Shape.to_string nd.Graph.shape) (Shape.to_string inferred))
        | exception Invalid_argument msg ->
          emit
            (Diagnostics.error ~pass ~loc:(Node i) "%s %s: shape inference rejects inputs: %s"
               spec.level (spec.describe op) msg)
      end)
    g.Graph.nodes;
  (* -- outputs -------------------------------------------------------- *)
  if g.Graph.outputs = [] then
    emit (Diagnostics.warning ~pass ~loc:Whole "graph declares no outputs");
  List.iter
    (fun o ->
      if not (in_range o) then
        emit
          (Diagnostics.error ~pass ~loc:(Output o) "dangling output reference %d (graph has %d nodes)"
             o n))
    g.Graph.outputs;
  let dup_outputs =
    List.filter
      (fun o -> List.length (List.filter (( = ) o) g.Graph.outputs) > 1)
      (List.sort_uniq compare g.Graph.outputs)
  in
  List.iter
    (fun o ->
      emit (Diagnostics.warning ~pass ~loc:(Output o) "output %d is declared more than once" o))
    dup_outputs;
  (* -- dead nodes ----------------------------------------------------- *)
  let live = Array.make n false in
  let rec mark i =
    if in_range i && not live.(i) then begin
      live.(i) <- true;
      List.iter mark (List.filter in_range g.Graph.nodes.(i).Graph.inputs)
    end
  in
  List.iter mark g.Graph.outputs;
  Array.iteri
    (fun i nd ->
      if not live.(i) then
        if spec.is_source nd.Graph.op then
          emit
            (Diagnostics.info ~pass ~loc:(Node i) "unused source %s" (spec.describe nd.Graph.op))
        else
          emit
            (Diagnostics.warning ~pass ~loc:(Node i)
               "dead node %s (not reachable from any output; %d elements wasted)"
               (spec.describe nd.Graph.op) (Shape.numel nd.Graph.shape)))
    g.Graph.nodes;
  List.rev !diags

(* ---------------- primitive-graph instance ---------------- *)

let prim_arity : Primitive.t -> arity = function
  | Primitive.Input _ | Constant _ -> Exact 0
  | Unary _ | Reduce _ | Broadcast _ | Pool _ | Transpose _ | Reshape _ | Pad _ | Slice _
  | Upsample _ ->
    Exact 1
  | Binary _ | Matmul | Conv _ -> Exact 2
  | Concat _ -> At_least 1
  | Opaque _ -> Any

let prim_spec : Primitive.t spec =
  {
    level = "primitive";
    describe = Primitive.to_string;
    is_source = Primitive.is_source;
    arity = prim_arity;
    infer =
      (fun p shapes ->
        match p with
        | Primitive.Input _ | Opaque _ -> None
        | p -> Some (Shape_infer.prim p shapes));
  }

let op_arity : Optype.t -> arity = function
  | Optype.Input _ | Constant _ -> Exact 0
  | Relu | LeakyRelu _ | Sigmoid | Silu | Mish | Tanh | Gelu | Erf | Exp | Log | Sqrt | Neg
  | Square | Softmax _ | InstanceNorm _ | ReduceSum _ | ReduceMean _ | ReduceMax _ | MaxPool _
  | AvgPool _ | GlobalAvgPool | Transpose _ | Reshape _ | Pad _ | Slice _ | Upsample _
  | TopK _ ->
    Exact 1
  | Add | Sub | Mul | Div | Pow | MatMul -> Exact 2
  | LayerNorm _ -> Between (1, 3)
  | BatchNormInference _ -> Exact 5
  | Conv { bias; _ } -> Exact (if bias then 3 else 2)
  | Concat _ -> At_least 1

let op_spec : Optype.t spec =
  {
    level = "operator";
    describe = Optype.to_string;
    is_source = (fun op -> match op with Optype.Input _ | Constant _ -> true | _ -> false);
    arity = op_arity;
    infer =
      (fun op shapes ->
        match op with Optype.Input _ -> None | op -> Some (Shape_infer.op op shapes));
  }

(** [check_prim g] — verify a primitive graph. *)
let check_prim (g : Primgraph.t) : Diagnostics.report = check prim_spec g

(** [check_op g] — verify an operator graph. *)
let check_op (g : Opgraph.t) : Diagnostics.report = check op_spec g
