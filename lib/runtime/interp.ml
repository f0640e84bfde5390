(** Reference interpreter for operator-level computation graphs.

    Independent of the fission path: operators like Softmax and
    InstanceNorm are computed directly from their mathematical definitions,
    so comparing this interpreter against {!Prim_interp} on the fissioned
    graph genuinely validates the fission rules. *)

open Ir
open Tensor

exception Unsupported of string

let softmax ~axis (x : Nd.t) : Nd.t =
  let e = Ops_elementwise.unary Exp x in
  Ops_elementwise.binary Div e (Ops_reduce.reduce Sum ~axis ~keepdims:true e)

let normalize_axes ~axes ~eps (x : Nd.t) : Nd.t =
  let mean_all t =
    List.fold_left (fun acc axis -> Ops_reduce.reduce Mean ~axis ~keepdims:true acc) t axes
  in
  let centered = Ops_elementwise.binary Sub x (mean_all x) in
  let var = mean_all (Ops_elementwise.unary Square centered) in
  Ops_elementwise.(binary Div centered (unary Sqrt (unary (AddConst eps) var)))

(** [eval_op op args] applies operator [op] to concrete input tensors. *)
let eval_op (op : Optype.t) (args : Nd.t list) : Nd.t =
  let one () = match args with [ x ] -> x | _ -> invalid_arg "op arity" in
  let two () = match args with [ x; y ] -> (x, y) | _ -> invalid_arg "op arity" in
  let unary u = Ops_elementwise.unary u (one ()) in
  let binary b = let x, y = two () in Ops_elementwise.binary b x y in
  let reduce agg ~axis ~keepdims = Ops_reduce.reduce agg ~axis ~keepdims (one ()) in
  match op with
  | Optype.Input name -> raise (Unsupported ("unbound input " ^ name))
  | Constant c -> Prim_interp.materialize c
  | Relu -> unary Relu
  | LeakyRelu a -> unary (LeakyRelu a)
  | Sigmoid -> unary Sigmoid
  | Silu -> unary Silu
  | Mish -> unary Mish
  | Tanh -> unary Tanh
  | Gelu -> unary Gelu
  | Erf -> unary Erf
  | Exp -> unary Exp
  | Log -> unary Log
  | Sqrt -> unary Sqrt
  | Neg -> unary Neg
  | Square -> unary Square
  | Add -> binary Add
  | Sub -> binary Sub
  | Mul -> binary Mul
  | Div -> binary Div
  | Pow -> binary Pow
  | Softmax axis -> softmax ~axis (one ())
  | InstanceNorm eps -> normalize_axes ~axes:[ 2; 3 ] ~eps (one ())
  | LayerNorm eps -> begin
    let open Ops_elementwise in
    match args with
    | [ x ] -> normalize_axes ~axes:[ Shape.rank (Nd.shape x) - 1 ] ~eps x
    | [ x; scale ] ->
      let n = normalize_axes ~axes:[ Shape.rank (Nd.shape x) - 1 ] ~eps x in
      binary Mul n scale
    | [ x; scale; bias ] ->
      let n = normalize_axes ~axes:[ Shape.rank (Nd.shape x) - 1 ] ~eps x in
      binary Add (binary Mul n scale) bias
    | _ -> invalid_arg "layer norm arity"
  end
  | BatchNormInference eps -> begin
    let open Ops_elementwise in
    match args with
    | [ x; scale; bias; mean; var ] ->
      let c = (Nd.shape x).(1) in
      let chan t = Nd.reshape t [| 1; c; 1; 1 |] in
      let centered = binary Sub x (chan mean) in
      let std = unary Sqrt (unary (AddConst eps) (chan var)) in
      binary Add (binary Mul (binary Div centered std) (chan scale)) (chan bias)
    | _ -> invalid_arg "batch norm arity"
  end
  | ReduceSum { axis; keepdims } -> reduce Sum ~axis ~keepdims
  | ReduceMean { axis; keepdims } -> reduce Mean ~axis ~keepdims
  | ReduceMax { axis; keepdims } -> reduce Max ~axis ~keepdims
  | MaxPool { kernel; stride; padding } -> Ops_reduce.pool2d Max (one ()) ~kernel ~stride ~padding
  | AvgPool { kernel; stride; padding } -> Ops_reduce.pool2d Mean (one ()) ~kernel ~stride ~padding
  | GlobalAvgPool -> Ops_reduce.global_avg_pool2d (one ())
  | Transpose perm -> Ops_layout.transpose (one ()) perm
  | Reshape s -> Nd.reshape (one ()) s
  | Pad { before; after; value } -> Ops_layout.pad (one ()) ~before ~after ~value
  | Slice { starts; stops } -> Ops_layout.slice (one ()) ~starts ~stops
  | Concat axis -> Ops_layout.concat args ~axis
  | MatMul -> let x, y = two () in Ops_linear.batch_matmul x y
  | Conv { stride; padding; bias } -> begin
    match (bias, args) with
    | false, [ x; w ] -> Ops_linear.conv2d x w ~stride ~padding ()
    | true, [ x; w; b ] -> Ops_linear.conv2d x w ~bias:b ~stride ~padding ()
    | _ -> invalid_arg "conv arity"
  end
  | Upsample scale -> Ops_linear.upsample_nearest2d (one ()) ~scale
  | TopK _ -> raise (Unsupported "TopK")

(** [run g ~inputs] evaluates the operator graph, returning outputs in
    declaration order. *)
let run (g : Opgraph.t) ~(inputs : (string * Nd.t) list) : Nd.t list =
  let env : (int, Nd.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let nd = Graph.node g id in
      let v =
        match nd.Graph.op with
        | Optype.Input name -> begin
          match List.assoc_opt name inputs with
          | Some v -> v
          | None -> invalid_arg ("interp: missing input " ^ name)
        end
        | op -> eval_op op (List.map (Hashtbl.find env) nd.Graph.inputs)
      in
      if not (Shape.equal (Nd.shape v) nd.Graph.shape) then
        invalid_arg
          (Printf.sprintf "interp: node %d (%s) produced %s, declared %s" id
             (Optype.to_string nd.Graph.op)
             (Shape.to_string (Nd.shape v))
             (Shape.to_string nd.Graph.shape));
      Hashtbl.replace env id v)
    (Graph.topo_order g);
  List.map (Hashtbl.find env) g.Graph.outputs
