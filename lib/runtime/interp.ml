(** Reference interpreter for operator-level computation graphs.

    Independent of the fission path: operators like Softmax and
    InstanceNorm are computed directly from their mathematical definitions,
    so comparing this interpreter against {!Prim_interp} on the fissioned
    graph genuinely validates the fission rules. *)

open Ir
open Tensor

exception Unsupported of string

let softmax ~axis (x : Nd.t) : Nd.t =
  let e = Ops_elementwise.exp x in
  let s = Ops_reduce.sum ~keepdims:true ~axis e in
  Ops_elementwise.div e s

let normalize_axes ~axes ~eps (x : Nd.t) : Nd.t =
  let mean_all t =
    List.fold_left (fun acc ax -> Ops_reduce.mean ~keepdims:true ~axis:ax acc) t axes
  in
  let mu = mean_all x in
  let centered = Ops_elementwise.sub x mu in
  let var = mean_all (Ops_elementwise.square centered) in
  let std = Ops_elementwise.sqrt (Ops_elementwise.add_scalar eps var) in
  Ops_elementwise.div centered std

(** [eval_op op args] applies operator [op] to concrete input tensors. *)
let eval_op (op : Optype.t) (args : Nd.t list) : Nd.t =
  let one () = match args with [ x ] -> x | _ -> invalid_arg "op arity" in
  let two () = match args with [ x; y ] -> (x, y) | _ -> invalid_arg "op arity" in
  match op with
  | Optype.Input name -> raise (Unsupported ("unbound input " ^ name))
  | Constant c -> Prim_interp.materialize c
  | Relu -> Ops_elementwise.relu (one ())
  | LeakyRelu a -> Ops_elementwise.leaky_relu ~alpha:a (one ())
  | Sigmoid -> Ops_elementwise.sigmoid (one ())
  | Silu -> Ops_elementwise.silu (one ())
  | Mish -> Ops_elementwise.mish (one ())
  | Tanh -> Ops_elementwise.tanh (one ())
  | Gelu -> Ops_elementwise.gelu (one ())
  | Erf -> Ops_elementwise.erf (one ())
  | Exp -> Ops_elementwise.exp (one ())
  | Log -> Ops_elementwise.log (one ())
  | Sqrt -> Ops_elementwise.sqrt (one ())
  | Neg -> Ops_elementwise.neg (one ())
  | Square -> Ops_elementwise.square (one ())
  | Add -> let x, y = two () in Ops_elementwise.add x y
  | Sub -> let x, y = two () in Ops_elementwise.sub x y
  | Mul -> let x, y = two () in Ops_elementwise.mul x y
  | Div -> let x, y = two () in Ops_elementwise.div x y
  | Pow -> let x, y = two () in Ops_elementwise.pow x y
  | Softmax axis -> softmax ~axis (one ())
  | InstanceNorm eps -> normalize_axes ~axes:[ 2; 3 ] ~eps (one ())
  | LayerNorm eps -> begin
    match args with
    | [ x ] -> normalize_axes ~axes:[ Shape.rank (Nd.shape x) - 1 ] ~eps x
    | [ x; scale ] ->
      let n = normalize_axes ~axes:[ Shape.rank (Nd.shape x) - 1 ] ~eps x in
      Ops_elementwise.mul n scale
    | [ x; scale; bias ] ->
      let n = normalize_axes ~axes:[ Shape.rank (Nd.shape x) - 1 ] ~eps x in
      Ops_elementwise.add (Ops_elementwise.mul n scale) bias
    | _ -> invalid_arg "layer norm arity"
  end
  | BatchNormInference eps -> begin
    match args with
    | [ x; scale; bias; mean; var ] ->
      let c = (Nd.shape x).(1) in
      let chan t = Nd.reshape t [| 1; c; 1; 1 |] in
      let centered = Ops_elementwise.sub x (chan mean) in
      let std = Ops_elementwise.sqrt (Ops_elementwise.add_scalar eps (chan var)) in
      Ops_elementwise.add
        (Ops_elementwise.mul (Ops_elementwise.div centered std) (chan scale))
        (chan bias)
    | _ -> invalid_arg "batch norm arity"
  end
  | ReduceSum { axis; keepdims } -> Ops_reduce.sum ~keepdims ~axis (one ())
  | ReduceMean { axis; keepdims } -> Ops_reduce.mean ~keepdims ~axis (one ())
  | ReduceMax { axis; keepdims } -> Ops_reduce.max ~keepdims ~axis (one ())
  | MaxPool { kernel; stride; padding } -> Ops_reduce.maxpool2d (one ()) ~kernel ~stride ~padding
  | AvgPool { kernel; stride; padding } -> Ops_reduce.avgpool2d (one ()) ~kernel ~stride ~padding
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
