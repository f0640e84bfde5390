(** Reference interpreter for primitive graphs.

    Executes every primitive against the {!Tensor} substrate. Used (a) as
    the semantic oracle for fission/transformation equivalence tests and
    (b) by the {!Executor} to run individual kernels of an orchestration
    plan. Each elementwise, reduce and pool primitive hands its op to the
    tensor kernel as data, which inlines the op into its loop. *)

open Ir
open Tensor

exception Unsupported of string

(* The evaluated folds, keyed by the constant's identity: an entry lives
   as long as its constant. One mutex serializes lookups and evaluations
   across domains; a fold's arguments are evaluated before it is taken. *)
module Folds = Ephemeron.K1.Make (struct
  type t = Const.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let folds = Folds.create 64
let folds_lock = Mutex.create ()
let m_folds_evaluated = Obs.Metrics.counter "const.folds_evaluated"

(** [eval_prim ?dst p args] applies primitive [p] to concrete input
    tensors. Every primitive that computes a fresh tensor — all but
    [Input], [Constant] and [Opaque] — writes it into [dst] when given
    (its length must be the result's element count), which becomes its
    storage; a constant is {!materialize}d as always. Both ways produce
    the same floats; [v.Nd.data == dst] tells which one was taken. *)
let rec eval_prim ?dst (p : Primitive.t) (args : Nd.t list) : Nd.t =
  let one () = match args with [ x ] -> x | _ -> invalid_arg "prim arity" in
  let two () = match args with [ x; y ] -> (x, y) | _ -> invalid_arg "prim arity" in
  match p with
  | Primitive.Input name -> raise (Unsupported ("unbound input " ^ name))
  | Constant c -> materialize c
  | Unary u -> Ops_elementwise.unary ?dst u (one ())
  | Binary b ->
    let x, y = two () in
    Ops_elementwise.binary ?dst b x y
  | Reduce (agg, axis) -> Ops_reduce.reduce ?dst agg ~axis ~keepdims:false (one ())
  | Broadcast (axis, size) -> Ops_reduce.broadcast_axis ?dst (one ()) ~axis ~size
  | Pool { agg; kernel; stride; padding } ->
    Ops_reduce.pool2d ?dst agg (one ()) ~kernel ~stride ~padding
  | Transpose perm -> Ops_layout.transpose ?dst (one ()) perm
  | Reshape s -> Nd.reshape ?dst (one ()) s
  | Pad { before; after; value } -> Ops_layout.pad ?dst (one ()) ~before ~after ~value
  | Slice { starts; stops } -> Ops_layout.slice ?dst (one ()) ~starts ~stops
  | Concat axis -> Ops_layout.concat ?dst args ~axis
  | Matmul ->
    let x, y = two () in
    Ops_linear.batch_matmul ?dst x y
  | Conv { stride; padding } ->
    let x, w = two () in
    Ops_linear.conv2d ?dst x w ~stride ~padding ()
  | Upsample scale -> Ops_linear.upsample_nearest2d ?dst (one ()) ~scale
  | Opaque name -> raise (Unsupported ("opaque primitive " ^ name))

(** [materialize c] — the concrete tensor of [c]: the one evaluator of
    constants. A fold ([Apply]) is evaluated at most once while [c] is
    alive, counted in [const.folds_evaluated]; later calls return the
    same tensor, which nobody may write. Seeded fills are regenerated on
    every call. *)
and materialize (c : Const.t) : Nd.t =
  match c.Const.fill with
  | Const.Zeros -> Nd.zeros c.Const.shape
  | Ones -> Nd.ones c.Const.shape
  | Value v -> Nd.full c.Const.shape v
  | Randn seed -> Nd.randn (Rng.create seed) c.Const.shape
  | Randn_scaled (seed, scale) ->
    let rng = Rng.create seed in
    Nd.create c.Const.shape (fun _ -> scale *. Rng.normal rng)
  | Data nd -> nd
  | Apply (p, args) -> (
    match Mutex.protect folds_lock (fun () -> Folds.find_opt folds c) with
    | Some v -> v
    | None ->
      let vs = List.map materialize args in
      Mutex.protect folds_lock (fun () ->
          match Folds.find_opt folds c with
          | Some v -> v
          | None ->
            let v = eval_prim p vs in
            Folds.replace folds c v;
            Obs.Metrics.incr m_folds_evaluated;
            v))

type env = (int, Nd.t) Hashtbl.t

(** [bind_sources g ~inputs] initializes an environment with named graph
    inputs and materialized constants. *)
let bind_sources (g : Primgraph.t) ~(inputs : (string * Nd.t) list) : env =
  let env = Hashtbl.create 64 in
  Array.iter
    (fun nd ->
      match nd.Graph.op with
      | Primitive.Input name -> begin
        match List.assoc_opt name inputs with
        | Some v ->
          if not (Shape.equal (Nd.shape v) nd.Graph.shape) then
            invalid_arg
              (Printf.sprintf "prim_interp: input %s has shape %s, expected %s" name
                 (Shape.to_string (Nd.shape v))
                 (Shape.to_string nd.Graph.shape));
          Hashtbl.replace env nd.Graph.id v
        | None -> invalid_arg ("prim_interp: missing input " ^ name)
      end
      | Primitive.Constant c -> Hashtbl.replace env nd.Graph.id (materialize c)
      | _ -> ())
    g.Graph.nodes;
  env

(** [run g ~inputs] evaluates the whole graph in topological order,
    asserting every inferred shape, and returns the output tensors in
    declaration order. *)
let run (g : Primgraph.t) ~(inputs : (string * Nd.t) list) : Nd.t list =
  let env = bind_sources g ~inputs in
  List.iter
    (fun id ->
      if not (Hashtbl.mem env id) then begin
        let nd = Graph.node g id in
        let v = eval_prim nd.Graph.op (List.map (Hashtbl.find env) nd.Graph.inputs) in
        if not (Shape.equal (Nd.shape v) nd.Graph.shape) then
          invalid_arg
            (Printf.sprintf "prim_interp: node %d (%s) produced %s, declared %s" id
               (Primitive.to_string nd.Graph.op)
               (Shape.to_string (Nd.shape v))
               (Shape.to_string nd.Graph.shape));
        Hashtbl.replace env id v
      end)
    (Graph.topo_order g);
  List.map (Hashtbl.find env) g.Graph.outputs
