(** Constant folding: primitives whose inputs are all constants are
    replaced by [Constant] nodes.

    Folding is size-guarded — materializing a huge broadcast of a constant
    would trade cheap recomputation for memory traffic, so only results up
    to [max_elems] are folded.

    Whether a node folds, and to what shape, is decided by shape alone.
    Each fold becomes a [Const.Folded] entry of a {!table}, hash-consed by
    primitive and argument constants, so a search that ranks graphs by
    shape never computes a payload. {!resolve} evaluates the entries a
    graph still holds, each once per table: folds are materialized once,
    for the graph the search returns. *)

open Ir
open Tensor

let max_elems = 1 lsl 16

(* Folds given a payload for a graph or a CSE comparison, each once per
   table; the arguments of a chained fold are evaluated on the way but
   not counted. *)
let m_materialized = Obs.Metrics.counter "constfold.materialized"

type table = {
  ids : (Primitive.t * Const.t list, int) Hashtbl.t;
  folds : (int, Primitive.t * Const.t list) Hashtbl.t;
  values : (int, Nd.t) Hashtbl.t;
  counted : (int, unit) Hashtbl.t;
}

let create () =
  { ids = Hashtbl.create 16; folds = Hashtbl.create 16; values = Hashtbl.create 16;
    counted = Hashtbl.create 16 }

let intern (t : table) op args =
  match Hashtbl.find_opt t.ids (op, args) with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.folds in
    Hashtbl.replace t.ids (op, args) i;
    Hashtbl.replace t.folds i (op, args);
    i

(** [fold_shape op shapes] is the shape [Prim_interp.eval_prim op] gives
    on constant inputs of these shapes, or [None] where it raises. It
    raises exactly where shape inference does, except on parameters it
    checks only at run time: Pad and Slice bounds of another rank than
    the input, negative pads, and negative output dimensions, which tensor
    allocation rejects ([Broadcast] and [Upsample] sizes). *)
let fold_shape (op : Primitive.t) (shapes : Shape.t list) : Shape.t option =
  let nonneg = Array.for_all (fun d -> d >= 0) in
  match Shape_infer.prim op shapes with
  | exception _ -> None
  | out -> (
    match op with
    | Primitive.Pad { before; after; _ } ->
      let r = Array.length out in
      if Array.length before = r && Array.length after = r && nonneg before && nonneg after
      then Some out
      else None
    | Primitive.Slice { stops; _ } -> if Array.length stops = Array.length out then Some out else None
    | _ -> if nonneg out then Some out else None)

(** [fold t g] folds to fixpoint, leaving every fold as an entry of [t]. *)
let fold (t : table) (g : Primgraph.t) : Primgraph.t =
  let g = ref g in
  let changed = ref true in
  while !changed do
    changed := false;
    let e = Edit.of_graph !g in
    Array.iter
      (fun nd ->
        match nd.Graph.op with
        | Primitive.Input _ | Constant _ | Opaque _ -> ()
        | op ->
          let const_inputs =
            List.map
              (fun i ->
                match Graph.op !g i with Primitive.Constant c -> Some c | _ -> None)
              nd.Graph.inputs
          in
          if
            const_inputs <> []
            && List.for_all Option.is_some const_inputs
            && Shape.numel nd.Graph.shape <= max_elems
          then begin
            let args = List.map Option.get const_inputs in
            match fold_shape op (List.map (fun (c : Const.t) -> c.Const.shape) args) with
            | Some shape ->
              let c =
                Edit.add e
                  (Primitive.Constant { Const.shape; fill = Const.Folded (intern t op args) })
                  []
              in
              Edit.redirect e ~old:nd.Graph.id ~new_:c;
              changed := true
            | None -> ()
          end)
      !g.Graph.nodes;
    if !changed then g := Edit.finish e
  done;
  !g

let rec eval (t : table) (i : int) : Nd.t =
  match Hashtbl.find_opt t.values i with
  | Some v -> v
  | None ->
    let op, args = Hashtbl.find t.folds i in
    let arg (c : Const.t) =
      match c.Const.fill with Const.Folded j -> eval t j | _ -> Const.materialize c
    in
    let v = Runtime.Prim_interp.eval_prim op (List.map arg args) in
    Hashtbl.replace t.values i v;
    v

let value (t : table) (i : int) : Nd.t =
  if not (Hashtbl.mem t.counted i) then begin
    Hashtbl.replace t.counted i ();
    Obs.Metrics.incr m_materialized
  end;
  eval t i

(** [resolve t g] gives every [Folded] constant of [g] its [Data]
    payload, evaluating chained folds through their arguments. *)
let resolve (t : table) (g : Primgraph.t) : Primgraph.t =
  let resolve_node (nd : Primitive.t Graph.node) =
    match nd.Graph.op with
    | Primitive.Constant { Const.fill = Const.Folded i; _ } ->
      { nd with Graph.op = Primitive.Constant (Const.of_nd (value t i)) }
    | _ -> nd
  in
  { g with Graph.nodes = Array.map resolve_node g.Graph.nodes }

(** [run g] folds to fixpoint and materializes the folds. *)
let run (g : Primgraph.t) : Primgraph.t =
  let t = create () in
  resolve t (fold t g)
