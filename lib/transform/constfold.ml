(** Constant folding: primitives whose inputs are all constants are
    replaced by [Constant] nodes.

    Folding is size-guarded — materializing a huge broadcast of a constant
    would trade cheap recomputation for memory traffic, so only results up
    to [max_elems] are folded.

    Whether a node folds, and to what shape, is decided by shape alone.
    A fold is the constant [Const.Apply (op, args)], so a search that
    ranks graphs by shape never computes a payload; an executor
    evaluates it when it first reads it. *)

open Ir
open Tensor

let max_elems = 1 lsl 16

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

(** [fold g] folds to fixpoint, leaving every fold an [Apply] constant. *)
let fold (g : Primgraph.t) : Primgraph.t =
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
              let c = Edit.add e (Primitive.Constant (Const.apply shape op args)) [] in
              Edit.redirect e ~old:nd.Graph.id ~new_:c;
              changed := true
            | None -> ()
          end)
      !g.Graph.nodes;
    if !changed then g := Edit.finish e
  done;
  !g
