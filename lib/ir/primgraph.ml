(** Primitive graphs — the representation Korch orchestrates (§3, §4). *)

open Tensor

type t = Primitive.t Graph.t

let pp = Graph.pp Primitive.pp

(** [non_source_nodes g] lists ids of executable (non-Input/Const) nodes. *)
let non_source_nodes (g : t) : int list =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         if Primitive.is_source nd.Graph.op then None else Some nd.Graph.id)

(** Builder with automatic shape inference. *)
module B = struct
  type b = Primitive.t Graph.Builder.t

  let create () : b = Graph.Builder.create ()

  (** [input b name shape] adds a named graph input. *)
  let input b name shape = Graph.Builder.add b (Primitive.Input name) [] shape

  (** [const b c] embeds a constant. *)
  let const b (c : Const.t) = Graph.Builder.add b (Primitive.Constant c) [] c.Const.shape

  (** [add b p inputs] appends a primitive node, inferring its shape. *)
  let add (b : b) (p : Primitive.t) (inputs : int list) : int =
    let shapes = List.map (Graph.Builder.shape_of b) inputs in
    let shape = Shape_infer.prim p shapes in
    Graph.Builder.add b p inputs shape

  (** [add_raw b p inputs shape] appends a node with an explicit shape (for
      opaque primitives whose shapes cannot be inferred). *)
  let add_raw (b : b) (p : Primitive.t) (inputs : int list) (shape : Shape.t) : int =
    Graph.Builder.add b p inputs shape

  let shape_of = Graph.Builder.shape_of
  let set_outputs = Graph.Builder.set_outputs
  let finish = Graph.Builder.finish
end
