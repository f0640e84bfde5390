(** Common subexpression elimination on primitive graphs.

    Structurally identical nodes (same primitive, same input ids) are
    merged. Run after fission: neighbouring operator decompositions often
    produce duplicate reduces/broadcasts.

    Constants with a payload ([Data] or a fold) are merged when their
    payloads are equal. A fold of at most {!Constfold.max_elems} elements
    that shares its shape with another payload is compared by its value,
    evaluated by {!Runtime.Prim_interp.materialize}; any other fold by
    its expression, so CSE never evaluates a large one. *)

open Ir

let prim_key (p : Primitive.t) (inputs : int list) : string =
  let payload =
    (* [Primitive.to_string] renders constant payloads opaquely; include a
       content hash, or the fold's expression hash, so distinct embedded
       tensors never share a key. *)
    match p with
    | Primitive.Constant { Const.fill = Const.Data nd; _ } ->
      Printf.sprintf "#%d" (Hashtbl.hash_param 256 512 nd.Tensor.Nd.data)
    | Primitive.Constant ({ Const.fill = Const.Apply _; _ } as c) ->
      Printf.sprintf "#f%d" (Hashtbl.hash_param 256 512 c)
    | _ -> ""
  in
  Primitive.to_string p ^ payload ^ "("
  ^ String.concat "," (List.map string_of_int inputs)
  ^ ")"

(* The number of payload constants ([Data] or [Apply]) of each shape. *)
let payload_shapes (g : Primgraph.t) : (Tensor.Shape.t, int) Hashtbl.t =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match nd.Graph.op with
      | Primitive.Constant { Const.fill = Const.Data _ | Const.Apply _; shape } ->
        Hashtbl.replace counts shape (1 + Option.value ~default:0 (Hashtbl.find_opt counts shape))
      | _ -> ())
    g.Graph.nodes;
  counts

(** [run g] merges duplicates until fixpoint and returns the reduced
    graph. Named graph inputs are never merged with one another. *)
let run (g : Primgraph.t) : Primgraph.t =
  let changed = ref true in
  let g = ref g in
  while !changed do
    changed := false;
    let seen = Hashtbl.create 64 in
    let e = Edit.of_graph !g in
    let payloads = payload_shapes !g in
    (* A small fold that shares its shape with another payload is
       compared by its value, as a [Data] constant of it would be. *)
    let compared_op id =
      match Graph.op !g id with
      | Primitive.Constant ({ Const.fill = Const.Apply _; shape } as c)
        when Tensor.Shape.numel shape <= Constfold.max_elems && Hashtbl.find payloads shape > 1 ->
        Primitive.Constant (Const.of_nd (Runtime.Prim_interp.materialize c))
      | op -> op
    in
    Array.iter
      (fun nd ->
        match compared_op nd.Graph.id with
        | Primitive.Input _ -> ()
        | op ->
          let key = prim_key op nd.Graph.inputs in
          (match Hashtbl.find_opt seen key with
          | Some canonical
            when canonical <> nd.Graph.id
                 (* Guard against key collisions: the primitives (payloads
                    included) must be structurally identical. *)
                 && compared_op canonical = op
                 && Graph.inputs !g canonical = nd.Graph.inputs ->
            Edit.redirect e ~old:nd.Graph.id ~new_:canonical;
            changed := true
          | Some _ -> ()
          | None -> Hashtbl.replace seen key nd.Graph.id))
      !g.Graph.nodes;
    if !changed then g := Edit.finish e
  done;
  !g
