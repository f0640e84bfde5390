(** Common subexpression elimination on primitive graphs.

    Structurally identical nodes (same primitive, same input ids) are
    merged. Run after fission: neighbouring operator decompositions often
    produce duplicate reduces/broadcasts. *)

open Ir

let prim_key (p : Primitive.t) (inputs : int list) : string =
  let payload =
    (* [Primitive.to_string] renders constant payloads opaquely; include a
       content hash, or the fold's table entry, so distinct embedded
       tensors never share a key. *)
    match p with
    | Primitive.Constant { Const.fill = Const.Data nd; _ } ->
      Printf.sprintf "#%d" (Hashtbl.hash_param 256 512 nd.Tensor.Nd.data)
    | Primitive.Constant { Const.fill = Const.Folded i; _ } -> Printf.sprintf "#f%d" i
    | _ -> ""
  in
  Primitive.to_string p ^ payload ^ "("
  ^ String.concat "," (List.map string_of_int inputs)
  ^ ")"

(* The number of payload constants ([Data] or [Folded]) of each shape. *)
let payload_shapes (g : Primgraph.t) : (Tensor.Shape.t, int) Hashtbl.t =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match nd.Graph.op with
      | Primitive.Constant { Const.fill = Const.Data _ | Const.Folded _; shape } ->
        Hashtbl.replace counts shape (1 + Option.value ~default:0 (Hashtbl.find_opt counts shape))
      | _ -> ())
    g.Graph.nodes;
  counts

(** [run ?folds g] merges duplicates until fixpoint and returns the
    reduced graph. Named graph inputs are never merged with one another.
    [folds] evaluates the [Folded] constants of [g] where their payloads
    decide a merge. *)
let run ?folds (g : Primgraph.t) : Primgraph.t =
  let changed = ref true in
  let g = ref g in
  while !changed do
    changed := false;
    let seen = Hashtbl.create 64 in
    let e = Edit.of_graph !g in
    let payloads = payload_shapes !g in
    (* A [Folded] constant that shares its shape with another payload is
       compared by its payload, as the [Data] constant it becomes would
       be; any other by table entry, which no other payload can match. *)
    let compared_op id =
      match (Graph.op !g id, folds) with
      | Primitive.Constant { Const.fill = Const.Folded i; shape }, Some t
        when Hashtbl.find payloads shape > 1 ->
        Primitive.Constant (Const.of_nd (Constfold.value t i))
      | op, _ -> op
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
