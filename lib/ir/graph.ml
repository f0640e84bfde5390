(** Generic single-output-per-node DAGs.

    Both the operator-level computation graph and the primitive graph are
    instances of this structure: each node produces exactly one tensor (the
    paper's simplifying assumption, §3 footnote 1), [inputs] lists producer
    node ids in argument order (duplicates allowed), and [outputs] names the
    graph's result nodes. *)

open Tensor

type 'op node = { id : int; op : 'op; inputs : int list; shape : Shape.t }

type 'op t = { nodes : 'op node array; outputs : int list }

(** [length g] is the number of nodes. *)
let length g = Array.length g.nodes

(** [node g i] is the node with id [i]. *)
let node g i = g.nodes.(i)

(** [op g i] is the operator of node [i]. *)
let op g i = g.nodes.(i).op

(** [shape g i] is the output shape of node [i]. *)
let shape g i = g.nodes.(i).shape

(** [inputs g i] are the producer ids of node [i] in argument order. *)
let inputs g i = g.nodes.(i).inputs

(** [succs g] is the successor adjacency (deduplicated): [succs.(i)] lists
    nodes that consume node [i]'s output. *)
let succs g : int list array =
  let n = length g in
  let out = Array.make n [] in
  Array.iter
    (fun nd ->
      List.iter
        (fun p -> if not (List.mem nd.id out.(p)) then out.(p) <- nd.id :: out.(p))
        nd.inputs)
    g.nodes;
  Array.map List.rev out

(** [preds g i] are the deduplicated producers of node [i]. *)
let preds g i = List.sort_uniq compare (inputs g i)

(** [validate g] checks that ids are positional, that every input and
    output id is in range, and that the graph is acyclic (Kahn's
    algorithm). It does not require inputs to precede their consumer in
    id order. Raises [Invalid_argument] on violation. *)
let validate g =
  let n = length g in
  Array.iteri
    (fun i nd ->
      if nd.id <> i then invalid_arg "Graph.validate: node id mismatch";
      List.iter
        (fun p -> if p < 0 || p >= n then invalid_arg "Graph.validate: dangling input")
        nd.inputs)
    g.nodes;
  List.iter
    (fun o -> if o < 0 || o >= n then invalid_arg "Graph.validate: dangling output")
    g.outputs;
  (* Kahn's algorithm detects cycles. *)
  let indeg = Array.make n 0 in
  Array.iter (fun nd -> indeg.(nd.id) <- List.length (preds g nd.id)) g.nodes;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let visited = ref 0 in
  let sc = succs g in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr visited;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      sc.(v)
  done;
  if !visited <> n then invalid_arg "Graph.validate: cycle detected"

(** [topo_order g] is a topological ordering of node ids (Kahn, stable by
    id for determinism). *)
let topo_order g : int list =
  let n = length g in
  let indeg = Array.make n 0 in
  Array.iter (fun nd -> indeg.(nd.id) <- List.length (preds g nd.id)) g.nodes;
  let sc = succs g in
  let module IntSet = Set.Make (Int) in
  let ready = ref (IntSet.of_list (List.filter (fun i -> indeg.(i) = 0) (List.init n Fun.id))) in
  let order = ref [] in
  while not (IntSet.is_empty !ready) do
    let v = IntSet.min_elt !ready in
    ready := IntSet.remove v !ready;
    order := v :: !order;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := IntSet.add w !ready)
      sc.(v)
  done;
  let order = List.rev !order in
  if List.length order <> n then invalid_arg "Graph.topo_order: cycle detected";
  order

(** [descendants g i] is the set of nodes reachable from [i] (excluding
    [i]). *)
let descendants g i : Bitset.t =
  let n = length g in
  let sc = succs g in
  let seen = ref (Bitset.empty n) in
  let rec go v =
    List.iter
      (fun w ->
        if not (Bitset.mem !seen w) then begin
          seen := Bitset.add !seen w;
          go w
        end)
      sc.(v)
  in
  go i;
  !seen

(** [is_execution_state g s] tests Definition 2: [s] is downward closed
    under the dependency relation (every predecessor of a member is a
    member). *)
let is_execution_state g (s : Bitset.t) =
  Bitset.fold (fun i ok -> ok && List.for_all (fun p -> Bitset.mem s p) (preds g i)) s true

(** [is_convex_with sc s] is {!is_convex} over a precomputed successor
    table [sc = succs g], for callers that test many sets of one graph. *)
let is_convex_with (sc : int list array) (s : Bitset.t) =
  (* Walk the outside nodes reachable from [s] via paths whose
     intermediate nodes all lie outside [s]; if any of them feeds back
     into [s], a path leaves and re-enters [s], violating convexity. (A
     path that re-enters and exits again is already caught at its first
     re-entry.) [visit w] is true when such a walk from the outside node
     [w] re-enters [s]; a node is walked at most once. *)
  let seen = Array.make (Array.length sc) false in
  let rec visit w =
    (not seen.(w))
    && begin
         seen.(w) <- true;
         List.exists (fun x -> Bitset.mem s x || visit x) sc.(w)
       end
  in
  not
    (Bitset.fold
       (fun v bad -> bad || List.exists (fun w -> (not (Bitset.mem s w)) && visit w) sc.(v))
       s false)

(** [is_convex g s] tests Definition 1 directly: no path leaves [s] and
    re-enters it. O(|s| * |E|); used as the test oracle for Theorem 1. *)
let is_convex g (s : Bitset.t) = is_convex_with (succs g) s

(** [boundary_outputs ?succs g s] lists members of [s] whose output is
    consumed outside [s] or is a graph output — the canonical "possible
    output set" of Definition 3 plus graph outputs. [succs] is
    {!succs}[ g], computed when absent. *)
let boundary_outputs ?succs:sc g (s : Bitset.t) : int list =
  let sc = match sc with Some sc -> sc | None -> succs g in
  Bitset.fold
    (fun i acc ->
      let escapes = List.exists (fun w -> not (Bitset.mem s w)) sc.(i) in
      let is_output = List.mem i g.outputs in
      if escapes || is_output then i :: acc else acc)
    s []
  |> List.rev

(** [external_inputs g s] lists producer ids outside [s] feeding nodes
    inside [s] (deduplicated, increasing). *)
let external_inputs g (s : Bitset.t) : int list =
  Bitset.fold
    (fun i acc ->
      List.fold_left
        (fun acc p -> if Bitset.mem s p then acc else p :: acc)
        acc (inputs g i))
    s []
  |> List.sort_uniq compare

(** A mutable builder for graphs. *)
module Builder = struct
  type 'op t = {
    mutable rev_nodes : 'op node list;
    mutable count : int;
    mutable outs : int list;
    shapes : (int, Shape.t) Hashtbl.t;
  }

  let create () = { rev_nodes = []; count = 0; outs = []; shapes = Hashtbl.create 64 }

  (** [add b op inputs shape] appends a node and returns its id. *)
  let add b op inputs shape =
    let id = b.count in
    b.rev_nodes <- { id; op; inputs; shape } :: b.rev_nodes;
    Hashtbl.replace b.shapes id shape;
    b.count <- b.count + 1;
    id

  (** [shape_of b id] is the output shape of an already-added node. *)
  let shape_of b id =
    match Hashtbl.find_opt b.shapes id with
    | Some s -> s
    | None -> invalid_arg "Graph.Builder.shape_of: unknown node id"

  (** [set_outputs b ids] declares the graph outputs. *)
  let set_outputs b ids = b.outs <- ids

  (** [finish b] freezes and validates the graph. *)
  let finish b =
    let g = { nodes = Array.of_list (List.rev b.rev_nodes); outputs = b.outs } in
    validate g;
    g
end

(** [pp pp_op ppf g] prints one node per line. *)
let pp pp_op ppf g =
  Array.iter
    (fun nd ->
      Format.fprintf ppf "%3d: %a%s <- (%s)%s@."
        nd.id pp_op nd.op (Shape.to_string nd.shape)
        (String.concat ", " (List.map string_of_int nd.inputs))
        (if List.mem nd.id g.outputs then "  [output]" else ""))
    g.nodes
