(** Graphviz DOT export of orchestration plans.

    [plan_to_dot] colours each primitive by the kernel(s) that execute it
    and draws kernel clusters, making redundant execution (a primitive in
    two clusters) directly visible. *)

open Ir

(* Escape a string for interpolation inside a DOT double-quoted label:
   backslashes first (or escaping a quote would double-escape its own
   backslash), then quotes, then raw newlines as DOT line breaks. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let node_label (g : Primgraph.t) (id : int) =
  Printf.sprintf "%d: %s\\n%s" id
    (escape (Primitive.to_string (Graph.op g id)))
    (escape (Tensor.Shape.to_string (Graph.shape g id)))

let palette =
  [| "#a6cee3"; "#b2df8a"; "#fb9a99"; "#fdbf6f"; "#cab2d6"; "#ffff99"; "#1f78b4";
     "#33a02c"; "#e31a1c"; "#ff7f00"; "#6a3d9a"; "#b15928" |]

(** [plan_to_dot g plan] — primitive graph with one cluster per kernel.
    Redundantly executed primitives appear in several clusters (as
    replicated nodes suffixed with the kernel index). *)
let plan_to_dot (g : Primgraph.t) (plan : Plan.t) : string =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph plan {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  (* Sources outside any cluster. *)
  Array.iter
    (fun nd ->
      if Primitive.is_source nd.Graph.op then
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\" style=dashed];\n" nd.Graph.id
             (node_label g nd.Graph.id)))
    g.Graph.nodes;
  (* One cluster per kernel; node ids are (kernel, prim) pairs so
     redundant executions render as distinct boxes. *)
  List.iteri
    (fun ki (k : Plan.kernel) ->
      let color = palette.(ki mod Array.length palette) in
      Buffer.add_string buf
        (Printf.sprintf
           "  subgraph cluster_k%d {\n    label=\"k%d [%s] %.2fus\";\n    style=filled;\n    color=\"%s\";\n"
           ki (ki + 1) k.Plan.backend k.Plan.latency_us color);
      List.iter
        (fun p ->
          let shape = if List.mem p k.Plan.outputs then " penwidth=2" else "" in
          Buffer.add_string buf
            (Printf.sprintf "    k%dn%d [label=\"%s\"%s];\n" ki p (node_label g p) shape))
        k.Plan.prims;
      Buffer.add_string buf "  }\n")
    plan.Plan.kernels;
  (* Edges: within a kernel, between members; across kernels, from the
     publishing kernel's copy (or the source node). *)
  let publisher = Hashtbl.create 64 in
  List.iteri
    (fun ki (k : Plan.kernel) ->
      List.iter
        (fun id ->
          List.iter
            (fun src ->
              let src_name =
                if Primitive.is_source (Graph.op g src) then Printf.sprintf "n%d" src
                else if List.mem src k.Plan.prims then Printf.sprintf "k%dn%d" ki src
                else
                  match Hashtbl.find_opt publisher src with
                  | Some owner -> Printf.sprintf "k%dn%d" owner src
                  | None -> Printf.sprintf "n%d" src
              in
              Buffer.add_string buf
                (Printf.sprintf "  %s -> k%dn%d;\n" src_name ki id))
            (Graph.inputs g id))
        k.Plan.prims;
      List.iter (fun o -> Hashtbl.replace publisher o ki) k.Plan.outputs)
    plan.Plan.kernels;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
