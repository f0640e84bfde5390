(** Cost-guided backtracking search over primitive-graph transformations
    (the TASO-style superoptimizer Korch reuses, §2/§3).

    Maintains a priority queue of candidate graphs ordered by a fast cost
    proxy (the sum of per-primitive single-kernel latencies under the GPU
    cost model). Expands the cheapest graph, applies every rewrite rule at
    every site, and keeps results within [alpha] of the best cost seen —
    TASO's relaxed acceptance that lets locally-worse graphs enable
    globally-better ones. Always terminates via the expansion [budget]. *)

open Ir

(** Accept graphs within [alpha × best] cost. *)
let alpha = 1.08

(** Graph expansions per search. *)
let budget = 40

let all_rules : (string * (Primgraph.t -> Primgraph.t list)) list =
  [
    ("reduce_to_matmul", Rules_reduce_matmul.apply);
    ("swap_div_matmul", Rules_swap.apply);
    ("merge_matmul", Rules_merge_matmul.apply);
    ("transpose", Rules_transpose.apply);
    ("broadcast", Rules_broadcast.apply);
    ("layout_cancel", Rules_layout_cancel.apply);
  ]

(** [cost_proxy ~spec ~precision g] — sum of single-primitive kernel
    latencies: a fast, fusion-agnostic stand-in for the orchestrated cost
    used only to rank graphs during search. *)
let cost_proxy ~(spec : Gpu.Spec.t) ~(precision : Gpu.Precision.t) (g : Primgraph.t) : float =
  let n = Graph.length g in
  Array.fold_left
    (fun acc nd ->
      if Primitive.is_source nd.Graph.op then acc
      else
        let members = Bitset.add (Bitset.empty n) nd.Graph.id in
        match
          Gpu.Profiler.profile ~max_tvm_prims:Gpu.Profiler.max_tvm_prims ~spec ~precision g
            members ~outputs:[ nd.Graph.id ]
        with
        | Some r -> acc +. r.Gpu.Profiler.latency_us
        | None ->
          (* Opaque or unsupported alone: charge a conservative default. *)
          acc +. (2.0 *. spec.Gpu.Spec.launch_overhead_us))
    0.0 g.Graph.nodes

let graph_fingerprint (g : Primgraph.t) : string =
  let buf = Buffer.create 256 in
  Array.iter
    (fun nd ->
      Buffer.add_string buf (Primitive.to_string nd.Graph.op);
      Buffer.add_string buf (Tensor.Shape.to_string nd.Graph.shape);
      List.iter (fun i -> Buffer.add_string buf (Printf.sprintf ".%d" i)) nd.Graph.inputs;
      Buffer.add_char buf '|')
    g.Graph.nodes;
  List.iter (fun o -> Buffer.add_string buf (Printf.sprintf ">%d" o)) g.Graph.outputs;
  Digest.string (Buffer.contents buf) |> Digest.to_hex

module Pq = Map.Make (struct
  type t = float * int

  let compare = compare
end)

(* CSE, then constant folding: the search's starting point, and what it
   does to every graph it sees. *)
let clean g = Constfold.fold (Cse.run g)

(** [optimize ~spec ~precision g] — search for a cheaper equivalent
    primitive graph. Returns the best graph found (possibly [g] itself).
    CSE and constant folding run on every candidate. *)
let optimize ~(spec : Gpu.Spec.t) ~(precision : Gpu.Precision.t) (g : Primgraph.t) :
    Primgraph.t =
  (* A transformation search can blow up on an adversarial graph; the
     injection site lets tests force that and exercise the orchestrator's
     fallback to {!clean}. *)
  Faults.check Faults.Transform;
  let g0 = clean g in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (graph_fingerprint g0) ();
  let c0 = cost_proxy ~spec ~precision g0 in
  let best = ref (g0, c0) in
  let queue = ref Pq.empty in
  let counter = ref 0 in
  let push g c =
    incr counter;
    queue := Pq.add (c, !counter) g !queue
  in
  push g0 c0;
  let expansions = ref 0 in
  while (not (Pq.is_empty !queue)) && !expansions < budget do
    let key, g = Pq.min_binding !queue in
    queue := Pq.remove key !queue;
    incr expansions;
    List.iter
      (fun (_name, rule) ->
        List.iter
          (fun g' ->
            let g' = clean g' in
            let fp = graph_fingerprint g' in
            if not (Hashtbl.mem seen fp) then begin
              Hashtbl.replace seen fp ();
              let c' = cost_proxy ~spec ~precision g' in
              if c' < snd !best then best := (g', c');
              if c' <= alpha *. snd !best then push g' c'
            end)
          (try rule g with Invalid_argument _ -> []))
      all_rules
  done;
  fst !best
