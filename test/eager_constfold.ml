(* The eager constant folder: the test-side reference that
   Transform.Constfold is checked against.

   Every fold materializes its constant inputs, evaluates the primitive
   and stores the result as a [Const.Data] payload, in every graph it is
   given. The library folder decides the same folds by shape and leaves
   each an unevaluated [Const.Apply], so both must produce the same
   graphs node for node, each fold evaluating to the eager payload's
   bits. *)

open Ir
open Tensor
open Transform

let default_max_elems = 1 lsl 16

(** [run ?max_elems g] folds to fixpoint. *)
let run ?(max_elems = default_max_elems) (g : Primgraph.t) : Primgraph.t =
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
            let args = List.map (fun c -> Runtime.Prim_interp.materialize (Option.get c)) const_inputs in
            match Runtime.Prim_interp.eval_prim op args with
            | v ->
              let c = Edit.add e (Primitive.Constant (Const.of_nd v)) [] in
              Edit.redirect e ~old:nd.Graph.id ~new_:c;
              changed := true
            | exception _ -> ()
          end)
      !g.Graph.nodes;
    if !changed then g := Edit.finish e
  done;
  !g

(* The transformation search as it was with the eager folder: the same
   queue, rules and acceptance as [Optimizer.optimize], every candidate
   cleaned by [Cse.run] and then [run]. *)

module Pq = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let optimize ~(spec : Gpu.Spec.t) ~(precision : Gpu.Precision.t) (g : Primgraph.t) :
    Primgraph.t =
  let alpha = 1.08 and budget = 40 in
  let cost_proxy = Optimizer.cost_proxy and graph_fingerprint = Optimizer.graph_fingerprint in
  let clean g = run (Cse.run g) in
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
      Optimizer.all_rules
  done;
  fst !best
