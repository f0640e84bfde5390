(** Operator-graph canonicalization passes applied before optimization —
    the standard "freeze" transformations every deployment stack performs,
    so the Korch-vs-baseline comparison is about orchestration rather than
    about who folded batch norms.

    Currently: inference-mode BatchNorm folding into a preceding Conv with
    constant weights. *)

open Ir
open Tensor

type fold_plan = {
  x : int;  (** conv data input (original graph id) *)
  stride : int * int;
  padding : int * int;
  w' : Nd.t;  (** folded weight *)
  b' : Nd.t;  (** folded bias *)
}

(* Detect (conv W [b]) -> BN(scale, bias, mean, var) with constant
   parameters, where the conv feeds only the BN. *)
let plan_fold (g : Opgraph.t) (succs : int list array) (bn_id : int) : fold_plan option =
  let const_of id = match Graph.op g id with Optype.Constant c -> Some c | _ -> None in
  match (Graph.op g bn_id, Graph.inputs g bn_id) with
  | Optype.BatchNormInference eps, [ conv_id; scale; bias; mean; var ] -> begin
    match (Graph.op g conv_id, Graph.inputs g conv_id) with
    | Optype.Conv { stride; padding; bias = has_bias }, conv_inputs
      when succs.(conv_id) = [ bn_id ] -> begin
      let x, w_id, b_id =
        match (has_bias, conv_inputs) with
        | false, [ x; w ] -> (x, w, None)
        | true, [ x; w; b ] -> (x, w, Some b)
        | _ -> invalid_arg "canonicalize: conv arity"
      in
      let bias_const =
        match b_id with
        | None -> Some None
        | Some id -> (match const_of id with Some c -> Some (Some c) | None -> None)
      in
      match (const_of w_id, bias_const, const_of scale, const_of bias, const_of mean,
             const_of var)
      with
      | Some wc, Some b_opt, Some sc, Some bc, Some mc, Some vc ->
        let w = Const.materialize wc in
        let oc = (Nd.shape w).(0) in
        let scale_v = Const.materialize sc and bias_v = Const.materialize bc in
        let mean_v = Const.materialize mc and var_v = Const.materialize vc in
        let b0 =
          match b_opt with Some c -> Const.materialize c | None -> Nd.zeros [| oc |]
        in
        (* factor[o] = scale[o] / sqrt(var[o] + eps) *)
        let factor =
          Nd.create [| oc |] (fun o ->
              Nd.get_linear scale_v o /. sqrt (Nd.get_linear var_v o +. eps))
        in
        let per_out = Nd.numel w / oc in
        let w' =
          Nd.create (Nd.shape w) (fun i ->
              Nd.get_linear w i *. Nd.get_linear factor (i / per_out))
        in
        let b' =
          Nd.create [| oc |] (fun o ->
              ((Nd.get_linear b0 o -. Nd.get_linear mean_v o) *. Nd.get_linear factor o)
              +. Nd.get_linear bias_v o)
        in
        Some { x; stride; padding; w'; b' }
      | _ -> None
    end
    | _ -> None
  end
  | _ -> None

(** [fold_batch_norms g] — rewrite every foldable Conv+BN pair into a
    single biased Conv with recomputed constant weights. *)
let fold_batch_norms (g : Opgraph.t) : Opgraph.t =
  let succs = Graph.succs g in
  let b = Opgraph.B.create () in
  let remap = Array.make (Graph.length g) (-1) in
  let folded_conv = Array.make (Graph.length g) false in
  let plans = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      match plan_fold g succs nd.Graph.id with
      | Some plan ->
        Hashtbl.replace plans nd.Graph.id plan;
        (match Graph.inputs g nd.Graph.id with
        | conv_id :: _ -> folded_conv.(conv_id) <- true
        | [] -> ())
      | None -> ())
    g.Graph.nodes;
  (* A constant is emitted only if a kept node reads it: a folded BN's
     parameters and its conv's weights and bias would otherwise stay
     behind as dead sources. *)
  let read = Array.make (Graph.length g) false in
  List.iter (fun o -> read.(o) <- true) g.Graph.outputs;
  Array.iter
    (fun nd ->
      let id = nd.Graph.id in
      match Hashtbl.find_opt plans id with
      | Some plan -> read.(plan.x) <- true
      | None ->
        if not folded_conv.(id) then List.iter (fun i -> read.(i) <- true) nd.Graph.inputs)
    g.Graph.nodes;
  List.iter
    (fun id ->
      let nd = Graph.node g id in
      if folded_conv.(id) then () (* the BN node emits the folded conv *)
      else
        match Hashtbl.find_opt plans id with
        | Some plan ->
          let wc = Opgraph.B.const b (Const.of_nd plan.w') in
          let bc = Opgraph.B.const b (Const.of_nd plan.b') in
          remap.(id) <-
            Opgraph.B.add b
              (Optype.Conv { stride = plan.stride; padding = plan.padding; bias = true })
              [ remap.(plan.x); wc; bc ]
        | None ->
          let inputs = List.map (fun i -> remap.(i)) nd.Graph.inputs in
          remap.(id) <-
            (match nd.Graph.op with
            | Optype.Input name -> Opgraph.B.input b name nd.Graph.shape
            | Optype.Constant c -> if read.(id) then Opgraph.B.const b c else -1
            | op -> Opgraph.B.add b op inputs))
    (Graph.topo_order g);
  Opgraph.B.set_outputs b (List.map (fun i -> remap.(i)) g.Graph.outputs);
  Opgraph.B.finish b
