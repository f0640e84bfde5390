(** Fission rules for normalization operators.

    These are the operators whose monolithic kernels the paper's case
    studies (Figure 12: InstanceNorm in Candy) show to be suboptimal: each
    mixes reductions, broadcasts and elementwise arithmetic with different
    parallelism degrees. *)

open Ir

(* Normalize [x] over the given axes (innermost last): returns the
   primitive id of (x - mean) / sqrt (var + eps). *)
let normalize_axes b x ~axes ~eps =
  let mean_all x =
    (* Reduce the axes from highest to lowest so indices stay valid, then
       broadcast back in increasing order. *)
    let sorted = List.sort (fun a b' -> compare b' a) axes in
    let shape = Primgraph.B.shape_of b x in
    let reduced =
      List.fold_left
        (fun acc ax -> Primgraph.B.add b (Primitive.Reduce (Mean, ax)) [ acc ])
        x sorted
    in
    List.fold_left
      (fun acc ax -> Primgraph.B.add b (Primitive.Broadcast (ax, shape.(ax))) [ acc ])
      reduced (List.sort compare axes)
  in
  let mu = mean_all x in
  let centered = Primgraph.B.add b (Primitive.Binary Sub) [ x; mu ] in
  let sq = Primgraph.B.add b (Primitive.Unary Square) [ centered ] in
  let var = mean_all sq in
  let var_eps = Primgraph.B.add b (Primitive.Unary (AddConst eps)) [ var ] in
  let std = Primgraph.B.add b (Primitive.Unary Sqrt) [ var_eps ] in
  Primgraph.B.add b (Primitive.Binary Div) [ centered; std ]

(** InstanceNorm (NCHW): normalize each (n, c) plane over H and W. *)
let instance_norm ~eps : Rule.t =
 fun ctx -> normalize_axes ctx.Rule.b (Rule.one_input ctx) ~axes:[ 2; 3 ] ~eps

(** LayerNorm: normalize over the last axis; optional scale/bias inputs are
    applied as broadcasted elementwise Mul/Add. *)
let layer_norm ~eps : Rule.t =
 fun ctx ->
  let b = ctx.Rule.b in
  match ctx.Rule.inputs with
  | [] -> invalid_arg "fission layer_norm: no inputs"
  | x :: rest ->
    let rank = Tensor.Shape.rank (Primgraph.B.shape_of b x) in
    let normalized = normalize_axes b x ~axes:[ rank - 1 ] ~eps in
    (match rest with
    | [] -> normalized
    | [ scale ] -> Primgraph.B.add b (Primitive.Binary Mul) [ normalized; scale ]
    | [ scale; bias ] ->
      let scaled = Primgraph.B.add b (Primitive.Binary Mul) [ normalized; scale ] in
      Primgraph.B.add b (Primitive.Binary Add) [ scaled; bias ]
    | _ -> invalid_arg "fission layer_norm: arity")

(** Inference-mode BatchNorm with per-channel scale/bias/mean/var (all
    shape [C]) on an NCHW tensor: pure elementwise arithmetic once the
    channel parameters are reshaped to [1;C;1;1]. *)
let batch_norm ~eps : Rule.t =
 fun ctx ->
  let b = ctx.Rule.b in
  match ctx.Rule.inputs with
  | [ x; scale; bias; mean; var ] ->
    let c = (Primgraph.B.shape_of b x).(1) in
    let chan id = Primgraph.B.add b (Primitive.Reshape [| 1; c; 1; 1 |]) [ id ] in
    let mean4 = chan mean and var4 = chan var and scale4 = chan scale and bias4 = chan bias in
    let centered = Primgraph.B.add b (Primitive.Binary Sub) [ x; mean4 ] in
    let var_eps = Primgraph.B.add b (Primitive.Unary (AddConst eps)) [ var4 ] in
    let std = Primgraph.B.add b (Primitive.Unary Sqrt) [ var_eps ] in
    let normalized = Primgraph.B.add b (Primitive.Binary Div) [ centered; std ] in
    let scaled = Primgraph.B.add b (Primitive.Binary Mul) [ normalized; scale4 ] in
    Primgraph.B.add b (Primitive.Binary Add) [ scaled; bias4 ]
  | l ->
    invalid_arg
      (Printf.sprintf "fission batch_norm: expected 5 inputs, got %d" (List.length l))
