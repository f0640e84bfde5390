(** The [korch-onnx-json] graph document, declared once (see the
    interface). *)

open Ir
open Tensor
open Codec

exception Format_error of string

(* JSON has no non-finite numbers: they are written as strings, so that a
   graph holding one reads back bit for bit and +inf and NaN print apart. *)
let num =
  custom
    ~encode:(fun f ->
      if Float.is_finite f then Obs.Jsonw.Float f
      else if Float.is_nan f then Obs.Jsonw.Str "NaN"
      else Obs.Jsonw.Str (if f > 0.0 then "Infinity" else "-Infinity"))
    ~decode:(function
      | Json.Num f -> f
      | Json.Str "NaN" -> Float.nan
      | Json.Str "Infinity" -> Float.infinity
      | Json.Str "-Infinity" -> Float.neg_infinity
      | _ -> fail "expected a number")

let ints = map Array.of_list Array.to_list (list int)

(* A reshape target: shape inference refuses a negative dimension. *)
let dims =
  let nonneg s = if Array.for_all (fun d -> d >= 0) s then s else fail "negative dimension" in
  map nonneg Fun.id ints

let pair =
  map (function [ a; b ] -> (a, b) | _ -> fail "expected pair") (fun (a, b) -> [ a; b ]) (list int)

(* Cases by member count; a case's payload is the tuple of its members. *)
let tag0 t v = case t (obj ()) (fun () -> v) (fun x -> if x = v then Some () else None)
let tag1 t n c inj proj = case t (obj Fun.id |> field n c Fun.id) inj proj

let tag2 t (n1, c1) (n2, c2) inj proj =
  case t (obj (fun a b -> (a, b)) |> field n1 c1 fst |> field n2 c2 snd) inj proj

let tag3 t (n1, c1) (n2, c2) (n3, c3) inj proj =
  case t
    (obj (fun a b c -> (a, b, c))
    |> field n1 c1 (fun (a, _, _) -> a)
    |> field n2 c2 (fun (_, b, _) -> b)
    |> field n3 c3 (fun (_, _, c) -> c))
    inj proj

let nullary cases = List.map (fun (t, v) -> tag0 t v) cases

(* An object whose member "kind" names the case. *)
let tagged cases = obj Fun.id |> kind "kind" cases Fun.id |> finish

let nd =
  obj Nd.of_array
  |> field "shape" ints Nd.shape
  |> field "data" (map Array.of_list Array.to_list (list num)) (fun t -> t.Nd.data)
  |> finish

let const =
  let open Const in
  obj (fun shape fill -> match fill with Data t -> of_nd t | fill -> { shape; fill })
  |> field "shape" ints (fun c -> c.shape)
  |> kind "fill"
       (nullary [ ("zeros", Zeros); ("ones", Ones) ]
       @ [
           tag1 "value" "value" num (fun v -> Value v) (function Value v -> Some v | _ -> None);
           tag1 "randn" "seed" int (fun s -> Randn s) (function Randn s -> Some s | _ -> None);
           tag2 "randn_scaled" ("seed", int) ("scale", num)
             (fun (s, k) -> Randn_scaled (s, k))
             (function Randn_scaled (s, k) -> Some (s, k) | _ -> None);
           tag1 "data" "tensor" nd (fun t -> Data t) (function Data t -> Some t | _ -> None);
         ])
       (fun c -> c.fill)
  |> finish

let optype : Optype.t t =
  let open Optype in
  let reduce t inj proj = tag2 t ("axis", int) ("keepdims", bool) inj proj in
  let pool t inj proj = tag3 t ("kernel", pair) ("stride", pair) ("padding", pair) inj proj in
  tagged
    ([
       tag1 "Input" "name" string (fun n -> Input n) (function Input n -> Some n | _ -> None);
       tag1 "Constant" "const" const (fun c -> Constant c) (function
         | Constant c -> Some c
         | _ -> None);
       tag1 "LeakyRelu" "alpha" num (fun a -> LeakyRelu a) (function
         | LeakyRelu a -> Some a
         | _ -> None);
       tag1 "Softmax" "axis" int (fun a -> Softmax a) (function Softmax a -> Some a | _ -> None);
       tag1 "InstanceNorm" "eps" num (fun e -> InstanceNorm e) (function
         | InstanceNorm e -> Some e
         | _ -> None);
       tag1 "LayerNorm" "eps" num (fun e -> LayerNorm e) (function
         | LayerNorm e -> Some e
         | _ -> None);
       tag1 "BatchNorm" "eps" num (fun e -> BatchNormInference e) (function
         | BatchNormInference e -> Some e
         | _ -> None);
       reduce "ReduceSum"
         (fun (axis, keepdims) -> ReduceSum { axis; keepdims })
         (function ReduceSum { axis; keepdims } -> Some (axis, keepdims) | _ -> None);
       reduce "ReduceMean"
         (fun (axis, keepdims) -> ReduceMean { axis; keepdims })
         (function ReduceMean { axis; keepdims } -> Some (axis, keepdims) | _ -> None);
       reduce "ReduceMax"
         (fun (axis, keepdims) -> ReduceMax { axis; keepdims })
         (function ReduceMax { axis; keepdims } -> Some (axis, keepdims) | _ -> None);
       pool "MaxPool"
         (fun (kernel, stride, padding) -> MaxPool { kernel; stride; padding })
         (function
           | MaxPool { kernel; stride; padding } -> Some (kernel, stride, padding)
           | _ -> None);
       pool "AvgPool"
         (fun (kernel, stride, padding) -> AvgPool { kernel; stride; padding })
         (function
           | AvgPool { kernel; stride; padding } -> Some (kernel, stride, padding)
           | _ -> None);
       tag1 "Transpose" "perm" ints (fun p -> Transpose p) (function
         | Transpose p -> Some p
         | _ -> None);
       tag1 "Reshape" "shape" dims (fun s -> Reshape s) (function Reshape s -> Some s | _ -> None);
       tag3 "Pad" ("before", ints) ("after", ints) ("value", num)
         (fun (before, after, value) -> Pad { before; after; value })
         (function Pad { before; after; value } -> Some (before, after, value) | _ -> None);
       tag2 "Slice" ("starts", ints) ("stops", ints)
         (fun (starts, stops) -> Slice { starts; stops })
         (function Slice { starts; stops } -> Some (starts, stops) | _ -> None);
       tag1 "Concat" "axis" int (fun a -> Concat a) (function Concat a -> Some a | _ -> None);
       tag3 "Conv" ("stride", pair) ("padding", pair) ("bias", bool)
         (fun (stride, padding, bias) -> Conv { stride; padding; bias })
         (function Conv { stride; padding; bias } -> Some (stride, padding, bias) | _ -> None);
       tag1 "Upsample" "scale" int (fun s -> Upsample s) (function
         | Upsample s -> Some s
         | _ -> None);
       tag1 "TopK" "k" int (fun k -> TopK k) (function TopK k -> Some k | _ -> None);
     ]
    @ nullary
        [ ("Relu", Relu); ("Sigmoid", Sigmoid); ("Silu", Silu); ("Mish", Mish); ("Tanh", Tanh);
          ("Gelu", Gelu); ("Erf", Erf); ("Exp", Exp); ("Log", Log); ("Sqrt", Sqrt); ("Neg", Neg);
          ("Square", Square); ("Add", Add); ("Sub", Sub); ("Mul", Mul); ("Div", Div); ("Pow", Pow);
          ("GlobalAvgPool", GlobalAvgPool); ("MatMul", MatMul) ])

let agg =
  Primitive.(enum [ ("sum", Sum); ("mean", Mean); ("max", Max); ("min", Min); ("prod", Prod) ])

let unary : Primitive.unary t =
  let open Primitive in
  let scalar t inj proj = tag1 t "c" num inj proj in
  tagged
    ([
       tag1 "leaky_relu" "alpha" num (fun a -> LeakyRelu a) (function
         | LeakyRelu a -> Some a
         | _ -> None);
       scalar "add_const" (fun c -> AddConst c) (function AddConst c -> Some c | _ -> None);
       scalar "mul_const" (fun c -> MulConst c) (function MulConst c -> Some c | _ -> None);
       scalar "pow_const" (fun c -> PowConst c) (function PowConst c -> Some c | _ -> None);
       tag2 "clip" ("lo", num) ("hi", num) (fun (lo, hi) -> Clip (lo, hi)) (function
         | Clip (lo, hi) -> Some (lo, hi)
         | _ -> None);
     ]
    @ nullary
        [ ("exp", Exp); ("log", Log); ("sqrt", Sqrt); ("rsqrt", Rsqrt); ("neg", Neg); ("abs", Abs);
          ("square", Square); ("recip", Reciprocal); ("relu", Relu); ("sigmoid", Sigmoid);
          ("silu", Silu); ("mish", Mish); ("tanh", Tanh); ("erf", Erf); ("gelu", Gelu) ])

let binary =
  Primitive.(
    enum
      [ ("add", Add); ("sub", Sub); ("mul", Mul); ("div", Div); ("max", Max); ("min", Min);
        ("pow", Pow) ])

let primitive : Primitive.t t =
  let open Primitive in
  tagged
    [
      tag1 "Input" "name" string (fun n -> Input n) (function Input n -> Some n | _ -> None);
      tag1 "Constant" "const" const (fun c -> Constant c) (function
        | Constant c -> Some c
        | _ -> None);
      tag1 "Unary" "fn" unary (fun u -> Unary u) (function Unary u -> Some u | _ -> None);
      tag1 "Binary" "fn" binary (fun b -> Binary b) (function Binary b -> Some b | _ -> None);
      tag2 "Reduce" ("agg", agg) ("axis", int) (fun (a, x) -> Reduce (a, x)) (function
        | Reduce (a, x) -> Some (a, x)
        | _ -> None);
      tag2 "Broadcast" ("axis", int) ("size", int) (fun (a, s) -> Broadcast (a, s)) (function
        | Broadcast (a, s) -> Some (a, s)
        | _ -> None);
      case "Pool"
        (obj (fun agg kernel stride padding -> (agg, kernel, stride, padding))
        |> field "agg" agg (fun (a, _, _, _) -> a)
        |> field "kernel" pair (fun (_, k, _, _) -> k)
        |> field "stride" pair (fun (_, _, s, _) -> s)
        |> field "padding" pair (fun (_, _, _, p) -> p))
        (fun (agg, kernel, stride, padding) -> Pool { agg; kernel; stride; padding })
        (function
          | Pool { agg; kernel; stride; padding } -> Some (agg, kernel, stride, padding)
          | _ -> None);
      tag1 "Transpose" "perm" ints (fun p -> Transpose p) (function
        | Transpose p -> Some p
        | _ -> None);
      tag1 "Reshape" "shape" dims (fun s -> Reshape s) (function Reshape s -> Some s | _ -> None);
      tag3 "Pad" ("before", ints) ("after", ints) ("value", num)
        (fun (before, after, value) -> Pad { before; after; value })
        (function Pad { before; after; value } -> Some (before, after, value) | _ -> None);
      tag2 "Slice" ("starts", ints) ("stops", ints)
        (fun (starts, stops) -> Slice { starts; stops })
        (function Slice { starts; stops } -> Some (starts, stops) | _ -> None);
      tag1 "Concat" "axis" int (fun a -> Concat a) (function Concat a -> Some a | _ -> None);
      tag0 "MatMul" Matmul;
      tag2 "Conv" ("stride", pair) ("padding", pair)
        (fun (stride, padding) -> Conv { stride; padding })
        (function Conv { stride; padding } -> Some (stride, padding) | _ -> None);
      tag1 "Upsample" "scale" int (fun s -> Upsample s) (function Upsample s -> Some s | _ -> None);
      tag1 "Opaque" "name" string (fun n -> Opaque n) (function Opaque n -> Some n | _ -> None);
    ]

(* Nodes are numbered by position: "id", like the envelope's "version",
   is written for readers and optional on read, its value unused. *)
let node op =
  obj (fun _id op inputs shape -> { Graph.id = 0; op; inputs; shape })
  |> opt "id" int (fun nd -> Some nd.Graph.id)
  |> field "op" op (fun nd -> nd.Graph.op)
  |> field "inputs" (list int) (fun nd -> nd.Graph.inputs)
  |> field "shape" ints (fun nd -> nd.Graph.shape)
  |> finish

(* The structural checks no member codec can see: edges point at earlier
   nodes, dimensions are positive and outputs are in range. *)
let assemble nodes outputs =
  let failf fmt = Printf.ksprintf fail fmt in
  let nodes = Array.of_list nodes in
  Array.iteri
    (fun i nd ->
      List.iter
        (fun src ->
          if src < 0 || src >= i then
            failf "node %d: input edge references node %d (valid range 0..%d)" i src (i - 1))
        nd.Graph.inputs;
      Array.iteri
        (fun d dim ->
          if dim < 1 then failf "node %d: shape dimension %d is %d (must be >= 1)" i d dim)
        nd.Graph.shape;
      nodes.(i) <- { nd with Graph.id = i })
    nodes;
  let n = Array.length nodes in
  List.iter
    (fun o -> if o < 0 || o >= n then failf "outputs: id %d out of range (graph has %d nodes)" o n)
    outputs;
  { Graph.nodes; outputs }

let graph kind_name op =
  obj (fun () _version () nodes outputs -> assemble nodes outputs)
  |> field "format" (enum [ ("korch-onnx-json", ()) ]) ignore
  |> opt "version" int (fun _ -> Some 1)
  |> field "kind" (enum [ (kind_name, ()) ]) ignore
  |> field "nodes" (list (node op)) (fun g -> Array.to_list g.Graph.nodes)
  |> field "outputs" (list int) (fun g -> g.Graph.outputs)
  |> finish

let opgraph : Opgraph.t t = graph "operator" optype
let primgraph : Primgraph.t t = graph "primitive" primitive
let opgraph_to_string g = Obs.Jsonw.to_string (encode opgraph g)
let primgraph_to_string g = Obs.Jsonw.to_string (encode primgraph g)

let of_string c s =
  let failf fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt in
  Faults.check Faults.Onnx_parse;
  match Json.of_string s with
  | exception Json.Parse_error (msg, pos) ->
    if pos >= String.length s then
      failf "malformed JSON at byte %d: %s (document truncated?)" pos msg
    else failf "malformed JSON at byte %d: %s" pos msg
  | j -> ( match decode c j with Ok g -> g | Error m -> raise (Format_error m))

let opgraph_of_string = of_string opgraph
let primgraph_of_string = of_string primgraph
