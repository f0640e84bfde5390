(** Tensor algebra primitives — the four categories of §3.

    Every node of a primitive graph carries one of these. Each primitive has
    a single degree of parallelism and data access pattern, which is what
    makes a per-primitive (or fused multi-primitive) kernel efficient to
    generate. [Input] and [Constant] are source pseudo-primitives: they
    carry graph inputs and weights/constants and are never executed. *)

open Tensor

(** Elementwise functions and reduction aggregators, shared with
    {!Tensor.Ops_elementwise} and {!Tensor.Ops_reduce}, whose kernels take
    them as data. *)
type unary = Ops_elementwise.unary =
  | Exp | Log | Sqrt | Rsqrt | Neg | Abs | Square | Reciprocal | Relu
  | LeakyRelu of float
  | Sigmoid | Silu | Mish | Tanh | Erf | Gelu
  | AddConst of float
  | MulConst of float
  | PowConst of float
  | Clip of float * float

type binary = Ops_elementwise.binary = Add | Sub | Mul | Div | Max | Min | Pow
type agg = Ops_reduce.agg = Sum | Mean | Max | Min | Prod

type t =
  | Input of string  (** named graph input (activations or weights fed at run time) *)
  | Constant of const  (** embedded constant (weights, ones vectors, ...) *)
  | Unary of unary
  | Binary of binary
  | Reduce of agg * int  (** aggregate along an axis, dropping it *)
  | Broadcast of int * int  (** insert axis [k] of size [d] and replicate *)
  | Pool of { agg : agg; kernel : int * int; stride : int * int; padding : int * int }
      (** windowed reduction on NCHW (MaxPool/AvgPool), reduce category *)
  | Transpose of int array
  | Reshape of Shape.t
  | Pad of { before : int array; after : int array; value : float }
  | Slice of { starts : int array; stops : int array }
  | Concat of int
  | Matmul  (** 2-d or batched matrix multiplication with broadcast batching *)
  | Conv of { stride : int * int; padding : int * int }
      (** NCHW convolution, weight OIHW as second input *)
  | Upsample of int  (** nearest-neighbour spatial upsampling (linear) *)
  | Opaque of string  (** unsupported operator kept opaque (e.g. TopK), §3 *)

(** A constant and a primitive refer to each other: a folded constant is
    a primitive applied to constants. {!Const} documents these types. *)
and const = { shape : Shape.t; fill : fill }

and fill =
  | Zeros
  | Ones
  | Value of float
  | Randn of int
  | Randn_scaled of int * float
  | Data of Nd.t
  | Apply of t * const list

(** The four categories of §3, plus sources and opaque nodes. *)
type category =
  | Elementwise
  | Reduction
  | Broadcasting
  | Layout
  | Linear
  | Source
  | Unknown

let category : t -> category = function
  | Input _ | Constant _ -> Source
  | Unary _ | Binary _ -> Elementwise
  | Reduce _ | Pool _ -> Reduction
  | Broadcast _ | Upsample _ -> Broadcasting
  | Transpose _ | Reshape _ | Pad _ | Slice _ | Concat _ -> Layout
  | Matmul | Conv _ -> Linear
  | Opaque _ -> Unknown

let category_to_string = function
  | Elementwise -> "elementwise"
  | Reduction -> "reduce"
  | Broadcasting -> "broadcast"
  | Layout -> "layout"
  | Linear -> "linear"
  | Source -> "source"
  | Unknown -> "opaque"

let is_source p = category p = Source

let unary_to_string = function
  | Exp -> "exp" | Log -> "log" | Sqrt -> "sqrt" | Rsqrt -> "rsqrt" | Neg -> "neg"
  | Abs -> "abs" | Square -> "square" | Reciprocal -> "recip" | Relu -> "relu"
  | LeakyRelu a -> Printf.sprintf "leaky_relu(%g)" a
  | Sigmoid -> "sigmoid" | Silu -> "silu" | Mish -> "mish" | Tanh -> "tanh"
  | Erf -> "erf" | Gelu -> "gelu"
  | AddConst c -> Printf.sprintf "add_const(%g)" c
  | MulConst c -> Printf.sprintf "mul_const(%g)" c
  | PowConst c -> Printf.sprintf "pow_const(%g)" c
  | Clip (lo, hi) -> Printf.sprintf "clip(%g,%g)" lo hi

let binary_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
  | Max -> "max" | Min -> "min" | Pow -> "pow"

(* A payload, computed or folded, prints as [data]: a search sees the
   same spelling before and after a fold. *)
let const_to_string (c : const) =
  let fill =
    match c.fill with
    | Zeros -> "zeros"
    | Ones -> "ones"
    | Value v -> Printf.sprintf "%g" v
    | Randn s -> Printf.sprintf "randn#%d" s
    | Randn_scaled (s, f) -> Printf.sprintf "randn#%d*%g" s f
    | Data _ | Apply _ -> "data"
  in
  Printf.sprintf "const%s(%s)" (Shape.to_string c.shape) fill

let to_string : t -> string = function
  | Input name -> Printf.sprintf "input(%s)" name
  | Constant c -> const_to_string c
  | Unary u -> unary_to_string u
  | Binary b -> binary_to_string b
  | Reduce (agg, ax) -> Printf.sprintf "reduce_%s(axis=%d)" (Ops_reduce.agg_to_string agg) ax
  | Broadcast (ax, d) -> Printf.sprintf "broadcast(axis=%d,size=%d)" ax d
  | Pool p ->
    let kh, kw = p.kernel in
    Printf.sprintf "pool_%s(%dx%d)" (Ops_reduce.agg_to_string p.agg) kh kw
  | Transpose perm ->
    Printf.sprintf "transpose(%s)"
      (String.concat "," (Array.to_list (Array.map string_of_int perm)))
  | Reshape s -> Printf.sprintf "reshape%s" (Shape.to_string s)
  | Pad { before; after; value } ->
    let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf "pad(%s|%s|%g)" (arr before) (arr after) value
  | Slice { starts; stops } ->
    let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf "slice(%s..%s)" (arr starts) (arr stops)
  | Concat ax -> Printf.sprintf "concat(axis=%d)" ax
  | Matmul -> "matmul"
  | Conv c ->
    let sh, sw = c.stride and ph, pw = c.padding in
    Printf.sprintf "conv(s=%dx%d,p=%dx%d)" sh sw ph pw
  | Upsample s -> Printf.sprintf "upsample(x%d)" s
  | Opaque name -> Printf.sprintf "opaque(%s)" name

let pp ppf p = Format.pp_print_string ppf (to_string p)

(** Representative operators per category, Table 1. *)
let table1 : (category * string list) list =
  [ (Elementwise, [ "Add"; "Sub"; "Mul"; "Div"; "Relu"; "Sqrt"; "Erf" ]);
    (Reduction, [ "ReduceSum"; "ReduceMean"; "MaxPool" ]);
    (Broadcasting, [ "Broadcast"; "Upsample" ]);
    (Layout, [ "Transpose"; "Split"; "Concat"; "Slice"; "Pad"; "Reshape" ]);
    (Linear, [ "Conv"; "GEMM"; "Batched GEMM" ]) ]
