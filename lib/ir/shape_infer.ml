(** Shape inference for operators and primitives.

    Builders use these to derive node output shapes; the executor asserts
    the inferred shape matches the computed tensor. *)

open Tensor

let fail fmt = Printf.ksprintf invalid_arg fmt

let one_input = function
  | [ s ] -> s
  | l -> fail "shape_infer: expected 1 input, got %d" (List.length l)

let two_inputs = function
  | [ a; b ] -> (a, b)
  | l -> fail "shape_infer: expected 2 inputs, got %d" (List.length l)

let conv_out ~(input : Shape.t) ~(weight : Shape.t) ~stride ~padding : Shape.t =
  if Shape.rank input <> 4 || Shape.rank weight <> 4 then
    fail "shape_infer: conv expects NCHW input and OIHW weight";
  let n = input.(0) and c = input.(1) and h = input.(2) and w = input.(3) in
  let oc = weight.(0) and ic = weight.(1) and kh = weight.(2) and kw = weight.(3) in
  if ic <> c then fail "shape_infer: conv channel mismatch (%d vs %d)" ic c;
  let sh, sw = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1 in
  let ow = ((w + (2 * pw) - kw) / sw) + 1 in
  if oh <= 0 || ow <= 0 then fail "shape_infer: conv produces empty output";
  [| n; oc; oh; ow |]

let pool_out (s : Shape.t) ~kernel ~stride ~padding : Shape.t =
  if Shape.rank s <> 4 then fail "shape_infer: pool expects NCHW";
  let kh, kw = kernel and sh, sw = stride and ph, pw = padding in
  let oh = ((s.(2) + (2 * ph) - kh) / sh) + 1 in
  let ow = ((s.(3) + (2 * pw) - kw) / sw) + 1 in
  if oh <= 0 || ow <= 0 then fail "shape_infer: pool produces empty output";
  [| s.(0); s.(1); oh; ow |]

let matmul_out (a : Shape.t) (b : Shape.t) : Shape.t =
  let ra = Shape.rank a and rb = Shape.rank b in
  if ra < 2 || rb < 2 then fail "shape_infer: matmul expects rank >= 2";
  if a.(ra - 1) <> b.(rb - 2) then
    fail "shape_infer: matmul inner dims differ: %s x %s" (Shape.to_string a)
      (Shape.to_string b);
  let batch = Shape.broadcast (Array.sub a 0 (ra - 2)) (Array.sub b 0 (rb - 2)) in
  Array.append batch [| a.(ra - 2); b.(rb - 1) |]

let reduce_out (s : Shape.t) ~axis ~keepdims : Shape.t =
  if axis < 0 || axis >= Shape.rank s then fail "shape_infer: reduce axis out of range";
  if keepdims then Shape.set_axis s axis 1 else Shape.drop_axis s axis

(** [prim p inputs] infers the output shape of primitive [p] applied to
    inputs with the given shapes. *)
let prim (p : Primitive.t) (inputs : Shape.t list) : Shape.t =
  match p with
  | Primitive.Input _ -> fail "shape_infer: Input has no inferable shape"
  | Constant c ->
    if inputs <> [] then fail "shape_infer: Constant takes no inputs";
    c.Const.shape
  | Unary _ -> one_input inputs
  | Binary _ ->
    let a, b = two_inputs inputs in
    Shape.broadcast a b
  | Reduce (_, axis) -> reduce_out (one_input inputs) ~axis ~keepdims:false
  | Broadcast (axis, size) -> Shape.insert_axis (one_input inputs) axis size
  | Pool { kernel; stride; padding; _ } -> pool_out (one_input inputs) ~kernel ~stride ~padding
  | Transpose perm -> Shape.permute (one_input inputs) perm
  | Reshape s ->
    let s_in = one_input inputs in
    if Shape.numel s_in <> Shape.numel s || Array.exists (fun d -> d < 0) s then
      fail "shape_infer: reshape %s -> %s: not a shape of %d elements" (Shape.to_string s_in)
        (Shape.to_string s) (Shape.numel s_in);
    s
  | Pad { before; after; _ } ->
    let s = one_input inputs in
    Array.init (Shape.rank s) (fun i -> s.(i) + before.(i) + after.(i))
  | Slice { starts; stops } ->
    let s = one_input inputs in
    Array.iteri
      (fun i st ->
        if st < 0 || stops.(i) > s.(i) || st > stops.(i) then
          fail "shape_infer: slice out of range")
      starts;
    Array.init (Shape.rank s) (fun i -> stops.(i) - starts.(i))
  | Concat axis -> begin
    match inputs with
    | [] -> fail "shape_infer: concat of nothing"
    | first :: rest ->
      let total =
        List.fold_left
          (fun acc s ->
            if Shape.rank s <> Shape.rank first then fail "shape_infer: concat rank mismatch";
            Array.iteri
              (fun i d ->
                if i <> axis && d <> first.(i) then fail "shape_infer: concat shape mismatch")
              s;
            acc + s.(axis))
          first.(axis) rest
      in
      Shape.set_axis first axis total
  end
  | Matmul ->
    let a, b = two_inputs inputs in
    matmul_out a b
  | Conv { stride; padding } ->
    let input, weight = two_inputs inputs in
    conv_out ~input ~weight ~stride ~padding
  | Upsample scale ->
    let s = one_input inputs in
    if Shape.rank s <> 4 then fail "shape_infer: upsample expects NCHW";
    [| s.(0); s.(1); s.(2) * scale; s.(3) * scale |]
  | Opaque name -> fail "shape_infer: opaque primitive %s" name

(** [op o inputs] infers the output shape of operator [o]. *)
let op (o : Optype.t) (inputs : Shape.t list) : Shape.t =
  match o with
  | Optype.Input _ -> fail "shape_infer: Input has no inferable shape"
  | Constant c ->
    if inputs <> [] then fail "shape_infer: Constant takes no inputs";
    c.Const.shape
  | Relu | LeakyRelu _ | Sigmoid | Silu | Mish | Tanh | Gelu | Erf | Exp | Log | Sqrt | Neg
  | Square ->
    one_input inputs
  | Add | Sub | Mul | Div | Pow ->
    let a, b = two_inputs inputs in
    Shape.broadcast a b
  | Softmax axis ->
    let s = one_input inputs in
    if axis < 0 || axis >= Shape.rank s then fail "shape_infer: softmax axis out of range";
    s
  | InstanceNorm _ ->
    let s = one_input inputs in
    if Shape.rank s <> 4 then fail "shape_infer: instance norm expects NCHW";
    s
  | LayerNorm _ -> begin
    (* x[, scale, bias] where scale/bias have the last-axis shape *)
    match inputs with
    | [ s ] | [ s; _ ] | [ s; _; _ ] -> s
    | _ -> fail "shape_infer: layer norm arity"
  end
  | BatchNormInference _ -> begin
    match inputs with
    | s :: _ -> s
    | [] -> fail "shape_infer: batch norm arity"
  end
  | ReduceSum { axis; keepdims } | ReduceMean { axis; keepdims } | ReduceMax { axis; keepdims }
    ->
    reduce_out (one_input inputs) ~axis ~keepdims
  | MaxPool { kernel; stride; padding } | AvgPool { kernel; stride; padding } ->
    pool_out (one_input inputs) ~kernel ~stride ~padding
  | GlobalAvgPool ->
    let s = one_input inputs in
    if Shape.rank s <> 4 then fail "shape_infer: global avg pool expects NCHW";
    [| s.(0); s.(1); 1; 1 |]
  | Transpose perm -> Shape.permute (one_input inputs) perm
  | Reshape s -> prim (Primitive.Reshape s) inputs
  | Pad { before; after; value } -> prim (Primitive.Pad { before; after; value }) inputs
  | Slice { starts; stops } -> prim (Primitive.Slice { starts; stops }) inputs
  | Concat axis -> prim (Primitive.Concat axis) inputs
  | MatMul ->
    let a, b = two_inputs inputs in
    matmul_out a b
  | Conv { stride; padding; bias } -> begin
    match (bias, inputs) with
    | false, [ input; weight ] -> conv_out ~input ~weight ~stride ~padding
    | true, [ input; weight; b ] ->
      if Shape.rank b <> 1 || b.(0) <> weight.(0) then fail "shape_infer: conv bias shape";
      conv_out ~input ~weight ~stride ~padding
    | _ -> fail "shape_infer: conv arity"
  end
  | Upsample scale -> prim (Primitive.Upsample scale) inputs
  | TopK k ->
    let s = one_input inputs in
    Shape.set_axis s (Shape.rank s - 1) k
