(* The per-element tensor kernels: the test-side reference that the
   library's strided kernels are checked against.

   Every output element is located with [Shape.unravel] and every input
   element is read through [Nd.get] or a recomputed broadcast offset, so
   nothing here shares index arithmetic with the library's strided walk.
   Convolution is im2col + GEMM, the lowering the interpreter used before
   its direct loop, and [conv2d_direct] is the textbook nested loop with
   the GEMM's zero guard. Every scalar op and aggregator is spelled here
   again, not borrowed from the library, so a wrong library scalar fails
   against it. The library must give the same float bits, NaN payloads
   included. *)

open Ir
open Tensor

(* ---------------- scalar ops ---------------- *)

(* OCaml's [Float.max]/[Float.min]: a NaN operand wins, and -0.0 orders
   below +0.0. *)
let fmax x y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let fmin x y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

(* Abramowitz & Stegun 7.1.26. *)
let erf x =
  let t = 1.0 /. (1.0 +. (0.3275911 *. Float.abs x)) in
  let poly =
    ((((((((1.061405429 *. t) +. -1.453152027) *. t) +. 1.421413741) *. t) +. -0.284496736) *. t)
    +. 0.254829592)
  in
  (if x < 0.0 then -1.0 else 1.0) *. (1.0 -. (poly *. t *. exp (-.Float.abs x *. Float.abs x)))

let unary (u : Primitive.unary) (x : float) : float =
  match u with
  | Exp -> exp x
  | Log -> log x
  | Sqrt -> sqrt x
  | Rsqrt -> 1.0 /. sqrt x
  | Neg -> -.x
  | Abs -> Float.abs x
  | Square -> x *. x
  | Reciprocal -> 1.0 /. x
  | Relu -> fmax 0.0 x
  | LeakyRelu a -> if x >= 0.0 then x else a *. x
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Silu -> x /. (1.0 +. exp (-.x))
  | Mish -> x *. tanh (log (1.0 +. exp x))
  | Tanh -> tanh x
  | Erf -> erf x
  | Gelu -> 0.5 *. x *. (1.0 +. erf (x /. sqrt 2.0))
  | AddConst c -> x +. c
  | MulConst c -> x *. c
  | PowConst c -> Float.pow x c
  | Clip (lo, hi) -> fmin hi (fmax lo x)

let binary (b : Primitive.binary) (x : float) (y : float) : float =
  match b with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Max -> fmax x y
  | Min -> fmin x y
  | Pow -> Float.pow x y

let agg_init : Primitive.agg -> float = function
  | Sum | Mean -> 0.0
  | Max -> neg_infinity
  | Min -> infinity
  | Prod -> 1.0

let agg_combine : Primitive.agg -> float -> float -> float = function
  | Sum | Mean -> ( +. )
  | Max -> fmax
  | Min -> fmin
  | Prod -> ( *. )

(* ---------------- elementwise ---------------- *)

let map f (t : Nd.t) = Nd.of_array (Nd.shape t) (Array.map f t.Nd.data)

(* The linear offset, in an input of shape [in_shape] right-aligned
   against [out_shape], of output multi-index [out_idx]. *)
let broadcast_offset ~(out_shape : Shape.t) ~(in_shape : Shape.t) (out_idx : int array) : int =
  let ro = Shape.rank out_shape and ri = Shape.rank in_shape in
  let st = Shape.strides in_shape in
  let off = ref 0 in
  for i = 0 to ri - 1 do
    let oi = out_idx.(i + (ro - ri)) in
    let pos = if in_shape.(i) = 1 then 0 else oi in
    off := !off + (pos * st.(i))
  done;
  !off

let map2 f (a : Nd.t) (b : Nd.t) : Nd.t =
  let sa = Nd.shape a and sb = Nd.shape b in
  let out_shape = Shape.broadcast sa sb in
  Nd.create out_shape (fun k ->
      let idx = Shape.unravel out_shape k in
      f a.Nd.data.(broadcast_offset ~out_shape ~in_shape:sa idx)
        b.Nd.data.(broadcast_offset ~out_shape ~in_shape:sb idx))

(* [if c <> 0 then a else b] after a three-way broadcast. *)
let select (c : Nd.t) (a : Nd.t) (b : Nd.t) : Nd.t =
  let sc = Nd.shape c and sa = Nd.shape a and sb = Nd.shape b in
  let out_shape = Shape.broadcast (Shape.broadcast sc sa) sb in
  Nd.create out_shape (fun k ->
      let idx = Shape.unravel out_shape k in
      let at (t : Nd.t) s = t.Nd.data.(broadcast_offset ~out_shape ~in_shape:s idx) in
      if at c sc <> 0.0 then at a sa else at b sb)

(* ---------------- reduce / broadcast / pool ---------------- *)

let reduce (agg : Primitive.agg) ~(axis : int) ~(keepdims : bool) (t : Nd.t) : Nd.t =
  let s = Nd.shape t in
  let r = Shape.rank s in
  let d = s.(axis) in
  let out_shape = Shape.drop_axis s axis in
  let combine = agg_combine agg in
  let st = Shape.strides s in
  let out =
    Nd.create out_shape (fun k ->
        let idx_out = Shape.unravel out_shape k in
        let base = ref 0 in
        for i = 0 to r - 1 do
          if i < axis then base := !base + (idx_out.(i) * st.(i))
          else if i > axis then base := !base + (idx_out.(i - 1) * st.(i))
        done;
        let acc = ref (agg_init agg) in
        for j = 0 to d - 1 do
          acc := combine !acc (Nd.get_linear t (!base + (j * st.(axis))))
        done;
        match agg with Mean -> !acc /. float_of_int d | _ -> !acc)
  in
  if keepdims then Nd.reshape out (Shape.insert_axis out_shape axis 1) else out

let broadcast_axis (t : Nd.t) ~(axis : int) ~(size : int) : Nd.t =
  let out_shape = Shape.insert_axis (Nd.shape t) axis size in
  Nd.create out_shape (fun k -> Nd.get t (Shape.drop_axis (Shape.unravel out_shape k) axis))

let pool2d (agg : Primitive.agg) (t : Nd.t) ~(kernel : int * int) ~(stride : int * int)
    ~(padding : int * int) : Nd.t =
  let s = Nd.shape t in
  let h = s.(2) and w = s.(3) in
  let kh, kw = kernel and sh, sw = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1 in
  let ow = ((w + (2 * pw) - kw) / sw) + 1 in
  let out_shape = [| s.(0); s.(1); oh; ow |] in
  let combine = agg_combine agg in
  Nd.create out_shape (fun k ->
      let idx = Shape.unravel out_shape k in
      let acc = ref (agg_init agg) and count = ref 0 in
      for ki = 0 to kh - 1 do
        for kj = 0 to kw - 1 do
          let ii = (idx.(2) * sh) + ki - ph and jj = (idx.(3) * sw) + kj - pw in
          if ii >= 0 && ii < h && jj >= 0 && jj < w then begin
            acc := combine !acc (Nd.get t [| idx.(0); idx.(1); ii; jj |]);
            incr count
          end
        done
      done;
      match agg with
      | Mean -> if !count = 0 then 0.0 else !acc /. float_of_int (kh * kw)
      | _ -> !acc)

(* ---------------- layout ---------------- *)

let transpose (t : Nd.t) (perm : int array) : Nd.t =
  let out_shape = Shape.permute (Nd.shape t) perm in
  Nd.create out_shape (fun k ->
      let idx = Shape.unravel out_shape k in
      let src = Array.make (Array.length perm) 0 in
      Array.iteri (fun i p -> src.(p) <- idx.(i)) perm;
      Nd.get t src)

let pad (t : Nd.t) ~(before : int array) ~(after : int array) ~(value : float) : Nd.t =
  let s = Nd.shape t in
  let out = Nd.full (Array.mapi (fun i d -> d + before.(i) + after.(i)) s) value in
  for k = 0 to Nd.numel t - 1 do
    Nd.set out (Array.mapi (fun i x -> x + before.(i)) (Shape.unravel s k)) (Nd.get_linear t k)
  done;
  out

let slice (t : Nd.t) ~(starts : int array) ~(stops : int array) : Nd.t =
  let out_shape = Array.mapi (fun i st -> stops.(i) - st) starts in
  Nd.create out_shape (fun k ->
      Nd.get t (Array.mapi (fun i x -> x + starts.(i)) (Shape.unravel out_shape k)))

let concat (ts : Nd.t list) ~(axis : int) : Nd.t =
  let s0 = Nd.shape (List.hd ts) in
  let total = List.fold_left (fun acc t -> acc + (Nd.shape t).(axis)) 0 ts in
  let out = Nd.zeros (Shape.set_axis s0 axis total) in
  let offset = ref 0 in
  List.iter
    (fun t ->
      let s = Nd.shape t in
      for k = 0 to Nd.numel t - 1 do
        let idx = Shape.unravel s k in
        idx.(axis) <- idx.(axis) + !offset;
        Nd.set out idx (Nd.get_linear t k)
      done;
      offset := !offset + s.(axis))
    ts;
  out

let upsample_nearest2d (t : Nd.t) ~(scale : int) : Nd.t =
  let s = Nd.shape t in
  let out_shape = [| s.(0); s.(1); s.(2) * scale; s.(3) * scale |] in
  Nd.create out_shape (fun k ->
      let idx = Shape.unravel out_shape k in
      Nd.get t [| idx.(0); idx.(1); idx.(2) / scale; idx.(3) / scale |])

(* ---------------- linear ---------------- *)

(* [m x k] by [k x n], skipping zero left operands. *)
let gemm ~m ~k ~n (ad : float array) oa (bd : float array) ob (od : float array) oo =
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let av = ad.(oa + (i * k) + p) in
      if av <> 0.0 then
        for j = 0 to n - 1 do
          od.(oo + (i * n) + j) <- od.(oo + (i * n) + j) +. (av *. bd.(ob + (p * n) + j))
        done
    done
  done

let matmul (a : Nd.t) (b : Nd.t) : Nd.t =
  let m = (Nd.shape a).(0) and k = (Nd.shape a).(1) and n = (Nd.shape b).(1) in
  let out = Nd.zeros [| m; n |] in
  gemm ~m ~k ~n a.Nd.data 0 b.Nd.data 0 out.Nd.data 0;
  out

let batch_matmul (a : Nd.t) (b : Nd.t) : Nd.t =
  let sa = Nd.shape a and sb = Nd.shape b in
  let ra = Shape.rank sa and rb = Shape.rank sb in
  let batch_a = Array.sub sa 0 (ra - 2) and batch_b = Array.sub sb 0 (rb - 2) in
  let batch = Shape.broadcast batch_a batch_b in
  let m = sa.(ra - 2) and k = sa.(ra - 1) and n = sb.(rb - 1) in
  let out = Nd.zeros (Array.append batch [| m; n |]) in
  for bi = 0 to Shape.numel batch - 1 do
    let idx = Shape.unravel batch bi in
    let oa = broadcast_offset ~out_shape:batch ~in_shape:batch_a idx * (m * k) in
    let ob = broadcast_offset ~out_shape:batch ~in_shape:batch_b idx * (k * n) in
    gemm ~m ~k ~n a.Nd.data oa b.Nd.data ob out.Nd.data (bi * m * n)
  done;
  out

(* The [(N*OH*OW) x (C*KH*KW)] unfolding of an NCHW tensor; padding
   cells are exact zeros. *)
let im2col (t : Nd.t) ~kh ~kw ~sh ~sw ~ph ~pw ~oh ~ow : Nd.t =
  let s = Nd.shape t in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let cols = c * kh * kw in
  Nd.create [| n * oh * ow; cols |] (fun k ->
      let row = k / cols and col = k mod cols in
      let bi = row / (oh * ow) and oi = row / ow mod oh and oj = row mod ow in
      let ci = col / (kh * kw) and ki = col / kw mod kh and kj = col mod kw in
      let ii = (oi * sh) + ki - ph and jj = (oj * sw) + kj - pw in
      if ii >= 0 && ii < h && jj >= 0 && jj < w then Nd.get t [| bi; ci; ii; jj |] else 0.0)

(* Convolution as im2col + GEMM, then the NHWC product back to NCHW and
   the bias added by broadcasting. *)
let conv2d (t : Nd.t) (weight : Nd.t) ?(bias : Nd.t option) ~(stride : int * int)
    ~(padding : int * int) () : Nd.t =
  let s = Nd.shape t and sw_ = Nd.shape weight in
  let n = s.(0) and h = s.(2) and w = s.(3) in
  let oc = sw_.(0) and ic = sw_.(1) and kh = sw_.(2) and kw = sw_.(3) in
  let sh, sw = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1 in
  let ow = ((w + (2 * pw) - kw) / sw) + 1 in
  let cols = im2col t ~kh ~kw ~sh ~sw ~ph ~pw ~oh ~ow in
  let wmat = transpose (Nd.reshape weight [| oc; ic * kh * kw |]) [| 1; 0 |] in
  let prod = Nd.reshape (matmul cols wmat) [| n; oh; ow; oc |] in
  let out = transpose prod [| 0; 3; 1; 2 |] in
  match bias with
  | None -> out
  | Some b -> map2 ( +. ) out (Nd.reshape b [| 1; oc; 1; 1 |])

(* The textbook nested loop with the GEMM's zero guard. *)
let conv2d_direct (t : Nd.t) (weight : Nd.t) ~(stride : int * int) ~(padding : int * int) :
    Nd.t =
  let s = Nd.shape t and sw_ = Nd.shape weight in
  let c = s.(1) and h = s.(2) and w = s.(3) in
  let oc = sw_.(0) and kh = sw_.(2) and kw = sw_.(3) in
  let sh, sw = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1 in
  let ow = ((w + (2 * pw) - kw) / sw) + 1 in
  let out_shape = [| s.(0); oc; oh; ow |] in
  Nd.create out_shape (fun k ->
      let idx = Shape.unravel out_shape k in
      let acc = ref 0.0 in
      for ci = 0 to c - 1 do
        for ki = 0 to kh - 1 do
          for kj = 0 to kw - 1 do
            let ii = (idx.(2) * sh) + ki - ph and jj = (idx.(3) * sw) + kj - pw in
            if ii >= 0 && ii < h && jj >= 0 && jj < w then begin
              let av = Nd.get t [| idx.(0); ci; ii; jj |] in
              if av <> 0.0 then acc := !acc +. (av *. Nd.get weight [| idx.(1); ci; ki; kj |])
            end
          done
        done
      done;
      !acc)

(* ---------------- primitive graphs ---------------- *)

(* [Prim_interp.eval_prim] over the kernels and scalar ops above. *)
let eval_prim (p : Primitive.t) (args : Nd.t list) : Nd.t =
  let one () = match args with [ x ] -> x | _ -> invalid_arg "prim arity" in
  let two () = match args with [ x; y ] -> (x, y) | _ -> invalid_arg "prim arity" in
  match p with
  | Primitive.Input _ | Opaque _ -> invalid_arg "Ref_tensor_ops.eval_prim: not evaluable"
  | Constant c -> Runtime.Prim_interp.materialize c
  | Unary u -> map (unary u) (one ())
  | Binary b ->
    let x, y = two () in
    map2 (binary b) x y
  | Reduce (agg, axis) -> reduce agg ~axis ~keepdims:false (one ())
  | Broadcast (axis, size) -> broadcast_axis (one ()) ~axis ~size
  | Pool { agg; kernel; stride; padding } -> pool2d agg (one ()) ~kernel ~stride ~padding
  | Transpose perm -> transpose (one ()) perm
  | Reshape s -> Nd.reshape (one ()) s
  | Pad { before; after; value } -> pad (one ()) ~before ~after ~value
  | Slice { starts; stops } -> slice (one ()) ~starts ~stops
  | Concat axis -> concat args ~axis
  | Matmul ->
    let x, y = two () in
    batch_matmul x y
  | Conv { stride; padding } ->
    let x, w = two () in
    conv2d x w ~stride ~padding ()
  | Upsample scale -> upsample_nearest2d (one ()) ~scale

(* Evaluate the whole graph in topological order; outputs in
   declaration order. *)
let run (g : Primgraph.t) ~(inputs : (string * Nd.t) list) : Nd.t list =
  let env = Runtime.Prim_interp.bind_sources g ~inputs in
  List.iter
    (fun id ->
      if not (Hashtbl.mem env id) then begin
        let nd = Graph.node g id in
        Hashtbl.replace env id (eval_prim nd.Graph.op (List.map (Hashtbl.find env) nd.Graph.inputs))
      end)
    (Graph.topo_order g);
  List.map (Hashtbl.find env) g.Graph.outputs
