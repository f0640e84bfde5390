(** Reduce and broadcast primitives (§3, second category), plus the pooling
    operators that lower to windowed reductions. *)

type agg = Sum | Mean | Max | Min | Prod

let agg_to_string = function
  | Sum -> "sum" | Mean -> "mean" | Max -> "max" | Min -> "min" | Prod -> "prod"

let agg_init = function
  | Sum | Mean -> 0.0
  | Max -> Float.neg_infinity
  | Min -> Float.infinity
  | Prod -> 1.0

let agg_combine = function
  | Sum | Mean -> ( +. )
  | Max -> Float.max
  | Min -> Float.min
  | Prod -> ( *. )

(** [reduce ?dst agg ~axis ~keepdims t] aggregates along dimension
    [axis]. With [keepdims] the reduced dimension is kept with size 1 (the
    broadcast primitive is then its exact inverse shape-wise). *)
let reduce ?dst (agg : agg) ~(axis : int) ~(keepdims : bool) (t : Nd.t) : Nd.t =
  let s = Nd.shape t in
  if axis < 0 || axis >= Shape.rank s then invalid_arg "Ops_reduce.reduce: axis out of range";
  let len = s.(axis) in
  let rows = Shape.drop_axis s axis in
  let out = Nd.dest ?dst (if keepdims then Shape.insert_axis rows axis 1 else rows) in
  let st = Shape.strides s in
  let step = st.(axis) in
  let init = agg_init agg and combine = agg_combine agg in
  let x = t.Nd.data and d = out.Nd.data in
  Shape.iter1 rows (Shape.drop_axis st axis) (fun k base ->
      let acc = ref init in
      for j = 0 to len - 1 do
        acc := combine !acc x.(base + (j * step))
      done;
      d.(k) <- (match agg with Mean -> !acc /. float_of_int len | _ -> !acc));
  out

let sum ?(keepdims = false) ~axis t = reduce Sum ~axis ~keepdims t
let mean ?(keepdims = false) ~axis t = reduce Mean ~axis ~keepdims t
let max ?(keepdims = false) ~axis t = reduce Max ~axis ~keepdims t
let min ?(keepdims = false) ~axis t = reduce Min ~axis ~keepdims t

(** [broadcast_axis ?dst t ~axis ~size] inserts dimension [axis] of size
    [size] and replicates the input along it: the paper's broadcast
    primitive, inverse of reduce over the same axis. *)
let broadcast_axis ?dst (t : Nd.t) ~(axis : int) ~(size : int) : Nd.t =
  let s = Nd.shape t in
  let out_shape = Shape.insert_axis s axis size in
  let out = Nd.dest ?dst out_shape in
  let x = t.Nd.data and d = out.Nd.data in
  Shape.iter1 out_shape (Shape.insert_axis (Shape.strides s) axis 0) (fun k o -> d.(k) <- x.(o));
  out

(** [pool2d ?dst agg t ~kernel ~stride ~padding] applies a 2-d windowed
    reduction over the trailing two dimensions of an NCHW tensor. Padding
    cells contribute the aggregator's neutral element (so max-pool padding
    is [-inf], matching ONNX semantics for valid windows; windows are
    placed on the padded canvas). *)
let pool2d ?dst (agg : agg) (t : Nd.t) ~(kernel : int * int) ~(stride : int * int)
    ~(padding : int * int) : Nd.t =
  let s = Nd.shape t in
  if Shape.rank s <> 4 then invalid_arg "Ops_reduce.pool2d: expected NCHW input";
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let kh, kw = kernel and sh, sw = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1 in
  let ow = ((w + (2 * pw) - kw) / sw) + 1 in
  if oh <= 0 || ow <= 0 then invalid_arg "Ops_reduce.pool2d: empty output";
  let out = Nd.dest ?dst [| n; c; oh; ow |] in
  let init = agg_init agg and combine = agg_combine agg in
  let x = t.Nd.data and d = out.Nd.data in
  for plane = 0 to (n * c) - 1 do
    let xbase = plane * h * w and obase = plane * oh * ow in
    for oi = 0 to oh - 1 do
      for oj = 0 to ow - 1 do
        let acc = ref init and count = ref 0 in
        for ki = 0 to kh - 1 do
          for kj = 0 to kw - 1 do
            let ii = (oi * sh) + ki - ph and jj = (oj * sw) + kj - pw in
            if ii >= 0 && ii < h && jj >= 0 && jj < w then begin
              acc := combine !acc x.(xbase + (ii * w) + jj);
              incr count
            end
          done
        done;
        d.(obase + (oi * ow) + oj) <-
          (match agg with
          | Mean -> if !count = 0 then 0.0 else !acc /. float_of_int (kh * kw)
          | _ -> !acc)
      done
    done
  done;
  out

let maxpool2d = pool2d Max
let avgpool2d = pool2d Mean

(** [global_avg_pool2d t] averages over the spatial dimensions of an NCHW
    tensor, producing [N x C x 1 x 1]. *)
let global_avg_pool2d (t : Nd.t) : Nd.t =
  let s = Nd.shape t in
  if Shape.rank s <> 4 then invalid_arg "Ops_reduce.global_avg_pool2d: expected NCHW";
  let m = mean ~keepdims:true ~axis:3 t in
  mean ~keepdims:true ~axis:2 m
