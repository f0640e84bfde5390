(** Linear transformation primitives (§3, fourth category): GEMM, batched
    GEMM, 2-d convolution and nearest upsampling. Each output is linear
    in every input tensor.

    Convolution is a direct loop, the form [Codegen.Emit] generates for C:
    each output element starts from [+0.0] and adds [av *. w] over
    (ci, ki, kj) ascending, skipping taps whose input [av] is a zero of
    either sign or lies in the padding. The loop is weight-stationary —
    (oc, ci, ki, kj) outside, the output rows inside — which keeps that
    per-element order while reading each weight once. *)

(* [O += A * B] for one [m x k] by [k x n] product at the given offsets,
   skipping zero left operands. *)
let gemm ~m ~k ~n (a : float array) oa (b : float array) ob (o : float array) oo =
  for i = 0 to m - 1 do
    let arow = oa + (i * k) and orow = oo + (i * n) in
    for p = 0 to k - 1 do
      let av = a.(arow + p) in
      if av <> 0.0 then begin
        let brow = ob + (p * n) in
        for j = 0 to n - 1 do
          o.(orow + j) <- o.(orow + j) +. (av *. b.(brow + j))
        done
      end
    done
  done

(** [batch_matmul ?dst a b] multiplies [... x m x k] by [... x k x n] with
    broadcasting over the leading batch dimensions. *)
let batch_matmul ?dst (a : Nd.t) (b : Nd.t) : Nd.t =
  let sa = Nd.shape a and sb = Nd.shape b in
  let ra = Shape.rank sa and rb = Shape.rank sb in
  if ra < 2 || rb < 2 then invalid_arg "Ops_linear.batch_matmul: rank < 2";
  let m = sa.(ra - 2) and k = sa.(ra - 1) in
  if sb.(rb - 2) <> k then
    invalid_arg
      (Printf.sprintf "Ops_linear.batch_matmul: inner dims differ %s vs %s"
         (Shape.to_string sa) (Shape.to_string sb));
  let n = sb.(rb - 1) in
  let batch_a = Array.sub sa 0 (ra - 2) and batch_b = Array.sub sb 0 (rb - 2) in
  let batch = Shape.broadcast batch_a batch_b in
  let out = Nd.dest ?dst (Array.append batch [| m; n |]) in
  let o = out.Nd.data in
  Array.fill o 0 (Array.length o) 0.0;
  let scaled s mat = Array.map (fun x -> x * mat) (Shape.broadcast_strides ~out:batch s) in
  Shape.iter2 batch (scaled batch_a (m * k)) (scaled batch_b (k * n)) (fun bi oa ob ->
      gemm ~m ~k ~n a.Nd.data oa b.Nd.data ob o (bi * m * n));
  out

(** [matmul ?dst a b] multiplies a [m x k] by a [k x n] matrix. *)
let matmul ?dst (a : Nd.t) (b : Nd.t) : Nd.t =
  if Shape.rank (Nd.shape a) <> 2 || Shape.rank (Nd.shape b) <> 2 then
    invalid_arg "Ops_linear.matmul: expected rank-2 inputs";
  batch_matmul ?dst a b

(* The output positions [lo, hi] whose tap at kernel offset [kt] reads
   inside an input axis of [len] cells: [o * s + kt - p] in [0, len). *)
let tap_range ~len ~out ~s ~p kt =
  let lo = if p - kt <= 0 then 0 else (p - kt + s - 1) / s in
  let last = len - 1 + p - kt in
  (lo, if last < 0 then -1 else Stdlib.min (out - 1) (last / s))

(** [conv2d ?dst t weight ?bias ~stride ~padding ()] is a standard NCHW
    2-d convolution with weight layout [OC x IC x KH x KW]; [bias], if
    given, is added to each finished output element of its channel. *)
let conv2d ?dst (t : Nd.t) (weight : Nd.t) ?(bias : Nd.t option) ~(stride : int * int)
    ~(padding : int * int) () : Nd.t =
  let s = Nd.shape t and sw_ = Nd.shape weight in
  if Shape.rank s <> 4 || Shape.rank sw_ <> 4 then
    invalid_arg "Ops_linear.conv2d: expected NCHW input and OIHW weight";
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let oc = sw_.(0) and ic = sw_.(1) and kh = sw_.(2) and kw = sw_.(3) in
  if ic <> c then invalid_arg "Ops_linear.conv2d: channel mismatch";
  (match bias with
  | Some b when Nd.shape b <> [| oc |] -> invalid_arg "Ops_linear.conv2d: bias must be [OC]"
  | _ -> ());
  let sh, sw = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1 in
  let ow = ((w + (2 * pw) - kw) / sw) + 1 in
  let out = Nd.dest ?dst [| n; oc; oh; ow |] in
  let x = t.Nd.data and wd = weight.Nd.data and od = out.Nd.data in
  Array.fill od 0 (Array.length od) 0.0;
  for bi = 0 to n - 1 do
    for o = 0 to oc - 1 do
      let obase = ((bi * oc) + o) * oh * ow in
      for ci = 0 to c - 1 do
        let xbase = ((bi * c) + ci) * h * w in
        for ki = 0 to kh - 1 do
          let oi_lo, oi_hi = tap_range ~len:h ~out:oh ~s:sh ~p:ph ki in
          for kj = 0 to kw - 1 do
            let oj_lo, oj_hi = tap_range ~len:w ~out:ow ~s:sw ~p:pw kj in
            let wv = wd.((((((o * c) + ci) * kh) + ki) * kw) + kj) in
            for oi = oi_lo to oi_hi do
              let xrow = xbase + ((((oi * sh) + ki - ph) * w) + kj - pw) in
              let orow = obase + (oi * ow) in
              for oj = oj_lo to oj_hi do
                let av = x.(xrow + (oj * sw)) in
                if av <> 0.0 then od.(orow + oj) <- od.(orow + oj) +. (av *. wv)
              done
            done
          done
        done
      done;
      Option.iter
        (fun (b : Nd.t) ->
          let bv = b.Nd.data.(o) in
          for i = obase to obase + (oh * ow) - 1 do
            od.(i) <- od.(i) +. bv
          done)
        bias
    done
  done;
  out

(** [upsample_nearest2d ?dst t ~scale] nearest-neighbour upsampling on
    NCHW, used by the YOLO necks. Linear in its input, hence a
    linear-transformation primitive. *)
let upsample_nearest2d ?dst (t : Nd.t) ~(scale : int) : Nd.t =
  let s = Nd.shape t in
  if Shape.rank s <> 4 then invalid_arg "Ops_linear.upsample_nearest2d: expected NCHW";
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  let out = Nd.dest ?dst [| n; c; h * scale; w * scale |] in
  let x = t.Nd.data and d = out.Nd.data in
  (* The output read as [n; c; h; scale; w; scale]: the two scale axes
     repeat the input cell, stride 0. *)
  Shape.iter1 [| n; c; h; scale; w; scale |] [| c * h * w; h * w; w; 0; 1; 0 |] (fun k o ->
      d.(k) <- x.(o));
  out
