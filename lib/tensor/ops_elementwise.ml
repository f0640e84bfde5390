(** Elementwise tensor operations with numpy-style broadcasting.

    Elementwise primitives are the first of the paper's four primitive
    categories (§3): the output element at position [x] depends only on the
    input elements at position [x] (after broadcasting).

    Every operation is defined by a named scalar function in {!Scalar} and
    lifted with {!map} / {!map2}, each one loop that writes into [?dst]
    (see {!Nd.dest}) or into fresh storage, so the executor's
    buffer-recycling mode is bit-identical to the allocating path by
    construction. *)

(** The scalar kernels. Single source of truth shared by the allocating
    and the destination-passing evaluation paths. *)
module Scalar = struct
  let neg x = -.x
  let exp = Stdlib.exp
  let log = Stdlib.log
  let sqrt = Stdlib.sqrt
  let abs = Float.abs
  let square x = x *. x
  let reciprocal x = 1.0 /. x
  let tanh = Stdlib.tanh

  (** Approximates the Gauss error function with the Abramowitz & Stegun
      7.1.26 polynomial (max abs error 1.5e-7), which is ample for checking
      functional equivalence of GELU decompositions. *)
  let erf (x : float) : float =
    let sign = if x < 0.0 then -1.0 else 1.0 in
    let x = Float.abs x in
    let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
    let a1 = 0.254829592 and a2 = -0.284496736 and a3 = 1.421413741 in
    let a4 = -1.453152027 and a5 = 1.061405429 in
    let poly = ((((a5 *. t) +. a4) *. t +. a3) *. t +. a2) *. t +. a1 in
    sign *. (1.0 -. (poly *. t *. Stdlib.exp (-.x *. x)))

  let relu x = Float.max 0.0 x
  let leaky_relu alpha x = if x >= 0.0 then x else alpha *. x
  let sigmoid x = 1.0 /. (1.0 +. Stdlib.exp (-.x))

  (** SiLU / swish: [x * sigmoid x]. *)
  let silu x = x /. (1.0 +. Stdlib.exp (-.x))

  (** Mish activation used by YOLOv4: [x * tanh (softplus x)]. *)
  let mish x = x *. Stdlib.tanh (Stdlib.log (1.0 +. Stdlib.exp x))

  (** Exact GELU via erf. *)
  let gelu x = 0.5 *. x *. (1.0 +. erf (x /. Stdlib.sqrt 2.0))

  let add_const c x = x +. c
  let mul_const c x = x *. c
  let pow_const c x = x ** c
  let clip lo hi x = Float.min hi (Float.max lo x)
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let pow = ( ** )
  let maximum = Float.max
  let minimum = Float.min
end

(** [map ?dst f t] applies [f] to every element. *)
let map ?dst (f : float -> float) (t : Nd.t) : Nd.t =
  let out = Nd.dest ?dst (Nd.shape t) in
  let x = t.Nd.data and d = out.Nd.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- f x.(i)
  done;
  out

(** [map2 ?dst f a b] applies [f] pointwise after broadcasting [a] and [b]
    to a common shape. *)
let map2 ?dst (f : float -> float -> float) (a : Nd.t) (b : Nd.t) : Nd.t =
  let sa = Nd.shape a and sb = Nd.shape b in
  let x = a.Nd.data and y = b.Nd.data in
  if Shape.equal sa sb then begin
    let out = Nd.dest ?dst sa in
    let d = out.Nd.data in
    for i = 0 to Array.length d - 1 do
      d.(i) <- f x.(i) y.(i)
    done;
    out
  end
  else begin
    let shape = Shape.broadcast sa sb in
    let out = Nd.dest ?dst shape in
    let d = out.Nd.data in
    Shape.iter2 shape (Shape.broadcast_strides ~out:shape sa) (Shape.broadcast_strides ~out:shape sb)
      (fun k i j -> d.(k) <- f x.(i) y.(j));
    out
  end

let add = map2 Scalar.add
let sub = map2 Scalar.sub
let mul = map2 Scalar.mul
let div = map2 Scalar.div
let pow = map2 Scalar.pow
let maximum = map2 Scalar.maximum
let minimum = map2 Scalar.minimum

let neg = map Scalar.neg
let exp = map Scalar.exp
let log = map Scalar.log
let sqrt = map Scalar.sqrt
let abs = map Scalar.abs
let square = map Scalar.square
let reciprocal = map Scalar.reciprocal
let tanh = map Scalar.tanh

let erf = map Scalar.erf
let relu = map Scalar.relu
let leaky_relu ~alpha = map (Scalar.leaky_relu alpha)
let sigmoid = map Scalar.sigmoid
let silu = map Scalar.silu
let mish = map Scalar.mish
let gelu = map Scalar.gelu
let add_scalar c = map (Scalar.add_const c)
let mul_scalar c = map (Scalar.mul_const c)

(** [clip ~lo ~hi t] clamps every element into [[lo, hi]]. *)
let clip ~lo ~hi = map (Scalar.clip lo hi)

(** [select ?dst c a b] is elementwise [if c <> 0 then a else b] after
    broadcasting all three to a common shape. *)
let select ?dst (c : Nd.t) (a : Nd.t) (b : Nd.t) : Nd.t =
  let shape = Shape.broadcast (Shape.broadcast (Nd.shape c) (Nd.shape a)) (Nd.shape b) in
  let out = Nd.dest ?dst shape in
  let st (t : Nd.t) = Shape.broadcast_strides ~out:shape (Nd.shape t) in
  let d = out.Nd.data and cd = c.Nd.data and ad = a.Nd.data and bd = b.Nd.data in
  Shape.iter3 shape (st c) (st a) (st b) (fun k i j l ->
      d.(k) <- (if cd.(i) <> 0.0 then ad.(j) else bd.(l)));
  out
