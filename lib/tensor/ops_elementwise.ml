(** Elementwise tensor operations with numpy-style broadcasting.

    Elementwise primitives are the first of the paper's four primitive
    categories (§3): the output element at position [x] depends only on the
    input elements at position [x] (after broadcasting).

    Each scalar op is a constructor of {!unary} or {!binary}, spelled once
    in {!eval_unary} / {!eval_binary}. The kernels {!val-unary} and
    {!val-binary} take the op as data: the spelling is inlined into their
    one loop, which writes into [?dst] (see {!Nd.dest}) or into fresh
    storage and boxes no float, so the executor's buffer-recycling mode is
    bit-identical to the allocating path by construction. *)

(** Unary elementwise functions. *)
type unary =
  | Exp
  | Log
  | Sqrt
  | Rsqrt
  | Neg
  | Abs
  | Square
  | Reciprocal
  | Relu
  | LeakyRelu of float
  | Sigmoid
  | Silu
  | Mish
  | Tanh
  | Erf
  | Gelu
  | AddConst of float
  | MulConst of float
  | PowConst of float
  | Clip of float * float

(** Binary elementwise functions (with broadcasting). *)
type binary = Add | Sub | Mul | Div | Max | Min | Pow

(** Approximates the Gauss error function with the Abramowitz & Stegun
    7.1.26 polynomial (max abs error 1.5e-7), which is ample for checking
    functional equivalence of GELU decompositions. *)
let[@inline] erf (x : float) : float =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let a1 = 0.254829592 and a2 = -0.284496736 and a3 = 1.421413741 in
  let a4 = -1.453152027 and a5 = 1.061405429 in
  let poly = ((((a5 *. t) +. a4) *. t +. a3) *. t +. a2) *. t +. a1 in
  sign *. (1.0 -. (poly *. t *. Stdlib.exp (-.x *. x)))

(* [Float.min hi (Float.max lo x)] with the inner [max] resolved to a
   choice of [x] or [lo]: binding the [max] itself would box [x]. *)
let[@inline] clip lo hi x =
  let take_x =
    if x > lo || ((not (Float.sign_bit x)) && Float.sign_bit lo) then not (Float.is_nan lo)
    else Float.is_nan x
  in
  if take_x then Float.min hi x else Float.min hi lo

(** [eval_unary u x] — the value of [u] at [x]. Inlined into every loop
    that calls it, so the per-element [match] boxes nothing. *)
let[@inline] eval_unary (u : unary) (x : float) : float =
  match u with
  | Exp -> Stdlib.exp x
  | Log -> Stdlib.log x
  | Sqrt -> Stdlib.sqrt x
  | Rsqrt -> 1.0 /. Stdlib.sqrt x
  | Neg -> -.x
  | Abs -> Float.abs x
  | Square -> x *. x
  | Reciprocal -> 1.0 /. x
  | Relu -> Float.max 0.0 x
  | LeakyRelu alpha -> if x >= 0.0 then x else alpha *. x
  | Sigmoid -> 1.0 /. (1.0 +. Stdlib.exp (-.x))
  (* SiLU / swish: [x * sigmoid x]. *)
  | Silu -> x /. (1.0 +. Stdlib.exp (-.x))
  (* Mish, used by YOLOv4: [x * tanh (softplus x)]. *)
  | Mish -> x *. Stdlib.tanh (Stdlib.log (1.0 +. Stdlib.exp x))
  | Tanh -> Stdlib.tanh x
  | Erf -> erf x
  (* Exact GELU via erf. *)
  | Gelu -> 0.5 *. x *. (1.0 +. erf (x /. Stdlib.sqrt 2.0))
  | AddConst c -> x +. c
  | MulConst c -> x *. c
  | PowConst c -> x ** c
  | Clip (lo, hi) -> clip lo hi x

(** [eval_binary b x y] — the value of [b] at [(x, y)], inlined likewise. *)
let[@inline] eval_binary (b : binary) (x : float) (y : float) : float =
  match b with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Max -> Float.max x y
  | Min -> Float.min x y
  | Pow -> x ** y

(** [unary ?dst u t] applies [u] to every element. *)
let unary ?dst (u : unary) (t : Nd.t) : Nd.t =
  let out = Nd.dest ?dst (Nd.shape t) in
  let x = t.Nd.data and d = out.Nd.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- eval_unary u x.(i)
  done;
  out

(** [binary ?dst op a b] applies [op] pointwise after broadcasting [a] and
    [b] to a common shape. *)
let binary ?dst (op : binary) (a : Nd.t) (b : Nd.t) : Nd.t =
  let sa = Nd.shape a and sb = Nd.shape b in
  let x = a.Nd.data and y = b.Nd.data in
  if Shape.equal sa sb then begin
    let out = Nd.dest ?dst sa in
    let d = out.Nd.data in
    for i = 0 to Array.length d - 1 do
      d.(i) <- eval_binary op x.(i) y.(i)
    done;
    out
  end
  else begin
    let shape = Shape.broadcast sa sb in
    let out = Nd.dest ?dst shape in
    let d = out.Nd.data in
    Shape.iter2 shape (Shape.broadcast_strides ~out:shape sa) (Shape.broadcast_strides ~out:shape sb)
      (fun k i j -> d.(k) <- eval_binary op x.(i) y.(j));
    out
  end

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
