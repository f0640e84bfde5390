(** Value-range analysis over primitive graphs.

    A forward abstract interpretation whose domain is an interval ×
    zero-exclusion × finiteness × NaN-exclusion product: each tensor is
    abstracted by one fact describing every element it may contain.
    Graph inputs are assumed to hold arbitrary {e finite} reals (the
    executor feeds materialized tensors); constants contribute their
    exact fill ranges; every primitive has a sound transfer function on
    intervals.

    {!check} then inspects the facts for numeric hazards:

    - {b error} — a defect guaranteed for every input: division by an
      always-zero tensor, [log]/[sqrt] of an always-negative range,
      [log 0], [exp] of a range entirely above the float64 overflow
      threshold;
    - {b warning} — the operand range provably contains a bad region in
      its interior (denominator straddles zero, [log]/[sqrt] argument
      may be negative, [exp] may overflow from a bounded-below range);
    - {b info} — the bad value is only a range endpoint (e.g. a
      denominator that can underflow to exactly zero), or an output may
      carry ±inf.

    Zero-exclusion is what keeps the zoo quiet: the denominator of a
    fissioned softmax is a sum of [exp]s ([>= 0] as an interval) and the
    denominator of a norm layer is [sqrt(var + eps)]; both are proved
    nonzero by the flag, so no spurious division findings appear.
    NaN/inf tracking is deliberately best-effort (e.g. [inf - inf] is
    not modelled); findings are anchored on the interval bounds, which
    are sound. *)

open Ir
open Tensor
module D = Diagnostics

let pass = "vrange"

(** One abstract tensor: every element lies in [[lo, hi]] (bounds may be
    infinite, meaning unbounded); the flags record values provably
    excluded for {e all} elements. *)
type v = {
  lo : float;
  hi : float;
  nonzero : bool;  (** 0.0 excluded *)
  finite : bool;  (** ±inf excluded *)
  nonnan : bool;  (** NaN excluded *)
}

(* The empty fact (no evidence yet): an empty interval with all
   exclusions vacuously true. *)
let bottom = { lo = infinity; hi = neg_infinity; nonzero = true; finite = true; nonnan = true }
let is_empty x = x.lo > x.hi
let top = { lo = neg_infinity; hi = infinity; nonzero = false; finite = false; nonnan = false }

(* Arbitrary finite data: what a graph input may hold. *)
let input_fact = { top with finite = true; nonnan = true }

let fact_to_string x =
  if is_empty x then "empty"
  else
    Printf.sprintf "[%g, %g]%s%s%s" x.lo x.hi
      (if x.nonzero then " nonzero" else "")
      (if x.finite then " finite" else "")
      (if x.nonnan then "" else " nan?")

(* Least upper bound of two facts: the interval hull, keeping only the
   exclusions both sides prove. *)
let join a b =
  if is_empty a then b
  else if is_empty b then a
  else
    {
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
      nonzero = a.nonzero && b.nonzero;
      finite = a.finite && b.finite;
      nonnan = a.nonnan && b.nonnan;
    }

(* ------------------------------------------------------------------ *)
(* Interval arithmetic on bounds                                       *)
(* ------------------------------------------------------------------ *)

(* Bound product with the convention 0 × ∞ = 0 (the bound is a limit of
   finite products through zero). *)
let mulb a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

(* Bound quotient; ∞/∞ contributes nothing new to min/max over the four
   corner quotients, so collapse it to 0. *)
let divb a b =
  if Float.abs a = infinity && Float.abs b = infinity then 0.0 else a /. b

let mk ?(nonzero = false) ?(nonnan = true) lo hi =
  { lo; hi; nonzero; finite = Float.is_finite lo && Float.is_finite hi; nonnan }

let contains_zero x = x.lo <= 0.0 && x.hi >= 0.0 && not x.nonzero

(* float64 exp overflows to +inf above this input. *)
let exp_overflow = 709.782712893384
(* ... and underflows to exactly 0.0 below this input. *)
let exp_underflow = -745.2

let add_v a b =
  {
    lo = a.lo +. b.lo;
    hi = a.hi +. b.hi;
    nonzero = false;
    finite = a.finite && b.finite && Float.is_finite (a.lo +. b.lo) && Float.is_finite (a.hi +. b.hi);
    nonnan = a.nonnan && b.nonnan;
  }

let neg_v a = { a with lo = -.a.hi; hi = -.a.lo }
let sub_v a b = add_v a (neg_v b)

let mul_v a b =
  let p1 = mulb a.lo b.lo and p2 = mulb a.lo b.hi in
  let p3 = mulb a.hi b.lo and p4 = mulb a.hi b.hi in
  let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
  let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
  {
    lo;
    hi;
    nonzero = a.nonzero && b.nonzero && a.finite && b.finite;
    finite = a.finite && b.finite && Float.is_finite lo && Float.is_finite hi;
    nonnan = a.nonnan && b.nonnan;
  }

(* Quotient when the denominator may contain zero collapses to top-like;
   otherwise corner quotients. *)
let div_v a b =
  if contains_zero b then { top with nonnan = false }
  else begin
    let q1 = divb a.lo b.lo and q2 = divb a.lo b.hi in
    let q3 = divb a.hi b.lo and q4 = divb a.hi b.hi in
    let lo = Float.min (Float.min q1 q2) (Float.min q3 q4) in
    let hi = Float.max (Float.max q1 q2) (Float.max q3 q4) in
    {
      lo;
      hi;
      nonzero = a.nonzero && b.finite;
      finite = a.finite && b.finite && Float.is_finite lo && Float.is_finite hi;
      nonnan = a.nonnan && b.nonnan;
    }
  end

let min_v a b =
  {
    lo = Float.min a.lo b.lo;
    hi = Float.min a.hi b.hi;
    nonzero = a.nonzero && b.nonzero;
    finite = a.finite && b.finite;
    nonnan = a.nonnan && b.nonnan;
  }

let max_v a b =
  {
    lo = Float.max a.lo b.lo;
    hi = Float.max a.hi b.hi;
    nonzero = a.nonzero && b.nonzero;
    finite = a.finite && b.finite;
    nonnan = a.nonnan && b.nonnan;
  }

let abs_v x =
  let m = Float.max (Float.abs x.lo) (Float.abs x.hi) in
  let lo = if contains_zero x then 0.0 else Float.min (Float.abs x.lo) (Float.abs x.hi) in
  { x with lo; hi = m }

let square_v x =
  let a = abs_v x in
  {
    lo = mulb a.lo a.lo;
    hi = mulb a.hi a.hi;
    nonzero = x.nonzero && x.finite;
    finite = x.finite && Float.is_finite (mulb a.hi a.hi);
    nonnan = x.nonnan;
  }

let exp_v x =
  {
    lo = (if x.lo <= exp_underflow then 0.0 else Float.exp x.lo);
    hi = Float.exp x.hi;
    (* exp of a finite value bounded away from the underflow cliff is
       strictly positive — this is what proves softmax denominators
       nonzero. *)
    nonzero = x.nonnan && x.lo > exp_underflow;
    finite = x.hi < exp_overflow;
    nonnan = x.nonnan;
  }

let log_v x =
  let lo = if x.lo <= 0.0 then neg_infinity else Float.log x.lo in
  let hi = if x.hi <= 0.0 then neg_infinity else Float.log x.hi in
  {
    lo;
    hi = Float.max lo hi;
    nonzero = false;
    finite = x.lo > 0.0 && Float.is_finite (Float.log x.lo) && x.finite;
    nonnan = x.nonnan && x.lo >= 0.0;
  }

let sqrt_v x =
  {
    lo = Float.sqrt (Float.max 0.0 x.lo);
    hi = Float.sqrt (Float.max 0.0 x.hi);
    nonzero = x.nonzero && x.lo >= 0.0;
    finite = x.finite;
    nonnan = x.nonnan && x.lo >= 0.0;
  }

let sigmoid b = 1.0 /. (1.0 +. Float.exp (-.b))

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

let unary_v (u : Primitive.unary) (x : v) : v =
  match u with
  | Primitive.Exp -> exp_v x
  | Primitive.Log -> log_v x
  | Primitive.Sqrt -> sqrt_v x
  | Primitive.Rsqrt -> div_v (mk ~nonzero:true 1.0 1.0) (sqrt_v x)
  | Primitive.Neg -> neg_v x
  | Primitive.Abs -> abs_v x
  | Primitive.Square -> square_v x
  | Primitive.Reciprocal -> div_v (mk ~nonzero:true 1.0 1.0) x
  | Primitive.Relu -> { (max_v x (mk 0.0 0.0)) with nonzero = x.nonzero && x.lo >= 0.0 }
  | Primitive.LeakyRelu a -> join (max_v x (mk 0.0 0.0)) (mul_v x (mk a a))
  | Primitive.Sigmoid ->
    (* monotone into (0,1); underflows to 0 below about -745 *)
    mk ~nonzero:(x.lo > exp_underflow && x.nonnan) ~nonnan:x.nonnan
      (Float.max 0.0 (sigmoid x.lo))
      (Float.min 1.0 (sigmoid x.hi))
  | Primitive.Silu ->
    (* x·σ(x) ≥ -0.2785, ≤ max(0, x) *)
    mk ~nonnan:x.nonnan (-0.2785) (Float.max 0.0 x.hi)
  | Primitive.Mish -> mk ~nonnan:x.nonnan (-0.3089) (Float.max 0.0 x.hi)
  | Primitive.Tanh ->
    mk ~nonnan:x.nonnan (Float.max (-1.0) (Float.tanh x.lo)) (Float.min 1.0 (Float.tanh x.hi))
  | Primitive.Erf ->
    (* monotone into [-1, 1]; sign-refined without a stdlib erf *)
    mk ~nonnan:x.nonnan
      (if x.lo >= 0.0 then 0.0 else -1.0)
      (if x.hi <= 0.0 then 0.0 else 1.0)
  | Primitive.Gelu -> mk ~nonnan:x.nonnan (-0.1700) (Float.max 0.0 x.hi)
  | Primitive.AddConst c -> add_v x (mk c c)
  | Primitive.MulConst c -> mul_v x (mk ~nonzero:(c <> 0.0) c c)
  | Primitive.PowConst c ->
    if c = 1.0 then x
    else if c = 2.0 then square_v x
    else if c = 0.5 then sqrt_v x
    else if c = -1.0 then div_v (mk ~nonzero:true 1.0 1.0) x
    else if x.lo >= 0.0 then { top with lo = 0.0; nonnan = x.nonnan }
    else { top with nonnan = false }
  | Primitive.Clip (a, b) ->
    let lo = Float.min (Float.max x.lo a) b and hi = Float.max (Float.min x.hi b) a in
    {
      lo;
      hi;
      nonzero = x.nonzero && (a > 0.0 || b < 0.0 || x.lo > 0.0 || x.hi < 0.0);
      finite = Float.is_finite lo && Float.is_finite hi;
      nonnan = x.nonnan;
    }

let binary_v (b : Primitive.binary) (x : v) (y : v) : v =
  match b with
  | Primitive.Add -> add_v x y
  | Primitive.Sub -> sub_v x y
  | Primitive.Mul -> mul_v x y
  | Primitive.Div -> div_v x y
  | Primitive.Max -> max_v x y
  | Primitive.Min -> min_v x y
  | Primitive.Pow ->
    if x.lo >= 0.0 then { top with lo = 0.0; nonnan = x.nonnan && y.nonnan }
    else { top with nonnan = false }

(* Sum of [k] values each drawn from [x]. *)
let sum_of k (x : v) : v =
  let kf = float_of_int (max 1 k) in
  let sign_definite = x.lo >= 0.0 || x.hi <= 0.0 in
  {
    lo = (if x.lo < 0.0 then mulb kf x.lo else x.lo);
    hi = (if x.hi > 0.0 then mulb kf x.hi else x.hi);
    nonzero = x.nonzero && sign_definite;
    finite = x.finite && Float.is_finite (mulb kf x.lo) && Float.is_finite (mulb kf x.hi);
    nonnan = x.nonnan;
  }

let reduce_v (agg : Primitive.agg) ~(k : int) (x : v) : v =
  match agg with
  | Primitive.Sum -> sum_of k x
  | Primitive.Mean ->
    { x with nonzero = x.nonzero && (x.lo >= 0.0 || x.hi <= 0.0) }
  | Primitive.Max | Primitive.Min -> x
  | Primitive.Prod ->
    if x.lo >= 0.0 then { top with lo = 0.0; nonnan = x.nonnan } else { top with nonnan = x.nonnan }

(* Inner-product accumulation: k products of an [x] element with a [y]
   element. *)
let dot_v ~(k : int) ?(pad = false) (x : v) (y : v) : v =
  let p = mul_v x y in
  let p = if pad then join p (mk 0.0 0.0) else p in
  sum_of k { p with nonzero = false }

let rec of_const (c : Const.t) : v =
  let point x =
    {
      lo = x;
      hi = x;
      nonzero = x <> 0.0 && not (Float.is_nan x);
      finite = Float.is_finite x;
      nonnan = not (Float.is_nan x);
    }
  in
  match c.Const.fill with
  | Const.Zeros -> point 0.0
  | Const.Ones -> point 1.0
  | Const.Value x -> point x
  | Const.Randn _ | Const.Randn_scaled _ -> input_fact
  | Const.Apply (op, args) ->
    prim_v op (List.map (fun (a : Const.t) -> a.Const.shape) args) (List.map of_const args)
  | Const.Data nd ->
    Array.fold_left (fun acc x -> join acc (point x)) bottom nd.Nd.data

(* The fact of [op] applied to inputs of these shapes and facts. *)
and prim_v (op : Primitive.t) (shapes : Shape.t list) (inputs : v list) : v =
  let shape_of_input j = List.nth shapes j in
  match (op, inputs) with
  | Primitive.Input _, _ -> input_fact
  | Primitive.Constant c, _ -> of_const c
  | Primitive.Unary u, [ x ] -> unary_v u x
  | Primitive.Binary b, [ x; y ] -> binary_v b x y
  | Primitive.Reduce (agg, ax), [ x ] ->
    let s = shape_of_input 0 in
    let k = if ax >= 0 && ax < Array.length s then s.(ax) else 1 in
    reduce_v agg ~k x
  | Primitive.Pool { agg; kernel = kh, kw; padding = ph, pw; _ }, [ x ] ->
    let padded = ph > 0 || pw > 0 in
    let r = reduce_v agg ~k:(kh * kw) x in
    (* Windows overlapping the border aggregate fewer real elements;
       Sum/Mean windows therefore approach 0 contributions. *)
    if padded && (agg = Primitive.Sum || agg = Primitive.Mean) then join r (mk 0.0 0.0)
    else r
  | (Primitive.Broadcast _ | Primitive.Upsample _), [ x ] -> x
  | (Primitive.Transpose _ | Primitive.Reshape _ | Primitive.Slice _), [ x ] -> x
  | Primitive.Pad { before; after; value }, [ x ] ->
    let pads = Array.exists (fun d -> d > 0) before || Array.exists (fun d -> d > 0) after in
    if pads then join x (mk ~nonzero:(value <> 0.0) value value) else x
  | Primitive.Concat _, xs -> List.fold_left join bottom xs
  | Primitive.Matmul, [ x; y ] ->
    let s = shape_of_input 0 in
    let k = if Array.length s = 0 then 1 else s.(Array.length s - 1) in
    dot_v ~k x y
  | Primitive.Conv { padding = ph, pw; _ }, [ x; w ] ->
    let ws = shape_of_input 1 in
    let k = if Array.length ws = 4 then ws.(1) * ws.(2) * ws.(3) else 1 in
    dot_v ~k ~pad:(ph > 0 || pw > 0) x w
  | Primitive.Opaque _, _ -> top
  | _, _ ->
    (* Arity mismatch: structurally broken graphs are Graph_check's
       business; stay sound here. *)
    top

let transfer (g : Primgraph.t) (i : int) (inputs : v list) : v =
  let nd = Graph.node g i in
  prim_v nd.Graph.op (List.map (fun j -> (Graph.node g j).Graph.shape) nd.Graph.inputs) inputs

(* ------------------------------------------------------------------ *)
(* Solving and findings                                                *)
(* ------------------------------------------------------------------ *)

(** [solve g] — the value-range fact of every node: one forward pass in
    dependency order, each node's fact computed from its inputs' final
    facts (primitive graphs are acyclic, so this is the fixpoint). *)
let solve (g : Primgraph.t) : v array =
  let facts = Array.make (Graph.length g) bottom in
  List.iter
    (fun i -> facts.(i) <- transfer g i (List.map (fun p -> facts.(p)) (Graph.inputs g i)))
    (Graph.topo_order g);
  facts

(* Hazard inspection of one node given its input facts. *)
let inspect (g : Primgraph.t) (i : int) (facts : v array) : D.report =
  let loc = D.Node i in
  let nd = Graph.node g i in
  let fact_of j = facts.(j) in
  let name = Primitive.to_string nd.Graph.op in
  let denominator_findings what d =
    if is_empty d then []
    else if d.lo = 0.0 && d.hi = 0.0 && not d.nonzero then
      [ D.error ~pass ~loc "%s: %s is always zero" name what ]
    else if d.lo < 0.0 && d.hi > 0.0 && not d.nonzero then
      [ D.warning ~pass ~loc "%s: %s range %s straddles zero" name what (fact_to_string d) ]
    else if contains_zero d then
      [ D.info ~pass ~loc "%s: %s may be zero (range %s)" name what (fact_to_string d) ]
    else []
  in
  let nonpos_findings what x =
    if is_empty x then []
    else if x.hi < 0.0 then
      [ D.error ~pass ~loc "%s of an always-negative range %s" what (fact_to_string x) ]
    else if x.lo = 0.0 && x.hi = 0.0 && not x.nonzero && what = "log" then
      [ D.error ~pass ~loc "log of a value that is always zero (-inf guaranteed)" ]
    else if x.lo < 0.0 then
      [ D.warning ~pass ~loc "%s argument may be negative (range %s)" what (fact_to_string x) ]
    else if x.lo = 0.0 && not x.nonzero && what <> "sqrt" then
      [ D.info ~pass ~loc "%s argument may be zero (range %s)" what (fact_to_string x) ]
    else []
  in
  match (nd.Graph.op, List.map fact_of nd.Graph.inputs) with
  | Primitive.Binary Primitive.Div, [ _; d ] -> denominator_findings "denominator" d
  | Primitive.Unary Primitive.Reciprocal, [ d ] -> denominator_findings "operand" d
  | Primitive.Unary Primitive.Rsqrt, [ x ] ->
    nonpos_findings "rsqrt" x @ denominator_findings "operand" x
  | Primitive.Unary Primitive.Log, [ x ] -> nonpos_findings "log" x
  | Primitive.Unary Primitive.Sqrt, [ x ] -> nonpos_findings "sqrt" x
  | Primitive.Unary Primitive.Exp, [ x ] ->
    if is_empty x then []
    else if x.lo >= exp_overflow then
      [ D.error ~pass ~loc "exp of range %s always overflows to +inf" (fact_to_string x) ]
    else if x.hi >= exp_overflow && x.lo > neg_infinity then
      [ D.warning ~pass ~loc "exp may overflow to +inf (range %s)" (fact_to_string x) ]
    else []
  | Primitive.Unary (Primitive.PowConst c), [ x ] when Float.is_integer c = false ->
    if is_empty x then []
    else if x.hi < 0.0 then
      [ D.error ~pass ~loc "pow_const(%g) of an always-negative range is NaN" c ]
    else if x.lo < 0.0 then
      [ D.warning ~pass ~loc "pow_const(%g) argument may be negative (range %s)" c
          (fact_to_string x) ]
    else []
  | Primitive.Binary Primitive.Pow, [ x; _ ] ->
    if (not (is_empty x)) && x.hi < 0.0 then
      [ D.warning ~pass ~loc
          "pow base is always negative (range %s); non-integer exponents yield NaN"
          (fact_to_string x) ]
    else []
  | _ -> []

(** [check g] — solve and report numeric hazards (see module doc for the
    severity discipline). Never raises. *)
let check (g : Primgraph.t) : D.report =
  let facts = solve g in
  let findings =
    List.concat_map (fun i -> inspect g i facts) (Graph.topo_order g)
  in
  let output_notes =
    List.filter_map
      (fun o ->
        let f = facts.(o) in
        if is_empty f || f.finite then None
        else
          Some
            (D.info ~pass ~loc:(D.Output o) "output %d may contain ±inf (range %s)" o
               (fact_to_string f)))
      (List.sort_uniq compare g.Graph.outputs)
  in
  let e, w, _ = D.count_severity findings in
  findings @ output_notes
  @ [
      D.info ~pass ~loc:D.Whole "value ranges: %d node(s) analysed, %d error(s), %d warning(s)"
        (Graph.length g) e w;
    ]
