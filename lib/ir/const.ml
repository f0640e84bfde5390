(** Constant tensor specifications.

    Model weights and transformation-introduced constants (e.g. the
    all-ones vector that turns ReduceSum into a MatMul, §3/Figure 2) are
    described symbolically so that cost-model-only pipelines never allocate
    paper-scale tensors; the executor materializes them on demand.

    Constant folding inside the transformation search leaves its results
    as [Folded] references into a table owned by that search; they are
    evaluated once, for the graph the search returns, and every graph
    outside it carries [Data] instead. *)

open Tensor

type fill =
  | Zeros
  | Ones
  | Value of float
  | Randn of int  (** deterministic normal data from the given seed *)
  | Randn_scaled of int * float
      (** deterministic normal data scaled by a factor (e.g. 1/sqrt fan-in) *)
  | Data of Nd.t  (** explicit payload *)
  | Folded of int
      (** entry [i] of one constant-folding table ({!Transform.Constfold}),
          not yet evaluated *)

type t = { shape : Shape.t; fill : fill }

let zeros shape = { shape; fill = Zeros }
let ones shape = { shape; fill = Ones }
let value shape v = { shape; fill = Value v }
let randn shape seed = { shape; fill = Randn seed }
let randn_scaled shape seed scale = { shape; fill = Randn_scaled (seed, scale) }
let of_nd (nd : Nd.t) = { shape = Nd.shape nd; fill = Data nd }

(** [materialize c] produces the concrete tensor. *)
let materialize (c : t) : Nd.t =
  match c.fill with
  | Zeros -> Nd.zeros c.shape
  | Ones -> Nd.ones c.shape
  | Value v -> Nd.full c.shape v
  | Randn seed -> Nd.randn (Rng.create seed) c.shape
  | Randn_scaled (seed, scale) ->
    let rng = Rng.create seed in
    Nd.create c.shape (fun _ -> scale *. Rng.normal rng)
  | Data nd -> nd
  | Folded i -> invalid_arg (Printf.sprintf "Const.materialize: unresolved fold #%d" i)

let equal (a : t) (b : t) =
  Shape.equal a.shape b.shape
  &&
  match (a.fill, b.fill) with
  | Zeros, Zeros | Ones, Ones -> true
  | Value x, Value y -> x = y
  | Randn x, Randn y -> x = y
  | Randn_scaled (x, s), Randn_scaled (y, t) -> x = y && s = t
  | Data x, Data y -> Nd.equal x y
  | Folded x, Folded y -> x = y
  | _ -> false

let to_string (c : t) =
  let fill =
    match c.fill with
    | Zeros -> "zeros"
    | Ones -> "ones"
    | Value v -> Printf.sprintf "%g" v
    | Randn s -> Printf.sprintf "randn#%d" s
    | Randn_scaled (s, f) -> Printf.sprintf "randn#%d*%g" s f
    | Data _ | Folded _ -> "data"
  in
  Printf.sprintf "const%s(%s)" (Shape.to_string c.shape) fill
