(** Constant tensor specifications (see the interface). *)

open Tensor

type fill = Primitive.fill =
  | Zeros
  | Ones
  | Value of float
  | Randn of int
  | Randn_scaled of int * float
  | Data of Nd.t
  | Apply of Primitive.t * t list

and t = Primitive.const = { shape : Shape.t; fill : fill }

let zeros shape = { shape; fill = Zeros }
let ones shape = { shape; fill = Ones }
let value shape v = { shape; fill = Value v }
let randn shape seed = { shape; fill = Randn seed }
let randn_scaled shape seed scale = { shape; fill = Randn_scaled (seed, scale) }
let of_nd (nd : Nd.t) = { shape = Nd.shape nd; fill = Data nd }
let apply shape op args = { shape; fill = Apply (op, args) }

let rec equal (a : t) (b : t) =
  Shape.equal a.shape b.shape
  &&
  match (a.fill, b.fill) with
  | Zeros, Zeros | Ones, Ones -> true
  | Value x, Value y -> x = y
  | Randn x, Randn y -> x = y
  | Randn_scaled (x, s), Randn_scaled (y, t) -> x = y && s = t
  | Data x, Data y -> Nd.equal x y
  | Apply (p, xs), Apply (q, ys) -> p = q && List.equal equal xs ys
  | _ -> false

let to_string = Primitive.const_to_string
