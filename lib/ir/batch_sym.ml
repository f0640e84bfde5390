(** Symbolic leading-batch dimension.

    Every tensor dimension of a batch-parametric model is affine in the
    batch: [dim(b) = coeff * b + const] with non-negative integer
    coefficients — batch-carrying axes have [coeff > 0], structural axes
    (channels, heads, kernel sizes) have [coeff = 0]. Rather than
    re-implement shape inference symbolically, this module {e fits} the
    affine forms from the node shapes of two concrete instantiations of
    the same graph at different batches ({!fit_shapes}) and evaluates the
    fitted shapes at any other batch ({!shape_at}, {!shapes_at}) — what
    the cost model needs to re-price a kernel.

    A fit fails ([Error]) whenever the two instantiations differ
    non-affinely (different node count, a dimension that scales
    super-linearly): callers then re-orchestrate at that batch, so the
    symbolic layer is never load-bearing for correctness. *)

open Tensor

(** One dimension as an affine function of the batch:
    [value at batch b = (coeff * b) + const]. *)
type dim = { coeff : int; const : int }

(** A shape whose every dimension is affine in the batch. *)
type shape = dim array

let eval_dim (d : dim) (b : int) : int = (d.coeff * b) + d.const

let shape_at (s : shape) (b : int) : Shape.t = Array.map (fun d -> eval_dim d b) s

let shapes_at (ss : shape array) (b : int) : Shape.t array =
  Array.map (fun s -> shape_at s b) ss

(** [fit_dim ~b1 ~v1 ~b2 ~v2] — the unique affine form through both
    points, if it has a non-negative integer coefficient and a
    non-negative constant. [b1 <> b2] required. *)
let fit_dim ~(b1 : int) ~(v1 : int) ~(b2 : int) ~(v2 : int) : dim option =
  if b1 = b2 then invalid_arg "Batch_sym.fit_dim: b1 = b2";
  if v1 = v2 then Some { coeff = 0; const = v1 }
  else
    let dv = v2 - v1 and db = b2 - b1 in
    if dv mod db <> 0 then None
    else
      let coeff = dv / db in
      let const = v1 - (coeff * b1) in
      if coeff < 0 || const < 0 then None else Some { coeff; const }

let fit_shape ~(b1 : int) (s1 : Shape.t) ~(b2 : int) (s2 : Shape.t) : shape option =
  if Array.length s1 <> Array.length s2 then None
  else
    let out = Array.make (Array.length s1) { coeff = 0; const = 0 } in
    let ok = ref true in
    Array.iteri
      (fun i v1 ->
        match fit_dim ~b1 ~v1 ~b2 ~v2:s2.(i) with
        | Some d -> out.(i) <- d
        | None -> ok := false)
      s1;
    if !ok then Some out else None

(** [fit_shapes ~b1 shapes1 ~b2 shapes2] — fit every node shape of two
    same-topology graph instantiations. *)
let fit_shapes ~(b1 : int) (ss1 : Shape.t array) ~(b2 : int) (ss2 : Shape.t array) :
    (shape array, string) result =
  if Array.length ss1 <> Array.length ss2 then
    Error
      (Printf.sprintf "node count differs between batches (%d vs %d)" (Array.length ss1)
         (Array.length ss2))
  else begin
    let out = Array.make (Array.length ss1) [||] in
    let err = ref None in
    Array.iteri
      (fun i s1 ->
        if !err = None then
          match fit_shape ~b1 s1 ~b2 ss2.(i) with
          | Some s -> out.(i) <- s
          | None ->
            err :=
              Some
                (Printf.sprintf "node %d: %s at batch %d vs %s at batch %d is not affine" i
                   (Shape.to_string s1) b1 (Shape.to_string ss2.(i)) b2))
      ss1;
    match !err with Some m -> Error m | None -> Ok out
  end
