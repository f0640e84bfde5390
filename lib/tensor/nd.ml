(** Contiguous n-dimensional float tensors.

    This is the execution substrate standing in for GPU device memory: a
    dense row-major [float array] plus a {!Shape.t}. All operator and
    primitive semantics in the repository are defined against this module,
    which lets the test suite verify that operator fission, primitive-graph
    transformations and kernel orchestration all preserve program
    semantics. *)

type t = { shape : Shape.t; data : float array }

(** [create shape f] builds a tensor whose element at linear position [k]
    is [f k]. *)
let create (shape : Shape.t) (f : int -> float) : t =
  Shape.validate shape;
  { shape; data = Array.init (Shape.numel shape) f }

(** [full shape v] is a tensor filled with the constant [v]. *)
let full (shape : Shape.t) (v : float) : t =
  Shape.validate shape;
  { shape; data = Array.make (Shape.numel shape) v }

(** [zeros shape] is [full shape 0.]. *)
let zeros shape = full shape 0.0

(** [ones shape] is [full shape 1.]. *)
let ones shape = full shape 1.0

(** [scalar v] is a rank-0 tensor holding [v]. *)
let scalar v = { shape = [||]; data = [| v |] }

(** [of_array shape data] wraps an existing flat array; the array length
    must equal [Shape.numel shape]. *)
let of_array (shape : Shape.t) (data : float array) : t =
  if Array.length data <> Shape.numel shape then
    invalid_arg "Nd.of_array: data length does not match shape";
  { shape; data }

(** [shape t] is the tensor's shape. *)
let shape (t : t) = t.shape

(** [numel t] is the number of elements. *)
let numel (t : t) = Array.length t.data

(** [get t idx] reads the element at multi-index [idx]. *)
let get (t : t) (idx : int array) = t.data.(Shape.ravel t.shape idx)

(** [set t idx v] writes the element at multi-index [idx]. *)
let set (t : t) (idx : int array) v = t.data.(Shape.ravel t.shape idx) <- v

(** [get_linear t k] reads the [k]-th element in row-major order. *)
let get_linear (t : t) k = t.data.(k)

(** [to_scalar t] extracts the value of a single-element tensor. *)
let to_scalar (t : t) =
  if numel t <> 1 then invalid_arg "Nd.to_scalar: tensor has more than one element";
  t.data.(0)

(** [copy t] is a deep copy. *)
let copy (t : t) = { shape = Array.copy t.shape; data = Array.copy t.data }

(** [rand rng shape] fills a tensor with uniform samples in [[-1, 1)]. *)
let rand (rng : Rng.t) (shape : Shape.t) : t =
  create shape (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

(** [randn rng shape] fills a tensor with standard normal samples. *)
let randn (rng : Rng.t) (shape : Shape.t) : t = create shape (fun _ -> Rng.normal rng)

(** [dest ?dst shape] is the tensor an operation writes its result of
    [shape] into, for the operations that take a [?dst]: given, [dst]
    becomes the result's storage (its length must be the element count);
    omitted, fresh storage is allocated. Either way the contents are unspecified
    until the operation writes them, so an operation that accumulates
    zero-fills first. *)
let dest ?dst (shape : Shape.t) : t =
  Shape.validate shape;
  let n = Shape.numel shape in
  match dst with
  | None -> { shape; data = Array.create_float n }
  | Some d ->
    if Array.length d <> n then
      invalid_arg
        (Printf.sprintf "Nd.dest: %d-element destination for shape %s" (Array.length d)
           (Shape.to_string shape));
    { shape; data = d }

(** [reshape ?dst t shape'] reinterprets the data with a new shape of
    equal element count and no negative dimension. O(1) data
    sharing is deliberately avoided: a copy keeps the value-semantics
    simple. *)
let reshape ?dst (t : t) (shape' : Shape.t) : t =
  if Shape.numel shape' <> numel t || Array.exists (fun d -> d < 0) shape' then
    invalid_arg
      (Printf.sprintf "Nd.reshape: %s -> %s: not a shape of %d elements"
         (Shape.to_string t.shape) (Shape.to_string shape') (numel t));
  let out = dest ?dst [| numel t |] in
  Array.blit t.data 0 out.data 0 (numel t);
  { out with shape = shape' }

(** [equal ?eps a b] is true when shapes match and all elements differ by at
    most [eps] (default [1e-9]) in absolute value, treating NaNs as equal to
    NaNs. *)
let equal ?(eps = 1e-9) (a : t) (b : t) =
  Shape.equal a.shape b.shape
  && Array.for_all2
       (fun x y -> (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= eps)
       a.data b.data

(** [max_abs_diff a b] is the largest elementwise absolute difference;
    raises when shapes differ. *)
let max_abs_diff (a : t) (b : t) =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Nd.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i)))) a.data;
  !m

(** [allclose ?rtol ?atol a b] is numpy-style approximate equality:
    [|a - b| <= atol + rtol * |b|] elementwise. *)
let allclose ?(rtol = 1e-6) ?(atol = 1e-8) (a : t) (b : t) =
  Shape.equal a.shape b.shape
  && Array.for_all2
       (fun x y ->
         (Float.is_nan x && Float.is_nan y)
         || Float.abs (x -. y) <= atol +. (rtol *. Float.abs y))
       a.data b.data

(** [pp ppf t] prints shape and a bounded prefix of the data. *)
let pp ppf (t : t) =
  let n = min 8 (numel t) in
  Format.fprintf ppf "%s{" (Shape.to_string t.shape);
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf ppf ", ";
    Format.fprintf ppf "%g" t.data.(i)
  done;
  if numel t > n then Format.fprintf ppf ", ...";
  Format.fprintf ppf "}"

let to_string (t : t) = Format.asprintf "%a" pp t
