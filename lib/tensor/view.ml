(** Strided views over {!Nd} tensors.

    A view is a shape, a stride vector and an offset into another tensor's
    storage: transpose, slice and (contiguity-preserving) reshape become
    O(1) index remappings instead of dense copies — the same zero-copy
    layout algebra GPU kernels use to absorb layout primitives into their
    addressing math. {!to_nd} materializes a view back into a dense
    row-major tensor; the property tests check every view operation against
    the corresponding {!Ops_layout} dense copy. *)

type t = {
  base : Nd.t;  (** underlying storage (never copied) *)
  shape : Shape.t;
  strides : int array;  (** per-axis element strides into [base] *)
  offset : int;  (** linear offset of element [0, ..., 0] *)
}

(** [of_nd t] — the identity view: row-major strides, offset 0. *)
let of_nd (t : Nd.t) : t =
  { base = t; shape = Nd.shape t; strides = Shape.strides (Nd.shape t); offset = 0 }

let shape (v : t) = v.shape
let numel (v : t) = Shape.numel v.shape

(** [get v idx] reads the element at multi-index [idx] through the view's
    stride arithmetic. Raises [Invalid_argument] out of bounds. *)
let get (v : t) (idx : int array) : float =
  let r = Shape.rank v.shape in
  if Array.length idx <> r then invalid_arg "View.get: index rank mismatch";
  let off = ref v.offset in
  for i = 0 to r - 1 do
    if idx.(i) < 0 || idx.(i) >= v.shape.(i) then invalid_arg "View.get: index out of bounds";
    off := !off + (idx.(i) * v.strides.(i))
  done;
  Nd.get_linear v.base !off

(** [get_linear v k] reads the [k]-th element in the view's row-major
    order. Raises [Invalid_argument] out of bounds. *)
let get_linear (v : t) (k : int) : float =
  if k < 0 || k >= numel v then invalid_arg "View.get_linear: index out of bounds";
  let off = ref v.offset and rem = ref k in
  for i = Shape.rank v.shape - 1 downto 0 do
    let d = v.shape.(i) in
    off := !off + (!rem mod d * v.strides.(i));
    rem := !rem / d
  done;
  Nd.get_linear v.base !off

(** [transpose v perm] permutes the axes without touching storage: output
    axis [i] reads input axis [perm.(i)]. *)
let transpose (v : t) (perm : int array) : t =
  let shape = Shape.permute v.shape perm in
  let strides = Array.map (fun p -> v.strides.(p)) perm in
  { v with shape; strides }

(** [slice v ~starts ~stops] restricts every axis [i] to the half-open
    range [[starts.(i), stops.(i))] — an offset shift, no copy. *)
let slice (v : t) ~(starts : int array) ~(stops : int array) : t =
  let r = Shape.rank v.shape in
  if Array.length starts <> r || Array.length stops <> r then
    invalid_arg "View.slice: bounds rank mismatch";
  Array.iteri
    (fun i st ->
      if st < 0 || stops.(i) > v.shape.(i) || st > stops.(i) then
        invalid_arg "View.slice: bounds out of range")
    starts;
  let offset =
    Array.fold_left ( + ) v.offset (Array.mapi (fun i st -> st * v.strides.(i)) starts)
  in
  let shape = Array.init r (fun i -> stops.(i) - starts.(i)) in
  { v with shape; offset }

(** [is_contiguous v] — the view enumerates its elements in the same order
    a dense row-major tensor of its shape would (so reshape is free). *)
let is_contiguous (v : t) : bool =
  let expected = Shape.strides v.shape in
  let ok = ref true in
  Array.iteri
    (fun i st -> if v.shape.(i) > 1 && st <> expected.(i) then ok := false)
    v.strides;
  !ok

(** [to_nd ?dst v] materializes the view as a dense row-major tensor. *)
let to_nd ?dst (v : t) : Nd.t =
  let out = Nd.dest ?dst v.shape in
  let x = v.base.Nd.data and d = out.Nd.data in
  Shape.iter1 ~base:v.offset v.shape v.strides (fun k o -> d.(k) <- x.(o));
  out

(** [reshape v shape'] reinterprets the element sequence with a new shape
    of equal count: O(1) when [v] is contiguous, otherwise the view is
    materialized first. *)
let reshape (v : t) (shape' : Shape.t) : t =
  if Shape.numel shape' <> numel v then
    invalid_arg
      (Printf.sprintf "View.reshape: %s -> %s changes element count"
         (Shape.to_string v.shape) (Shape.to_string shape'));
  if is_contiguous v then
    { v with shape = shape'; strides = Shape.strides shape' }
  else of_nd (Nd.reshape (to_nd v) shape')
