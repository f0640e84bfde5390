(** Layout maps: the index algebra of the layout primitives.

    A view is a shape, a stride vector and an offset, and holds no storage:
    element [idx] of the view sits at [offset + sum_i idx.(i) * strides.(i)]
    of whatever flat buffer it is applied to. Transpose, slice and
    broadcast are source maps (where a dense output reads its input); pad
    and concat are destination maps (where a dense input lands in the
    output). This module is the one place these maps are spelled: the
    interpreter ({!Ops_layout}, {!Ops_reduce.broadcast_axis}) walks them
    with {!gather} and {!scatter}, and the C emitter prints the same
    views as loop nests. *)

type t = {
  shape : Shape.t;
  strides : int array;  (** per-axis element strides into the buffer *)
  offset : int;  (** linear offset of element [0, ..., 0] *)
}

(** [dense s] — the identity map of a row-major tensor of shape [s]. *)
let dense (s : Shape.t) : t = { shape = s; strides = Shape.strides s; offset = 0 }

(** [transpose v perm] permutes the axes: output axis [i] reads axis
    [perm.(i)] of [v]. *)
let transpose (v : t) (perm : int array) : t =
  { v with shape = Shape.permute v.shape perm; strides = Array.map (fun p -> v.strides.(p)) perm }

(** [slice v ~starts ~stops] restricts every axis [i] to the half-open
    range [[starts.(i), stops.(i))]: an offset shift. *)
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
  { v with shape = Array.init r (fun i -> stops.(i) - starts.(i)); offset }

(** [broadcast_axis v ~axis ~size] inserts axis [axis] of size [size]
    with stride 0, so every position along it reads the same element. *)
let broadcast_axis (v : t) ~(axis : int) ~(size : int) : t =
  { v with shape = Shape.insert_axis v.shape axis size; strides = Shape.insert_axis v.strides axis 0 }

(** [pad s ~before ~after] is the shape of [s] padded with [before.(i)]
    leading and [after.(i)] trailing cells on every axis [i], and the view
    of that output where the input lands. *)
let pad (s : Shape.t) ~(before : int array) ~(after : int array) : Shape.t * t =
  let r = Shape.rank s in
  if Array.length before <> r || Array.length after <> r then
    invalid_arg "View.pad: padding rank mismatch";
  let out = Array.init r (fun i -> s.(i) + before.(i) + after.(i)) in
  (out, slice (dense out) ~starts:before ~stops:(Array.mapi (fun i b -> b + s.(i)) before))

(** [concat shapes ~axis] is the shape of [shapes] joined along [axis]
    (every other dimension must agree), and each part's view of it. *)
let concat (shapes : Shape.t list) ~(axis : int) : Shape.t * t list =
  match shapes with
  | [] -> invalid_arg "View.concat: empty list"
  | s0 :: _ ->
    let r = Shape.rank s0 in
    if axis < 0 || axis >= r then invalid_arg "View.concat: axis out of range";
    let total =
      List.fold_left
        (fun acc s ->
          if Shape.rank s <> r then invalid_arg "View.concat: rank mismatch";
          Array.iteri
            (fun i d ->
              if i <> axis && d <> s0.(i) then invalid_arg "View.concat: shape mismatch off-axis")
            s;
          acc + s.(axis))
        0 shapes
    in
    let out = Shape.set_axis s0 axis total in
    let st = Shape.strides out in
    let part pos s = (pos + s.(axis), { shape = s; strides = st; offset = pos * st.(axis) }) in
    (out, snd (List.fold_left_map part 0 shapes))

(** [gather ?dst v x] is the dense tensor of shape [v.shape] whose
    element [k] (row-major) is what [v] maps it to in [x]'s storage. *)
let gather ?dst (v : t) (x : Nd.t) : Nd.t =
  let out = Nd.dest ?dst v.shape in
  let src = x.Nd.data and d = out.Nd.data in
  Shape.iter1 ~base:v.offset v.shape v.strides (fun k o -> d.(k) <- src.(o));
  out

(** [scatter v x ~into] writes the dense tensor [x] of shape [v.shape]
    to the positions [v] maps its elements to in [into]'s storage. *)
let scatter (v : t) (x : Nd.t) ~(into : Nd.t) : unit =
  let src = x.Nd.data and d = into.Nd.data in
  Shape.iter1 ~base:v.offset v.shape v.strides (fun k o -> d.(o) <- src.(k))
