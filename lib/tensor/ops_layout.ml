(** Layout transformation primitives (§3, third category): transpose, pad,
    slice, concat (reshape is {!Nd.reshape}). None performs arithmetic:
    each walks the index map {!View} spells for it, a gather for the
    source maps (transpose, slice) and a scatter for the destination maps
    (pad, concat). *)

(** [transpose ?dst t perm] permutes the axes: output axis [i] reads
    input axis [perm.(i)]. *)
let transpose ?dst (t : Nd.t) (perm : int array) : Nd.t =
  View.gather ?dst (View.transpose (View.dense (Nd.shape t)) perm) t

(** [pad ?dst t ~before ~after ~value] pads each dimension [i] with
    [before.(i)] leading and [after.(i)] trailing cells filled with
    [value]. *)
let pad ?dst (t : Nd.t) ~(before : int array) ~(after : int array) ~(value : float) : Nd.t =
  let shape, v = View.pad (Nd.shape t) ~before ~after in
  let out = Nd.dest ?dst shape in
  Array.fill out.Nd.data 0 (Array.length out.Nd.data) value;
  View.scatter v t ~into:out;
  out

(** [slice ?dst t ~starts ~stops] extracts the half-open box
    [[starts.(i), stops.(i))] along every dimension. *)
let slice ?dst (t : Nd.t) ~(starts : int array) ~(stops : int array) : Nd.t =
  View.gather ?dst (View.slice (View.dense (Nd.shape t)) ~starts ~stops) t

(** [concat ?dst ts ~axis] concatenates tensors along [axis]; all other
    dimensions must agree. *)
let concat ?dst (ts : Nd.t list) ~(axis : int) : Nd.t =
  let shape, views = View.concat (List.map Nd.shape ts) ~axis in
  let out = Nd.dest ?dst shape in
  List.iter2 (fun v t -> View.scatter v t ~into:out) views ts;
  out
