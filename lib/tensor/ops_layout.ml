(** Layout transformation primitives (§3, third category): transpose, pad,
    slice, concat (reshape is {!Nd.reshape}). None performs
    arithmetic; each is a one-to-one (or gather/scatter) index remapping. *)

(** [transpose ?dst t perm] permutes the axes: output axis [i] reads
    input axis [perm.(i)]. *)
let transpose ?dst (t : Nd.t) (perm : int array) : Nd.t =
  let st = Shape.strides (Nd.shape t) in
  let out_shape = Shape.permute (Nd.shape t) perm in
  let out = Nd.dest ?dst out_shape in
  let x = t.Nd.data and d = out.Nd.data in
  Shape.iter1 out_shape (Array.map (fun p -> st.(p)) perm) (fun k o -> d.(k) <- x.(o));
  out

(** [pad ?dst t ~before ~after ~value] pads each dimension [i] with
    [before.(i)] leading and [after.(i)] trailing cells filled with
    [value]. *)
let pad ?dst (t : Nd.t) ~(before : int array) ~(after : int array) ~(value : float) : Nd.t =
  let s = Nd.shape t in
  let r = Shape.rank s in
  if Array.length before <> r || Array.length after <> r then
    invalid_arg "Ops_layout.pad: padding rank mismatch";
  let out = Nd.dest ?dst (Array.init r (fun i -> s.(i) + before.(i) + after.(i))) in
  let x = t.Nd.data and d = out.Nd.data in
  Array.fill d 0 (Array.length d) value;
  Shape.iter1 ~base:(Shape.ravel (Nd.shape out) before) s (Shape.strides (Nd.shape out))
    (fun k o -> d.(o) <- x.(k));
  out

(** [slice ?dst t ~starts ~stops] extracts the half-open box
    [[starts.(i), stops.(i))] along every dimension. *)
let slice ?dst (t : Nd.t) ~(starts : int array) ~(stops : int array) : Nd.t =
  let s = Nd.shape t in
  let r = Shape.rank s in
  if Array.length starts <> r || Array.length stops <> r then
    invalid_arg "Ops_layout.slice: bounds rank mismatch";
  Array.iteri
    (fun i st ->
      if st < 0 || stops.(i) > s.(i) || st > stops.(i) then
        invalid_arg "Ops_layout.slice: bounds out of range")
    starts;
  let out_shape = Array.init r (fun i -> stops.(i) - starts.(i)) in
  let out = Nd.dest ?dst out_shape in
  let x = t.Nd.data and d = out.Nd.data in
  Shape.iter1 ~base:(Shape.ravel s starts) out_shape (Shape.strides s) (fun k o -> d.(k) <- x.(o));
  out

(** [concat ?dst ts ~axis] concatenates tensors along [axis]; all other
    dimensions must agree. *)
let concat ?dst (ts : Nd.t list) ~(axis : int) : Nd.t =
  match ts with
  | [] -> invalid_arg "Ops_layout.concat: empty list"
  | first :: _ ->
    let s0 = Nd.shape first in
    let r = Shape.rank s0 in
    if axis < 0 || axis >= r then invalid_arg "Ops_layout.concat: axis out of range";
    let total =
      List.fold_left
        (fun acc t ->
          let s = Nd.shape t in
          if Shape.rank s <> r then invalid_arg "Ops_layout.concat: rank mismatch";
          Array.iteri
            (fun i d -> if i <> axis && d <> s0.(i) then
                invalid_arg "Ops_layout.concat: shape mismatch off-axis")
            s;
          acc + s.(axis))
        0 ts
    in
    let out = Nd.dest ?dst (Shape.set_axis s0 axis total) in
    let d = out.Nd.data in
    let ost = Shape.strides (Nd.shape out) in
    let pos = ref 0 in
    List.iter
      (fun (t : Nd.t) ->
        let x = t.Nd.data in
        Shape.iter1 ~base:(!pos * ost.(axis)) (Nd.shape t) ost (fun k o -> d.(o) <- x.(k));
        pos := !pos + (Nd.shape t).(axis))
      ts;
    out
