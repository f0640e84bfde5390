(** Tensor shapes and index arithmetic.

    A shape is an [int array] of non-negative dimension sizes, row-major.
    The empty array denotes a scalar. *)

type t = int array

(** [numel s] is the total number of elements of a tensor of shape [s]. *)
let numel (s : t) = Array.fold_left ( * ) 1 s

(** [rank s] is the number of dimensions. *)
let rank (s : t) = Array.length s

(** [equal a b] is structural equality of shapes. *)
let equal (a : t) (b : t) = a = b

(** [to_string s] renders a shape as ["[2x3x4]"]. *)
let to_string (s : t) =
  "[" ^ String.concat "x" (Array.to_list (Array.map string_of_int s)) ^ "]"

(** [strides s] are the row-major strides of a contiguous tensor of shape
    [s]: the last dimension has stride 1. *)
let strides (s : t) : int array =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

(** [ravel s idx] converts a multi-dimensional index [idx] into a linear
    offset for a contiguous tensor of shape [s]. *)
let ravel (s : t) (idx : int array) =
  let st = strides s in
  let off = ref 0 in
  for i = 0 to rank s - 1 do
    off := !off + (idx.(i) * st.(i))
  done;
  !off

(** [unravel s k] is the inverse of {!ravel}: the multi-dimensional index of
    the [k]-th element in row-major order. *)
let unravel (s : t) (k : int) : int array =
  let n = rank s in
  let idx = Array.make n 0 in
  let rem = ref k in
  let st = strides s in
  for i = 0 to n - 1 do
    idx.(i) <- !rem / st.(i);
    rem := !rem mod st.(i)
  done;
  idx

(* ---------------- strided walks ---------------- *)

(* The odometer under {!iter1} .. {!iter3}. Visits the innermost rows of
   [shape] in row-major order and calls [row k] at the start of each (at
   row-major position [k]) with [offs.(j)] set to operand [j]'s offset
   there: its initial value plus [strides.(j).(i)] times the index on
   every axis [i]. A scalar is one row of one element. *)
let rows (shape : t) (strides : int array array) (offs : int array) (row : int -> unit) =
  let r = rank shape in
  let n = numel shape in
  let inner = if r = 0 then 1 else shape.(r - 1) in
  let idx = Array.make (max 0 (r - 1)) 0 in
  let m = Array.length strides in
  let k = ref 0 in
  while !k < n do
    row !k;
    k := !k + inner;
    let ax = ref (r - 2) in
    while !ax >= 0 do
      let i = !ax in
      idx.(i) <- idx.(i) + 1;
      if idx.(i) < shape.(i) then begin
        for j = 0 to m - 1 do
          offs.(j) <- offs.(j) + strides.(j).(i)
        done;
        ax := -1
      end
      else begin
        idx.(i) <- 0;
        for j = 0 to m - 1 do
          offs.(j) <- offs.(j) - ((shape.(i) - 1) * strides.(j).(i))
        done;
        decr ax
      end
    done
  done

(* The length of [shape]'s innermost rows and [s]'s stride along them. *)
let inner (shape : t) (s : int array) =
  let r = rank shape in
  if r = 0 then (1, 0) else (shape.(r - 1), s.(r - 1))

(** [iter1 ?base shape s f] calls [f k o] for every element of [shape] in
    row-major order, [k] being its row-major position and [o] the offset
    [base + sum_i idx.(i) * s.(i)] (default [base] 0) of one strided
    operand. No allocation per element. *)
let iter1 ?(base = 0) (shape : t) (s : int array) (f : int -> int -> unit) =
  let len, d = inner shape s in
  let offs = [| base |] in
  rows shape [| s |] offs (fun k ->
      let o = offs.(0) in
      for j = 0 to len - 1 do
        f (k + j) (o + (j * d))
      done)

(** [iter2 shape sa sb f] is {!iter1} over two operands with offsets
    starting at 0: [f k oa ob]. *)
let iter2 (shape : t) (sa : int array) (sb : int array) (f : int -> int -> int -> unit) =
  let len, da = inner shape sa and _, db = inner shape sb in
  let offs = [| 0; 0 |] in
  rows shape [| sa; sb |] offs (fun k ->
      let oa = offs.(0) and ob = offs.(1) in
      for j = 0 to len - 1 do
        f (k + j) (oa + (j * da)) (ob + (j * db))
      done)

(** [iter3 shape sa sb sc f] is {!iter2} over three operands. *)
let iter3 (shape : t) (sa : int array) (sb : int array) (sc : int array)
    (f : int -> int -> int -> int -> unit) =
  let len, da = inner shape sa and _, db = inner shape sb and _, dc = inner shape sc in
  let offs = [| 0; 0; 0 |] in
  rows shape [| sa; sb; sc |] offs (fun k ->
      let oa = offs.(0) and ob = offs.(1) and oc = offs.(2) in
      for j = 0 to len - 1 do
        f (k + j) (oa + (j * da)) (ob + (j * db)) (oc + (j * dc))
      done)

(** [validate s] raises [Invalid_argument] if any dimension is negative. *)
let validate (s : t) =
  Array.iter (fun d -> if d < 0 then invalid_arg "Shape.validate: negative dimension") s

(** [broadcast a b] is the numpy-style broadcast of two shapes. Dimensions
    are aligned from the trailing end; a dimension of size 1 stretches to
    match the other operand. Raises [Invalid_argument] when incompatible. *)
let broadcast (a : t) (b : t) : t =
  let ra = rank a and rb = rank b in
  let r = max ra rb in
  let out = Array.make r 0 in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra)) in
    let db = if i < r - rb then 1 else b.(i - (r - rb)) in
    if da = db then out.(i) <- da
    else if da = 1 then out.(i) <- db
    else if db = 1 then out.(i) <- da
    else
      invalid_arg
        (Printf.sprintf "Shape.broadcast: incompatible %s and %s" (to_string a) (to_string b))
  done;
  out

(** [broadcast_strides ~out s] are the strides that read an operand of
    shape [s], right-aligned against the broadcast shape [out], along
    [out]'s axes: its row-major strides, and 0 on every axis it lacks or
    stretches from size 1. *)
let broadcast_strides ~(out : t) (s : t) : int array =
  let ro = rank out and rs = rank s in
  let st = strides s in
  Array.init ro (fun i ->
      let j = i - (ro - rs) in
      if j < 0 || s.(j) = 1 then 0 else st.(j))

(** [drop_axis s k] removes dimension [k]. *)
let drop_axis (s : t) (k : int) : t =
  if k < 0 || k >= rank s then invalid_arg "Shape.drop_axis: axis out of range";
  Array.init (rank s - 1) (fun i -> if i < k then s.(i) else s.(i + 1))

(** [insert_axis s k d] inserts a dimension of size [d] at position [k]. *)
let insert_axis (s : t) (k : int) (d : int) : t =
  if k < 0 || k > rank s then invalid_arg "Shape.insert_axis: axis out of range";
  Array.init (rank s + 1) (fun i -> if i < k then s.(i) else if i = k then d else s.(i - 1))

(** [set_axis s k d] replaces the size of dimension [k] with [d]. *)
let set_axis (s : t) (k : int) (d : int) : t =
  let s' = Array.copy s in
  s'.(k) <- d;
  s'

(** [permute s perm] applies a permutation to the axes: output dimension [i]
    has size [s.(perm.(i))]. *)
let permute (s : t) (perm : int array) : t =
  if Array.length perm <> rank s then invalid_arg "Shape.permute: rank mismatch";
  let seen = Array.make (rank s) false in
  Array.iter
    (fun p ->
      if p < 0 || p >= rank s || seen.(p) then invalid_arg "Shape.permute: not a permutation";
      seen.(p) <- true)
    perm;
  Array.map (fun p -> s.(p)) perm
