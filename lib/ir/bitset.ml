(** Fixed-capacity bitsets over node ids.

    Execution states (Definition 2) and convex subgraphs (Definition 1) are
    node sets; the kernel identifier manipulates thousands of them, so a
    compact immutable representation with fast hash/compare matters. *)

type t = { width : int; words : int array }

let words_for width = (width + 62) / 63

(** [empty width] is the empty set over a universe of [width] nodes. *)
let empty width = { width; words = Array.make (words_for width) 0 }

let check_bounds t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of bounds"

(** [mem t i] tests membership. *)
let mem t i =
  check_bounds t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

(** [add t i] is [t] with [i] inserted (persistent). *)
let add t i =
  check_bounds t i;
  let words = Array.copy t.words in
  words.(i / 63) <- words.(i / 63) lor (1 lsl (i mod 63));
  { t with words }

(** [remove t i] is [t] without [i] (persistent). *)
let remove t i =
  check_bounds t i;
  let words = Array.copy t.words in
  words.(i / 63) <- words.(i / 63) land lnot (1 lsl (i mod 63));
  { t with words }

(* The set operations below are plain loops over the words: no closure,
   no [Array.init], no polymorphic compare. Equal widths mean equal word
   counts, so the unchecked accesses stay in bounds. *)
let same_width a b = if a.width <> b.width then invalid_arg "Bitset: width mismatch"

let union a b =
  same_width a b;
  let n = Array.length a.words in
  let words = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set words i (Array.unsafe_get a.words i lor Array.unsafe_get b.words i)
  done;
  { width = a.width; words }

let inter a b =
  same_width a b;
  let n = Array.length a.words in
  let words = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set words i (Array.unsafe_get a.words i land Array.unsafe_get b.words i)
  done;
  { width = a.width; words }

(** [diff a b] is set difference [a \ b]. *)
let diff a b =
  same_width a b;
  let n = Array.length a.words in
  let words = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set words i (Array.unsafe_get a.words i land lnot (Array.unsafe_get b.words i))
  done;
  { width = a.width; words }

(* Top-level, so the early-exit scans allocate no closure. *)
let rec equal_from (x : int array) (y : int array) i =
  i < 0 || (Int.equal (Array.unsafe_get x i) (Array.unsafe_get y i) && equal_from x y (i - 1))

let rec subset_from (x : int array) (y : int array) i =
  i < 0 || (Array.unsafe_get x i land lnot (Array.unsafe_get y i) = 0 && subset_from x y (i - 1))

let equal a b = a.width = b.width && equal_from a.words b.words (Array.length a.words - 1)

(** [subset a b] tests [a ⊆ b]. *)
let subset a b = a.width = b.width && subset_from a.words b.words (Array.length a.words - 1)

let rec zero_from (x : int array) i = i < 0 || (Array.unsafe_get x i = 0 && zero_from x (i - 1))

(** [is_empty t] tests emptiness. *)
let is_empty t = zero_from t.words (Array.length t.words - 1)

let rec popcount_word w acc = if w = 0 then acc else popcount_word (w land (w - 1)) (acc + 1)

(** [cardinal t] is the number of members. *)
let cardinal t =
  let c = ref 0 in
  for k = 0 to Array.length t.words - 1 do
    c := popcount_word (Array.unsafe_get t.words k) !c
  done;
  !c

(* Members walk the words and, within a non-zero word, its bits up to the
   highest set one: no per-index bounds check or division. *)
let rec iter_bits f i w =
  if w <> 0 then begin
    if w land 1 <> 0 then f i;
    iter_bits f (i + 1) (w lsr 1)
  end

(** [iter f t] applies [f] to every member in increasing order. *)
let iter f t =
  for k = 0 to Array.length t.words - 1 do
    iter_bits f (k * 63) (Array.unsafe_get t.words k)
  done

(** [fold f t init] folds over members in increasing order. *)
let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

(** [elements t] lists members in increasing order. *)
let elements t =
  let acc = ref [] in
  for k = Array.length t.words - 1 downto 0 do
    let w = Array.unsafe_get t.words k in
    if w <> 0 then
      for b = 62 downto 0 do
        if (w lsr b) land 1 <> 0 then acc := ((k * 63) + b) :: !acc
      done
  done;
  !acc

(** [of_list width l] builds a set from a list of indices. *)
let of_list width l =
  let t = empty width in
  List.iter
    (fun i ->
      check_bounds t i;
      t.words.(i / 63) <- t.words.(i / 63) lor (1 lsl (i mod 63)))
    l;
  t

(** [full width] is the universe set. *)
let full width = of_list width (List.init width (fun i -> i))

let hash t = Hashtbl.hash t.words

let to_string t =
  "{" ^ String.concat "," (List.map string_of_int (elements t)) ^ "}"

(** First-class hashtable key module. *)
module Key = struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Key)
