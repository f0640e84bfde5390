(** C code generation for stitched kernels (see the interface).

    One C function per kernel,
    [void korch_kernel_<md5>(const double **ins, double **outs)], named
    by the digest of its {!signature}; {!translation_unit} puts the
    shared prelude once in front of any number of them. Inputs are the
    kernel's distinct external tensors in first-use order; outputs
    follow the kernel's declared output list. Internal temporaries are
    packed into one malloc'd arena with exact-size slot reuse along the
    member evaluation order — the same lifetime discipline the
    interpreter's arena uses.

    Bit-identity with {!Runtime.Prim_interp} is a hard requirement (the
    differential gate and the fuzzer both rely on it), so every loop
    replicates the interpreter's evaluation order and scalar semantics
    exactly: [k_fmax]/[k_fmin] mirror [Float.max]/[Float.min] including
    NaN payloads and signed zeros, [k_erf] is the same Abramowitz &
    Stegun polynomial with bit-exact constants, matmul/conv keep the
    interpreter's ascending contraction order and its [av <> 0.0]
    zero-skip guard, and [pow] goes through a volatile function pointer
    so the compiler cannot fold constant exponents away from libm.
    Kernels must additionally be compiled with [-ffp-contract=off] (no
    FMA contraction) and without [-ffast-math]; {!Kernel_cache} owns the
    flags. *)

open Ir
open Tensor

exception Unsupported_kernel of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported_kernel s)) fmt

(* Bump when emitted code changes in any way: the version participates in
   the cache signature, so stale .so entries are never reused across
   generator revisions. *)
let version = "korch-cg/2"

(** [hash signature] — the hex digest that names a kernel's cache entry
    and its C function. *)
let hash (signature : string) : string = Digest.to_hex (Digest.string signature)

(** [symbol h] — the exported name of the C function of the kernel whose
    signature hashes to [h]. *)
let symbol (h : string) : string = "korch_kernel_" ^ h

(* ------------------------------------------------------------------ *)
(* Kernel layout: canonical member order, externals, outputs           *)
(* ------------------------------------------------------------------ *)

type layout = {
  ids : int array;  (** member graph ids, ascending *)
  local_of : (int, int) Hashtbl.t;  (** graph id -> local index *)
  order : int list;  (** member graph ids in canonical evaluation order *)
  ext_ids : int array;  (** distinct external input graph ids, first-use order *)
  ext_idx : (int, int) Hashtbl.t;  (** external graph id -> ins[] position *)
  out_ids : int array;  (** kernel outputs (graph ids), declaration order *)
}

let layout (g : Primgraph.t) (k : Runtime.Plan.kernel) : layout =
  let n = Graph.length g in
  let members = Bitset.of_list n k.Runtime.Plan.prims in
  let ids = Array.of_list (Bitset.elements members) in
  let m = Array.length ids in
  if m = 0 then unsupported "empty kernel";
  let local_of = Hashtbl.create 16 in
  Array.iteri (fun l id -> Hashtbl.replace local_of id l) ids;
  (* Reject inexpressible members here, before the kernel's structure can
     become a cache key: sources have no evaluation semantics inside a
     kernel and opaque primitives have no C translation. *)
  Array.iter
    (fun id ->
      match (Graph.node g id).Graph.op with
      | Primitive.Input _ | Primitive.Constant _ ->
        unsupported "source node %d inside a kernel" id
      | Primitive.Opaque name -> unsupported "opaque primitive %s" name
      | _ -> ())
    ids;
  (* Canonical evaluation order: Kahn's algorithm over the member
     subgraph, always picking the smallest ready local index. Derived
     from local structure only, so signature-equal kernels emit
     byte-identical C. *)
  let indeg = Array.make m 0 in
  let succs = Array.make m [] in
  Array.iteri
    (fun l id ->
      List.iter
        (fun src ->
          match Hashtbl.find_opt local_of src with
          | Some ls ->
            indeg.(l) <- indeg.(l) + 1;
            succs.(ls) <- l :: succs.(ls)
          | None -> ())
        (Graph.inputs g id))
    ids;
  let module IS = Set.Make (Int) in
  let ready = ref IS.empty in
  Array.iteri (fun l d -> if d = 0 then ready := IS.add l !ready) indeg;
  let rev_order = ref [] in
  let emitted = ref 0 in
  while not (IS.is_empty !ready) do
    let l = IS.min_elt !ready in
    ready := IS.remove l !ready;
    rev_order := ids.(l) :: !rev_order;
    incr emitted;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := IS.add s !ready)
      succs.(l)
  done;
  if !emitted <> m then unsupported "cyclic member subgraph";
  (* Externals numbered by first appearance scanning members in ascending
     id order — the same scan the signature uses. *)
  let ext_idx = Hashtbl.create 8 in
  let ext_rev = ref [] in
  Array.iter
    (fun id ->
      List.iter
        (fun src ->
          if (not (Hashtbl.mem local_of src)) && not (Hashtbl.mem ext_idx src) then begin
            Hashtbl.replace ext_idx src (List.length !ext_rev);
            ext_rev := src :: !ext_rev
          end)
        (Graph.inputs g id))
    ids;
  let out_ids = Array.of_list k.Runtime.Plan.outputs in
  Array.iter
    (fun o ->
      if not (Hashtbl.mem local_of o) then unsupported "output %d is not a kernel member" o)
    out_ids;
  {
    ids;
    local_of;
    order = List.rev !rev_order;
    ext_ids = Array.of_list (List.rev !ext_rev);
    ext_idx;
    out_ids;
  }

(* ------------------------------------------------------------------ *)
(* Signature                                                           *)
(* ------------------------------------------------------------------ *)

(* Exact (bit-faithful) rendering of float-carrying ops: the generic
   Primitive.to_string prints %g, under which distinct constants can
   collide — unacceptable in a compilation cache key. *)
let op_key (p : Primitive.t) : string =
  match p with
  | Primitive.Unary (Primitive.LeakyRelu a) -> Printf.sprintf "leaky_relu(%h)" a
  | Primitive.Unary (Primitive.AddConst c) -> Printf.sprintf "add_const(%h)" c
  | Primitive.Unary (Primitive.MulConst c) -> Printf.sprintf "mul_const(%h)" c
  | Primitive.Unary (Primitive.PowConst c) -> Printf.sprintf "pow_const(%h)" c
  | Primitive.Unary (Primitive.Clip (lo, hi)) -> Printf.sprintf "clip(%h,%h)" lo hi
  | Primitive.Pad { before; after; value } ->
    let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf "pad(%s|%s|%h)" (arr before) (arr after) value
  | p -> Primitive.to_string p

(* {!signature} of the kernel [lay] lays out. *)
let signature_of_layout (g : Primgraph.t) (lay : layout) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf version;
  Array.iter
    (fun id ->
      let nd = Graph.node g id in
      Buffer.add_char buf '|';
      Buffer.add_string buf (op_key nd.Graph.op);
      Buffer.add_string buf (Shape.to_string nd.Graph.shape);
      List.iter
        (fun i ->
          match Hashtbl.find_opt lay.local_of i with
          | Some l -> Buffer.add_string buf (Printf.sprintf "@%d" l)
          | None ->
            Buffer.add_string buf
              (Printf.sprintf "e%d%s" (Hashtbl.find lay.ext_idx i)
                 (Shape.to_string (Graph.shape g i))))
        nd.Graph.inputs)
    lay.ids;
  Buffer.add_string buf "|outs:";
  Array.iter
    (fun o -> Buffer.add_string buf (Printf.sprintf "@%d," (Hashtbl.find lay.local_of o)))
    lay.out_ids;
  Buffer.contents buf

(** Canonical structural key of a kernel: codegen version, each member's
    op/shape/renumbered inputs (externals numbered by first use, with
    shape), and the output list in order. Two kernels with equal
    signatures compile to byte-identical C. *)
let signature (g : Primgraph.t) (k : Runtime.Plan.kernel) : string =
  signature_of_layout g (layout g k)

(* ------------------------------------------------------------------ *)
(* C emission helpers                                                  *)
(* ------------------------------------------------------------------ *)

let bpf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* Exact C literal for an OCaml float: hex floats round-trip bit-for-bit,
   integers stay readable, specials use math.h macros / quiet-NaN. *)
let flit (f : float) : string =
  if f <> f then "(0.0/0.0)"
  else if f = infinity then "INFINITY"
  else if f = neg_infinity then "-INFINITY"
  else if Float.is_integer f && Float.abs f <= 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%h" f

(* Linear-offset expression: sum of index variables times literal strides
   (zero-stride terms dropped). *)
let off_expr (names : string list) (strides : int array) : string =
  let parts = ref [] in
  List.iteri
    (fun i name ->
      if strides.(i) <> 0 then
        parts :=
          (if strides.(i) = 1 then name else Printf.sprintf "%s*%d" name strides.(i))
          :: !parts)
    names;
  match List.rev !parts with [] -> "0" | ps -> String.concat " + " ps

(* Nested loops over [shape]; [body] receives the index variable names.
   The whole construct is wrapped in its own block so names can repeat
   across members. *)
let with_loops buf (shape : Shape.t) (body : string list -> unit) : unit =
  let r = Array.length shape in
  let names = List.init r (fun i -> Printf.sprintf "i%d" i) in
  bpf buf "  {\n";
  List.iteri
    (fun i n -> bpf buf "  for (long %s = 0; %s < %d; ++%s) {\n" n n shape.(i) n)
    names;
  body names;
  for _ = 1 to r do
    bpf buf "  }\n"
  done;
  bpf buf "  }\n"

let unary_expr (u : Primitive.unary) (x : string) : string =
  let sqrt2 = flit (Stdlib.sqrt 2.0) in
  match u with
  | Primitive.Exp -> Printf.sprintf "exp(%s)" x
  | Primitive.Log -> Printf.sprintf "log(%s)" x
  | Primitive.Sqrt -> Printf.sprintf "sqrt(%s)" x
  | Primitive.Rsqrt -> Printf.sprintf "1.0 / sqrt(%s)" x
  | Primitive.Neg -> Printf.sprintf "-(%s)" x
  | Primitive.Abs -> Printf.sprintf "fabs(%s)" x
  | Primitive.Square -> Printf.sprintf "%s * %s" x x
  | Primitive.Reciprocal -> Printf.sprintf "1.0 / %s" x
  | Primitive.Relu -> Printf.sprintf "k_fmax(0.0, %s)" x
  | Primitive.LeakyRelu a -> Printf.sprintf "(%s >= 0.0) ? %s : (%s * %s)" x x (flit a) x
  | Primitive.Sigmoid -> Printf.sprintf "1.0 / (1.0 + exp(-%s))" x
  | Primitive.Silu -> Printf.sprintf "%s / (1.0 + exp(-%s))" x x
  | Primitive.Mish -> Printf.sprintf "%s * tanh(log(1.0 + exp(%s)))" x x
  | Primitive.Tanh -> Printf.sprintf "tanh(%s)" x
  | Primitive.Erf -> Printf.sprintf "k_erf(%s)" x
  | Primitive.Gelu -> Printf.sprintf "(0.5 * %s) * (1.0 + k_erf(%s / %s))" x x sqrt2
  | Primitive.AddConst c -> Printf.sprintf "%s + %s" x (flit c)
  | Primitive.MulConst c -> Printf.sprintf "%s * %s" x (flit c)
  | Primitive.PowConst c -> Printf.sprintf "k_pow(%s, %s)" x (flit c)
  | Primitive.Clip (lo, hi) ->
    Printf.sprintf "k_fmin(%s, k_fmax(%s, %s))" (flit hi) (flit lo) x

let binary_expr (b : Primitive.binary) (x : string) (y : string) : string =
  match b with
  | Primitive.Add -> Printf.sprintf "%s + %s" x y
  | Primitive.Sub -> Printf.sprintf "%s - %s" x y
  | Primitive.Mul -> Printf.sprintf "%s * %s" x y
  | Primitive.Div -> Printf.sprintf "%s / %s" x y
  | Primitive.Max -> Printf.sprintf "k_fmax(%s, %s)" x y
  | Primitive.Min -> Printf.sprintf "k_fmin(%s, %s)" x y
  | Primitive.Pow -> Printf.sprintf "k_pow(%s, %s)" x y

let agg_init_lit : Ops_reduce.agg -> string = function
  | Ops_reduce.Sum | Ops_reduce.Mean -> "0.0"
  | Ops_reduce.Max -> "-INFINITY"
  | Ops_reduce.Min -> "INFINITY"
  | Ops_reduce.Prod -> "1.0"

let agg_combine_stmt (agg : Ops_reduce.agg) ~(acc : string) ~(v : string) : string =
  match agg with
  | Ops_reduce.Sum | Ops_reduce.Mean -> Printf.sprintf "%s = %s + %s;" acc acc v
  | Ops_reduce.Max -> Printf.sprintf "%s = k_fmax(%s, %s);" acc acc v
  | Ops_reduce.Min -> Printf.sprintf "%s = k_fmin(%s, %s);" acc acc v
  | Ops_reduce.Prod -> Printf.sprintf "%s = %s * %s;" acc acc v

let prelude : string =
  String.concat "\n"
    [
      "#include <math.h>";
      "#include <stdlib.h>";
      "#include <string.h>";
      "";
      "/* Bit-exact replicas of OCaml's Float.max / Float.min (including";
      "   NaN-payload propagation and signed-zero ordering). */";
      "static inline double k_fmax(double x, double y)";
      "{";
      "  if (y > x || (!signbit(y) && signbit(x))) return (x != x) ? x : y;";
      "  return (y != y) ? y : x;";
      "}";
      "";
      "static inline double k_fmin(double x, double y)";
      "{";
      "  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;";
      "  return (x != x) ? x : y;";
      "}";
      "";
      "/* Volatile function pointer: keeps the compiler from folding pow()";
      "   with a literal exponent (e.g. pow(x, 2.0) -> x*x), which could";
      "   diverge from the interpreter's libm call. */";
      "static double (*volatile k_pow)(double, double) = pow;";
      "";
      "/* Abramowitz & Stegun 7.1.26, bit-identical to the interpreter's";
      "   Ops_elementwise.Scalar.erf (constants carry the exact OCaml";
      "   literal bits). */";
      "static double k_erf(double x)";
      "{";
      Printf.sprintf "  double sign = (x < 0.0) ? -1.0 : 1.0;";
      "  double ax = fabs(x);";
      Printf.sprintf "  double t = 1.0 / (1.0 + (%s * ax));" (flit 0.3275911);
      Printf.sprintf "  double poly = ((((%s * t) + %s) * t + %s) * t + %s) * t + %s;"
        (flit 1.061405429) (flit (-1.453152027)) (flit 1.421413741) (flit (-0.284496736))
        (flit 0.254829592);
      "  return sign * (1.0 - ((poly * t) * exp(-ax * ax)));";
      "}";
      "";
    ]

(* ------------------------------------------------------------------ *)
(* Per-primitive emission                                              *)
(* ------------------------------------------------------------------ *)

(* Effective per-output-dimension strides of an input broadcast
   right-aligned against [out_shape] (0 for missing or size-1 dims). *)
let broadcast_strides ~(out_shape : Shape.t) ~(in_shape : Shape.t) : int array =
  let ro = Array.length out_shape and ri = Array.length in_shape in
  let st = Shape.strides in_shape in
  Array.init ro (fun d ->
      let di = d - (ro - ri) in
      if di < 0 then 0 else if in_shape.(di) = 1 then 0 else st.(di))

let emit_node buf (g : Primgraph.t) (id : int) ~(dst : string)
    ~(name_of : int -> string) : unit =
  let nd = Graph.node g id in
  let out_shape = nd.Graph.shape in
  let n_out = Shape.numel out_shape in
  let args =
    List.map (fun i -> (name_of i, (Graph.node g i).Graph.shape)) nd.Graph.inputs
  in
  let one () =
    match args with [ a ] -> a | _ -> unsupported "unary arity on node %d" id
  in
  let two () =
    match args with [ a; b ] -> (a, b) | _ -> unsupported "binary arity on node %d" id
  in
  bpf buf "  /* t: %s %s */\n" (op_key nd.Graph.op) (Shape.to_string out_shape);
  match nd.Graph.op with
  | Primitive.Input _ | Primitive.Constant _ ->
    unsupported "source node %d inside a kernel" id
  | Primitive.Opaque name -> unsupported "opaque primitive %s" name
  | Primitive.Unary u ->
    let src, _ = one () in
    bpf buf "  for (long i = 0; i < %d; ++i) { double x = %s[i]; %s[i] = %s; }\n" n_out src
      dst (unary_expr u "x")
  | Primitive.Binary b ->
    let (na, sa), (nb, sb) = two () in
    if Shape.equal sa sb then
      bpf buf
        "  for (long i = 0; i < %d; ++i) { double x = %s[i]; double y = %s[i]; %s[i] = %s; }\n"
        n_out na nb dst (binary_expr b "x" "y")
    else begin
      let so = Shape.strides out_shape in
      let ea = broadcast_strides ~out_shape ~in_shape:sa in
      let eb = broadcast_strides ~out_shape ~in_shape:sb in
      with_loops buf out_shape (fun names ->
          bpf buf "    double x = %s[%s];\n" na (off_expr names ea);
          bpf buf "    double y = %s[%s];\n" nb (off_expr names eb);
          bpf buf "    %s[%s] = %s;\n" dst (off_expr names so) (binary_expr b "x" "y"))
    end
  | Primitive.Reduce (agg, axis) ->
    let src, sx = one () in
    let st = Shape.strides sx in
    let d = sx.(axis) in
    let so = Shape.strides out_shape in
    (* Out dim i maps to input dim (i < axis ? i : i+1). *)
    let base_strides =
      Array.init (Array.length out_shape) (fun i -> if i < axis then st.(i) else st.(i + 1))
    in
    with_loops buf out_shape (fun names ->
        bpf buf "    double acc = %s;\n" (agg_init_lit agg);
        bpf buf "    const double *row = %s + %s;\n" src (off_expr names base_strides);
        bpf buf "    for (long j = 0; j < %d; ++j) { double v = row[j*%d]; %s }\n" d
          st.(axis)
          (agg_combine_stmt agg ~acc:"acc" ~v:"v");
        let final =
          match agg with Ops_reduce.Mean -> Printf.sprintf "acc / (double)%d" d | _ -> "acc"
        in
        bpf buf "    %s[%s] = %s;\n" dst (off_expr names so) final)
  | Primitive.Broadcast (axis, _size) ->
    let src, sx = one () in
    let stx = Shape.strides sx in
    let so = Shape.strides out_shape in
    (* Out dim i reads input dim (i < axis ? i : i-1); the inserted axis
       contributes stride 0. *)
    let es =
      Array.init (Array.length out_shape) (fun i ->
          if i = axis then 0 else if i < axis then stx.(i) else stx.(i - 1))
    in
    with_loops buf out_shape (fun names ->
        bpf buf "    %s[%s] = %s[%s];\n" dst (off_expr names so) src (off_expr names es))
  | Primitive.Pool { agg; kernel = kh, kw; stride = sh, sw; padding = ph, pw } ->
    let src, sx = one () in
    let h = sx.(2) and w = sx.(3) in
    let c = sx.(1) in
    let so = Shape.strides out_shape in
    with_loops buf out_shape (fun names ->
        let bi, ci, oi, oj =
          match names with
          | [ a; b; c'; d' ] -> (a, b, c', d')
          | _ -> unsupported "pool on non-NCHW node %d" id
        in
        bpf buf "    double acc = %s;\n" (agg_init_lit agg);
        if agg = Ops_reduce.Mean then bpf buf "    long count = 0;\n";
        bpf buf "    for (long ki = 0; ki < %d; ++ki) {\n" kh;
        bpf buf "    for (long kj = 0; kj < %d; ++kj) {\n" kw;
        bpf buf "      long ii = %s*%d + ki - %d; long jj = %s*%d + kj - %d;\n" oi sh ph oj
          sw pw;
        bpf buf "      if (ii >= 0 && ii < %d && jj >= 0 && jj < %d) {\n" h w;
        bpf buf "        double v = %s[((%s*%d + %s)*%d + ii)*%d + jj];\n" src bi c ci h w;
        bpf buf "        %s\n" (agg_combine_stmt agg ~acc:"acc" ~v:"v");
        if agg = Ops_reduce.Mean then bpf buf "        count++;\n";
        bpf buf "      }\n";
        bpf buf "    } }\n";
        let final =
          match agg with
          | Ops_reduce.Mean ->
            Printf.sprintf "(count == 0) ? 0.0 : acc / (double)%d" (kh * kw)
          | _ -> "acc"
        in
        bpf buf "    %s[%s] = %s;\n" dst (off_expr names so) final)
  | Primitive.Transpose perm ->
    let src, sx = one () in
    let stx = Shape.strides sx in
    let so = Shape.strides out_shape in
    let es = Array.init (Array.length perm) (fun i -> stx.(perm.(i))) in
    with_loops buf out_shape (fun names ->
        bpf buf "    %s[%s] = %s[%s];\n" dst (off_expr names so) src (off_expr names es))
  | Primitive.Reshape _ ->
    let src, _ = one () in
    bpf buf "  memcpy(%s, %s, %d * sizeof(double));\n" dst src n_out
  | Primitive.Pad { before; after = _; value } ->
    let src, sx = one () in
    let so = Shape.strides out_shape in
    let sts = Shape.strides sx in
    let base =
      Array.to_list before |> List.mapi (fun i b -> b * so.(i)) |> List.fold_left ( + ) 0
    in
    bpf buf "  for (long i = 0; i < %d; ++i) %s[i] = %s;\n" n_out dst (flit value);
    with_loops buf sx (fun names ->
        bpf buf "    %s[%d + %s] = %s[%s];\n" dst base (off_expr names so) src
          (off_expr names sts))
  | Primitive.Slice { starts; stops = _ } ->
    let src, sx = one () in
    let so = Shape.strides out_shape in
    let sts = Shape.strides sx in
    let base = Array.to_list starts |> List.mapi (fun i s -> s * sts.(i)) |> List.fold_left ( + ) 0 in
    with_loops buf out_shape (fun names ->
        bpf buf "    %s[%s] = %s[%d + %s];\n" dst (off_expr names so) src base
          (off_expr names sts))
  | Primitive.Concat axis ->
    let so = Shape.strides out_shape in
    let offset = ref 0 in
    List.iter
      (fun (src, sx) ->
        with_loops buf sx (fun names ->
            let base = !offset * so.(axis) in
            bpf buf "    %s[%d + %s] = %s[%s];\n" dst base (off_expr names so) src
              (off_expr names (Shape.strides sx)));
        offset := !offset + sx.(axis))
      args
  | Primitive.Matmul ->
    let (na, sa), (nb, sb) = two () in
    let ra = Array.length sa and rb = Array.length sb in
    if ra < 2 || rb < 2 then unsupported "matmul rank < 2 on node %d" id;
    let m = sa.(ra - 2) and kk = sa.(ra - 1) in
    let nn = sb.(rb - 1) in
    bpf buf "  memset(%s, 0, %d * sizeof(double));\n" dst n_out;
    if ra = 2 && rb = 2 then begin
      (* Interpreter order: i, p ascending, row-broadcast update over j.
         Keeping p ascending per output element preserves bit-identity;
         the inner j loop is the vectorizable SAXPY-style row update. *)
      bpf buf "  {\n";
      bpf buf "  for (long i = 0; i < %d; ++i) {\n" m;
      bpf buf "    for (long p = 0; p < %d; ++p) {\n" kk;
      bpf buf "      double av = %s[i*%d + p];\n" na kk;
      bpf buf "      if (av != 0.0) {\n";
      bpf buf "        const double *br = %s + p*%d;\n" nb nn;
      bpf buf "        double *orow = %s + i*%d;\n" dst nn;
      bpf buf "        for (long j = 0; j < %d; ++j) orow[j] += av * br[j];\n" nn;
      bpf buf "      }\n";
      bpf buf "    }\n";
      bpf buf "  }\n";
      bpf buf "  }\n"
    end
    else begin
      let batch = Array.sub out_shape 0 (Array.length out_shape - 2) in
      let batch_a = Array.sub sa 0 (ra - 2) and batch_b = Array.sub sb 0 (rb - 2) in
      let ea = broadcast_strides ~out_shape:batch ~in_shape:batch_a in
      let eb = broadcast_strides ~out_shape:batch ~in_shape:batch_b in
      let eo = Shape.strides batch in
      let ea = Array.map (fun s -> s * (m * kk)) ea in
      let eb = Array.map (fun s -> s * (sb.(rb - 2) * nn)) eb in
      let eo = Array.map (fun s -> s * (m * nn)) eo in
      with_loops buf batch (fun names ->
          bpf buf "    const double *A = %s + %s;\n" na (off_expr names ea);
          bpf buf "    const double *B = %s + %s;\n" nb (off_expr names eb);
          bpf buf "    double *O = %s + %s;\n" dst (off_expr names eo);
          bpf buf "    for (long i = 0; i < %d; ++i) {\n" m;
          bpf buf "      for (long p = 0; p < %d; ++p) {\n" kk;
          bpf buf "        double av = A[i*%d + p];\n" kk;
          bpf buf "        if (av != 0.0) {\n";
          bpf buf "          const double *br = B + p*%d;\n" nn;
          bpf buf "          double *orow = O + i*%d;\n" nn;
          bpf buf "          for (long j = 0; j < %d; ++j) orow[j] += av * br[j];\n" nn;
          bpf buf "        }\n";
          bpf buf "      }\n";
          bpf buf "    }\n")
    end
  | Primitive.Conv { stride = sh, sw; padding = ph, pw } ->
    let (nx, sx), (nw, swt) = two () in
    if Array.length sx <> 4 || Array.length swt <> 4 then
      unsupported "conv expects NCHW x OIHW on node %d" id;
    let c = sx.(1) and h = sx.(2) and w = sx.(3) in
    let oc = swt.(0) and kh = swt.(2) and kw = swt.(3) in
    let so = Shape.strides out_shape in
    (* The interpreter's direct convolution ([Ops_linear.conv2d]) per
       output element: from +0.0, over (ci, ki, kj) ascending, skipping
       out-of-bounds taps and av == 0.0, so every element gets the same
       additions in the same order. *)
    with_loops buf out_shape (fun names ->
        let bi, oci, oi, oj =
          match names with
          | [ a; b; c'; d' ] -> (a, b, c', d')
          | _ -> unsupported "conv output not NCHW on node %d" id
        in
        ignore oc;
        bpf buf "    double acc = 0.0;\n";
        bpf buf "    for (long ci = 0; ci < %d; ++ci) {\n" c;
        bpf buf "    for (long ki = 0; ki < %d; ++ki) {\n" kh;
        bpf buf "    for (long kj = 0; kj < %d; ++kj) {\n" kw;
        bpf buf "      long ii = %s*%d + ki - %d; long jj = %s*%d + kj - %d;\n" oi sh ph oj
          sw pw;
        bpf buf "      if (ii >= 0 && ii < %d && jj >= 0 && jj < %d) {\n" h w;
        bpf buf "        double av = %s[((%s*%d + ci)*%d + ii)*%d + jj];\n" nx bi c h w;
        bpf buf "        if (av != 0.0) acc = acc + (av * %s[((%s*%d + ci)*%d + ki)*%d + kj]);\n"
          nw oci c kh kw;
        bpf buf "      }\n";
        bpf buf "    } } }\n";
        bpf buf "    %s[%s] = acc;\n" dst (off_expr names so))
  | Primitive.Upsample scale ->
    let src, sx = one () in
    let c = sx.(1) and h = sx.(2) and w = sx.(3) in
    let so = Shape.strides out_shape in
    with_loops buf out_shape (fun names ->
        let bi, ci, oi, oj =
          match names with
          | [ a; b; c'; d' ] -> (a, b, c', d')
          | _ -> unsupported "upsample on non-NCHW node %d" id
        in
        bpf buf "    %s[%s] = %s[((%s*%d + %s)*%d + %s/%d)*%d + %s/%d];\n" dst
          (off_expr names so) src bi c ci h oi scale w oj scale)

(* ------------------------------------------------------------------ *)
(* Whole-kernel source                                                 *)
(* ------------------------------------------------------------------ *)

(** [source g k ~symbol] — kernel [k] as one C function named [symbol],
    without the prelude ({!translation_unit} adds it). Raises
    {!Unsupported_kernel} when the kernel cannot be compiled (opaque or
    source members, malformed structure); the native executor falls back
    to the interpreter for that kernel. *)
let source (g : Primgraph.t) (k : Runtime.Plan.kernel) ~(symbol : string) : string =
  let lay = layout g k in
  let numel id = Shape.numel (Graph.node g id).Graph.shape in
  (* First output position of each output member (duplicates are copied
     at the end). *)
  let out_pos = Hashtbl.create 8 in
  Array.iteri
    (fun i id -> if not (Hashtbl.mem out_pos id) then Hashtbl.replace out_pos id i)
    lay.out_ids;
  (* Arena planning: exact-size slot reuse along the evaluation order —
     a temp's slot is recycled once its last reader has run. *)
  let order = Array.of_list lay.order in
  let steps = Array.length order in
  let step_of = Hashtbl.create 16 in
  Array.iteri (fun s id -> Hashtbl.replace step_of id s) order;
  let last_use = Hashtbl.create 16 in
  Array.iteri (fun s id -> Hashtbl.replace last_use id s) order;
  Array.iter
    (fun id ->
      List.iter
        (fun src ->
          if Hashtbl.mem lay.local_of src then
            Hashtbl.replace last_use src
              (max
                 (try Hashtbl.find last_use src with Not_found -> 0)
                 (Hashtbl.find step_of id)))
        (Graph.inputs g id))
    order;
  let free : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let total = ref 0 in
  let offset_of = Hashtbl.create 16 in
  let released = Hashtbl.create 16 in
  for s = 0 to steps - 1 do
    let id = order.(s) in
    if not (Hashtbl.mem out_pos id) then begin
      let sz = numel id in
      let off =
        match Hashtbl.find_opt free sz with
        | Some ({ contents = o :: rest } as r) ->
          r := rest;
          o
        | _ ->
          let o = !total in
          total := !total + sz;
          o
      in
      Hashtbl.replace offset_of id off
    end;
    (* Release member temps whose last reader was this step. *)
    List.iter
      (fun m ->
        if
          Hashtbl.mem offset_of m
          && (not (Hashtbl.mem released m))
          && Hashtbl.find last_use m = s
        then begin
          Hashtbl.replace released m ();
          let sz = numel m in
          match Hashtbl.find_opt free sz with
          | Some r -> r := Hashtbl.find offset_of m :: !r
          | None -> Hashtbl.replace free sz (ref [ Hashtbl.find offset_of m ])
        end)
      (id :: Graph.inputs g id)
  done;
  (* Emission. *)
  let buf = Buffer.create 8192 in
  bpf buf "\nvoid %s(const double **ins, double **outs)\n{\n" symbol;
  Array.iteri (fun i _ -> bpf buf "  const double *e%d = ins[%d];\n" i i) lay.ext_ids;
  if !total > 0 then begin
    bpf buf "  double *arena = (double *)malloc(%d * sizeof(double));\n" !total;
    bpf buf "  if (!arena) return;\n"
  end;
  let name_of id =
    match Hashtbl.find_opt lay.local_of id with
    | Some l -> Printf.sprintf "t%d" l
    | None -> Printf.sprintf "e%d" (Hashtbl.find lay.ext_idx id)
  in
  Array.iter
    (fun id ->
      let l = Hashtbl.find lay.local_of id in
      match Hashtbl.find_opt out_pos id with
      | Some pos -> bpf buf "  double *t%d = outs[%d];\n" l pos
      | None -> bpf buf "  double *t%d = arena + %d;\n" l (Hashtbl.find offset_of id))
    order;
  Array.iter (fun id -> emit_node buf g id ~dst:(name_of id) ~name_of) order;
  (* Duplicate output positions copy from the first. *)
  Array.iteri
    (fun i id ->
      let first = Hashtbl.find out_pos id in
      if first <> i then
        bpf buf "  memcpy(outs[%d], outs[%d], %d * sizeof(double));\n" i first (numel id))
    lay.out_ids;
  if !total > 0 then bpf buf "  free(arena);\n";
  bpf buf "}\n";
  Buffer.contents buf

(** [translation_unit fns] — one C file: the prelude once, then the
    kernel functions [fns] (each from {!source}). *)
let translation_unit (fns : string list) : string =
  String.concat ""
    (Printf.sprintf "/* generated by korch (%s) — do not edit */\n" version :: prelude :: fns)
