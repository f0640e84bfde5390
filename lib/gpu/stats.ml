(** Static arithmetic/traffic statistics of primitives and kernel
    subgraphs — the inputs to the roofline cost model. *)

open Ir
open Tensor

(* Cost in "flop equivalents" of one application of a unary function.
   Transcendentals run on the SFU at a fraction of FMA throughput. *)
let unary_flop_cost : Primitive.unary -> float = function
  | Primitive.Exp | Log | Sqrt | Rsqrt | Erf | Tanh | Sigmoid -> 4.0
  | Silu | Gelu -> 6.0
  | Mish -> 10.0
  | Neg | Abs | Relu | AddConst _ | MulConst _ -> 1.0
  | LeakyRelu _ | Clip _ -> 2.0
  | Square | Reciprocal | PowConst _ -> 2.0

(** [prim_flops g id] — floating-point operations executed by node [id]. *)
let prim_flops (g : Primgraph.t) (id : int) : float =
  let nd = Graph.node g id in
  let out_elems = float_of_int (Shape.numel nd.Graph.shape) in
  let in_elems () =
    match Graph.inputs g id with
    | i :: _ -> float_of_int (Shape.numel (Graph.shape g i))
    | [] -> 0.0
  in
  match nd.Graph.op with
  | Primitive.Input _ | Constant _ -> 0.0
  | Unary u -> out_elems *. unary_flop_cost u
  | Binary _ -> out_elems
  | Reduce _ -> in_elems ()
  | Broadcast _ -> 0.0
  | Pool { kernel = kh, kw; _ } -> out_elems *. float_of_int (kh * kw)
  | Transpose _ | Reshape _ | Pad _ | Slice _ | Concat _ -> 0.0
  | Matmul -> begin
    match Graph.inputs g id with
    | [ a; _ ] ->
      let sa = Graph.shape g a in
      let k = sa.(Shape.rank sa - 1) in
      2.0 *. out_elems *. float_of_int k
    | _ -> 0.0
  end
  | Conv _ -> begin
    match Graph.inputs g id with
    | [ _; w ] ->
      let sw = Graph.shape g w in
      (* 2 * OUT * (IC*KH*KW) *)
      2.0 *. out_elems *. float_of_int (sw.(1) * sw.(2) * sw.(3))
    | _ -> 0.0
  end
  | Upsample _ -> 0.0
  | Opaque _ -> 4.0 *. in_elems ()

(** Shape of the single linear-transformation primitive in a kernel, used
    for GEMM efficiency modelling: [(m, n, k)] of the equivalent GEMM. *)
let linear_dims (g : Primgraph.t) (id : int) : (int * int * int) option =
  let nd = Graph.node g id in
  match nd.Graph.op with
  | Primitive.Matmul -> begin
    match Graph.inputs g id with
    | [ a; _ ] ->
      let sa = Graph.shape g a and so = nd.Graph.shape in
      let r = Shape.rank so in
      let batch = Shape.numel (Array.sub so 0 (r - 2)) in
      Some (so.(r - 2) * batch, so.(r - 1), sa.(Shape.rank sa - 1))
    | _ -> None
  end
  | Conv _ -> begin
    match Graph.inputs g id with
    | [ _; w ] ->
      let sw = Graph.shape g w and so = nd.Graph.shape in
      (* im2col GEMM: [N*OH*OW x IC*KH*KW] x [IC*KH*KW x OC] *)
      Some (so.(0) * so.(2) * so.(3), sw.(0), sw.(1) * sw.(2) * sw.(3))
    | _ -> None
  end
  | _ -> None

(** Aggregate statistics of a candidate kernel. *)
type kernel_stats = {
  n_prims : int;  (** executable primitives in the kernel *)
  flops : float;
  read_elems : float;  (** distinct external input elements *)
  write_elems : float;  (** published output elements *)
  classes : Primitive.category list;  (** distinct categories present *)
  reduce_passes : int;
      (** reduce-category prims whose result is consumed inside the kernel *)
  extra_read_elems : float;
      (** data re-traversed after in-kernel reductions: for each reduce
          whose result is consumed inside the kernel, the elements that
          must be revisited after the synchronization point — bounded both
          by the reduce's own input size and by the largest in-kernel
          tensor downstream of it (a softmax-style broadcast-back pays a
          full extra pass; a second-stage reduction over already-reduced
          data pays almost nothing) *)
  linear_prims : int list;  (** ids of linear-transformation members *)
  has_opaque : bool;
}

(** [kernel_stats ?succs ?ext_inputs g members ~outputs] computes the
    statistics of executing the primitive set [members] as one kernel
    publishing [outputs]. [succs] ({!Graph.succs} of [g]) and
    [ext_inputs] ({!Graph.external_inputs} of [members]) are computed
    when absent; callers that price many kernels of one graph pass them
    in. *)
let kernel_stats ?succs ?ext_inputs (g : Primgraph.t) (members : Bitset.t)
    ~(outputs : int list) : kernel_stats =
  let flops = ref 0.0 and n_prims = ref 0 in
  let classes = ref [] and reduce_passes = ref 0 in
  let extra_read_elems = ref 0.0 in
  let linear_prims = ref [] in
  let has_opaque = ref false in
  (* Only in-kernel reductions read successors. *)
  let sc = match succs with Some sc -> lazy sc | None -> lazy (Graph.succs g) in
  (* Largest tensor reachable from [id] through in-kernel successors. *)
  let max_downstream_numel id =
    let best = ref 0 in
    let seen = Hashtbl.create 8 in
    let rec go v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        best := Stdlib.max !best (Shape.numel (Graph.shape g v));
        List.iter (fun s -> if Bitset.mem members s then go s) (Lazy.force sc).(v)
      end
    in
    List.iter (fun s -> if Bitset.mem members s then go s) (Lazy.force sc).(id);
    !best
  in
  Bitset.iter
    (fun id ->
      let op = Graph.op g id in
      if not (Primitive.is_source op) then begin
        incr n_prims;
        flops := !flops +. prim_flops g id;
        let cat = Primitive.category op in
        if not (List.mem cat !classes) then classes := cat :: !classes;
        (match cat with
        | Primitive.Reduction ->
          if List.exists (fun s -> Bitset.mem members s) (Lazy.force sc).(id) then begin
            incr reduce_passes;
            let own_input =
              match Graph.inputs g id with
              | i :: _ -> Shape.numel (Graph.shape g i)
              | [] -> 0
            in
            extra_read_elems :=
              !extra_read_elems
              +. float_of_int (Stdlib.min own_input (max_downstream_numel id))
          end
        | Linear -> linear_prims := id :: !linear_prims
        | Unknown -> has_opaque := true
        | Elementwise | Broadcasting | Layout | Source -> ())
      end)
    members;
  let read_elems =
    List.fold_left
      (fun acc i -> acc +. float_of_int (Shape.numel (Graph.shape g i)))
      0.0
      (match ext_inputs with Some l -> l | None -> Graph.external_inputs g members)
  in
  let write_elems =
    List.fold_left (fun acc o -> acc +. float_of_int (Shape.numel (Graph.shape g o))) 0.0 outputs
  in
  {
    n_prims = !n_prims;
    flops = !flops;
    read_elems;
    write_elems;
    classes = !classes;
    reduce_passes = !reduce_passes;
    extra_read_elems = !extra_read_elems;
    linear_prims = !linear_prims;
    has_opaque = !has_opaque;
  }
