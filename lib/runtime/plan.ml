(** Orchestration plans — the output of the kernel orchestration optimizer
    and the input of the executable generator (§5.3).

    A plan is an ordered list of kernels. Each kernel names the primitive
    nodes it executes (a convex subgraph of the primitive graph), the subset
    it publishes as kernel outputs, and the latency/backend the profiler
    assigned. Because Korch allows redundant computation (§4.2), the same
    primitive id may appear in several kernels. *)

type kernel = {
  prims : int list;  (** primitive node ids executed inside this kernel *)
  outputs : int list;  (** subset of [prims] whose results are published *)
  latency_us : float;  (** profiled latency in microseconds *)
  backend : string;  (** which backend generated the kernel (tvm / cublas / ...) *)
}

type t = {
  kernels : kernel list;  (** in execution (dependency) order *)
  total_latency_us : float;  (** sum of kernel latencies, Eq. (2) *)
}

(** [kernel_count p] is the number of kernels launched. *)
let kernel_count (p : t) = List.length p.kernels

(** [executed_prims p] lists all primitive ids executed, with multiplicity. *)
let executed_prims (p : t) = List.concat_map (fun k -> k.prims) p.kernels

(** [redundancy p] is (total primitive executions) − (distinct primitives):
    0 for disjoint partitions, > 0 when Korch exploits redundant
    computation. *)
let redundancy (p : t) =
  let all = executed_prims p in
  List.length all - List.length (List.sort_uniq compare all)

(** [make kernels] computes the total latency per Eq. (2). *)
let make (kernels : kernel list) : t =
  { kernels; total_latency_us = List.fold_left (fun a k -> a +. k.latency_us) 0.0 kernels }

let pp ppf (p : t) =
  Format.fprintf ppf "plan: %d kernels, %.2f us total@." (kernel_count p) p.total_latency_us;
  List.iteri
    (fun i k ->
      Format.fprintf ppf "  k%-3d [%s] %.3f us  prims={%s} outs={%s}@." (i + 1) k.backend
        k.latency_us
        (String.concat "," (List.map string_of_int k.prims))
        (String.concat "," (List.map string_of_int k.outputs)))
    p.kernels

(* ------------------------------------------------------------------ *)
(* Structural validity                                                 *)
(* ------------------------------------------------------------------ *)

type location = Kernel of int | Output of int

type error = { loc : location; message : string }

let error_to_string (e : error) =
  match e.loc with
  | Kernel ki -> Printf.sprintf "kernel %d: %s" ki e.message
  | Output o -> Printf.sprintf "output %d: %s" o e.message

(* The single structural plan check; the properties are listed in the
   interface. Errors accumulate in order, so the first one is the
   earliest kernel's. *)
let check (g : Ir.Primgraph.t) (p : t) : error list =
  let open Ir in
  let n = Graph.length g in
  let errors = ref [] in
  let err loc fmt = Printf.ksprintf (fun message -> errors := { loc; message } :: !errors) fmt in
  let in_range i = i >= 0 && i < n in
  (* Values available before any kernel runs: graph sources. *)
  let available = Array.init n (fun i -> Primitive.is_source (Graph.op g i)) in
  let succs = lazy (Graph.succs g) in
  List.iteri
    (fun ki k ->
      let err fmt = err (Kernel ki) fmt in
      if k.prims = [] then err "kernel executes no primitives";
      List.iter (fun i -> if not (in_range i) then err "primitive id %d out of range" i) k.prims;
      let prims = List.filter in_range k.prims in
      List.iter
        (fun i ->
          if Primitive.is_source (Graph.op g i) then
            err "kernel executes source node %d (%s)" i (Primitive.to_string (Graph.op g i)))
        prims;
      let members = Bitset.of_list n prims in
      if Bitset.cardinal members < List.length prims then
        List.iter
          (fun i ->
            if List.length (List.filter (( = ) i) prims) > 1 then
              err "primitive %d listed more than once in kernel" i)
          (Bitset.elements members);
      List.iter
        (fun o ->
          if not (List.mem o k.prims) then err "published output %d is not a member primitive" o)
        k.outputs;
      (* Convexity (Definition 1): a kernel cannot pause mid-flight for
         another kernel to fill in an intermediate value. *)
      if (not (Bitset.is_empty members)) && not (Graph.is_convex_with (Lazy.force succs) members)
      then
        err "member set {%s} is not a convex subgraph"
          (String.concat "," (List.map string_of_int (Bitset.elements members)));
      Bitset.iter
        (fun i ->
          List.iter
            (fun v ->
              if (not (Bitset.mem members v)) && not available.(v) then
                err "consumes node %d which no earlier kernel published" v)
            (Graph.preds g i))
        members;
      if Float.is_nan k.latency_us || k.latency_us = Float.infinity then
        err "latency is not finite"
      else if k.latency_us < 0.0 then err "latency %g us is negative" k.latency_us;
      List.iter (fun o -> if in_range o then available.(o) <- true) k.outputs)
    p.kernels;
  List.iter
    (fun o ->
      if not (in_range o && available.(o)) then
        err (Output o) "graph output %d is not published by any kernel" o)
    g.Graph.outputs;
  List.rev !errors

(* Each kernel's members, each once, sorted by their position in [g]'s
   topological order: the order both the executor and the memory
   planner evaluate them in. *)
let member_orders (g : Ir.Primgraph.t) (p : t) : int list array =
  let pos = Array.make (Ir.Graph.length g) 0 in
  List.iteri (fun i id -> pos.(id) <- i) (Ir.Graph.topo_order g);
  Array.of_list
    (List.map (fun k -> List.sort_uniq (fun a b -> compare pos.(a) pos.(b)) k.prims) p.kernels)
