(** The kernel profiler (§5.2).

    Takes a candidate kernel (a convex set of primitives plus its output
    set), decides which backend would implement it, and returns the
    modelled latency — or rejects the candidate, mirroring the paper's
    rules: memory-intensive subgraphs go to the TVM-MetaSchedule-style
    generated backend, subgraphs containing exactly one linear
    transformation primitive go to vendor libraries (cuBLAS/cuDNN/TensorRT),
    and everything else is rejected. Simulated tuning time feeds Table 2. *)

open Ir

(** Default cap on a generated kernel's primitives: "too many operators
    to generate within one kernel" (§6.5). *)
let max_tvm_prims = 10

(** Layout/elementwise primitives a vendor kernel can absorb around its
    linear primitive. *)
let max_vendor_companions = 4

type result = {
  latency_us : float;
  backend : Cost_model.backend_kind;
  tuning_time_s : float;  (** simulated auto-tuning wall-clock cost *)
}

(* How the signature spells a node as a kernel member (its op and shape)
   and as an external input (only its shape matters). *)
let member_token (g : Primgraph.t) id =
  let nd = Graph.node g id in
  Primitive.to_string nd.Graph.op ^ Tensor.Shape.to_string nd.Graph.shape

let ext_token (g : Primgraph.t) id = "ext" ^ Tensor.Shape.to_string (Graph.shape g id)

type facts = {
  succs : int list array;
  member_tokens : string array;
  ext_tokens : string array;
}

let facts (g : Primgraph.t) : facts =
  let n = Graph.length g in
  {
    succs = Graph.succs g;
    member_tokens = Array.init n (member_token g);
    ext_tokens = Array.init n (ext_token g);
  }

(** [signature ?facts g members ~outputs ~spec ~precision] — canonical
    structural key of a candidate kernel, used by {!Profile_cache} to avoid
    re-tuning identical kernels (the paper's "TVM database"). Member nodes
    are renumbered by position so that structurally identical subgraphs
    from different graph regions share one entry. An external input is
    spelled by its shape at its first occurrence and as [ext#k], a
    back-reference to the [k]-th distinct external input, after that. *)
let signature ?facts (g : Primgraph.t) (members : Bitset.t) ~(outputs : int list)
    ~(spec : Spec.t) ~(precision : Precision.t) : string =
  let member_token, ext_token =
    match facts with
    | Some f -> (Array.get f.member_tokens, Array.get f.ext_tokens)
    | None -> (member_token g, ext_token g)
  in
  let ids = Bitset.elements members in
  let rec local k i = function
    | [] -> -1
    | id :: rest -> if id = i then k else local (k + 1) i rest
  in
  (* External producers in order of first occurrence; a repeated one is
     spelled as a back-reference to that occurrence, so a kernel reading
     one tensor twice and one reading two same-shaped tensors differ. *)
  let exts = ref [] and n_exts = ref 0 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf spec.Spec.name;
  Buffer.add_char buf '/';
  Buffer.add_string buf (Precision.to_string precision);
  List.iter
    (fun id ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (member_token id);
      List.iter
        (fun i ->
          let l = local 0 i ids in
          if l >= 0 then begin
            Buffer.add_char buf '@';
            Buffer.add_string buf (string_of_int l)
          end
          else
            match List.assoc_opt i !exts with
            | Some k ->
              Buffer.add_string buf "ext#";
              Buffer.add_string buf (string_of_int k)
            | None ->
              exts := (i, !n_exts) :: !exts;
              incr n_exts;
              Buffer.add_string buf (ext_token i))
        (Graph.inputs g id);
      if List.mem id outputs then Buffer.add_string buf "!out")
    ids;
  Buffer.contents buf

(* Deterministic pseudo-random tuning time: most memory-intensive kernels
   tune "within 2 minutes" (§5.2); a small heavy tail models the 12-hour
   outlier the paper reports for YOLOv4 (§6.5). *)
let simulated_tuning_time ~(backend : Cost_model.backend_kind) (sig_ : string)
    (n_prims : int) : float =
  match backend with
  | Cost_model.Vendor -> 1.0
  | OpaqueExec -> 0.5
  | Tvm ->
    let h = Hashtbl.hash sig_ in
    let base = 6.0 +. (2.5 *. float_of_int n_prims) +. float_of_int (h mod 25) in
    if h mod 311 = 0 then base *. 60.0 else base

(* Census of the profiling path: static rejections on every call,
   measurements on every price actually paid (a miss, under a cache). *)
let m_accepted = Obs.Metrics.counter "profiler.accepted"
let m_rejected = Obs.Metrics.counter "profiler.rejected"

(* Who would generate a kernel with statistics [s]; [None] is a static
   rejection. *)
let backend ~max_tvm_prims (s : Stats.kernel_stats) : Cost_model.backend_kind option =
  if s.Stats.n_prims = 0 then None
  else if s.Stats.has_opaque then
    if s.Stats.n_prims = 1 then Some Cost_model.OpaqueExec else None
  else
    match s.Stats.linear_prims with
    | [] -> if s.Stats.n_prims <= max_tvm_prims then Some Cost_model.Tvm else None
    | [ _ ] ->
      (* Vendor kernels absorb a few layout/elementwise/broadcast
         companions (transposed operands, bias/activation epilogues)
         but cannot host reductions or large generated prologues. *)
      let companions = s.Stats.n_prims - 1 in
      let has_reduction = List.mem Primitive.Reduction s.Stats.classes in
      if companions <= max_vendor_companions && not has_reduction then
        Some Cost_model.Vendor
      else None
    | _ :: _ :: _ -> None (* multiple linear primitives: reject (§6.5) *)

(** [profile ?facts ?ext_inputs ?memo ~max_tvm_prims ~spec ~precision g
    members ~outputs] — stats, backend, then signature and price for an
    accepted candidate only. [None] means rejected. *)
let profile ?facts ?ext_inputs ?(memo = fun _ measure -> measure ()) ~max_tvm_prims
    ~(spec : Spec.t) ~(precision : Precision.t) (g : Primgraph.t) (members : Bitset.t)
    ~(outputs : int list) : result option =
  let succs = Option.map (fun f -> f.succs) facts in
  let s = Stats.kernel_stats ?succs ?ext_inputs g members ~outputs in
  match backend ~max_tvm_prims s with
  | None ->
    Obs.Metrics.incr m_rejected;
    None
  | Some backend ->
    let sig_ = signature ?facts g members ~outputs ~spec ~precision in
    Some
      (memo sig_ (fun () ->
           (* A real measurement can crash or hang the tuner; the injection
              site lets tests force exactly that for any chosen candidate. *)
           Faults.check Faults.Profiler;
           Obs.Metrics.incr m_accepted;
           {
             latency_us = Cost_model.latency_us ~spec ~precision ~backend g s;
             backend;
             tuning_time_s = simulated_tuning_time ~backend sig_ s.Stats.n_prims;
           }))
