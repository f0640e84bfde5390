(** The executable generator / plan executor (§5.3).

    {!run} is the one walk over a plan. Each (graph, plan) pair is
    checked and signed once, on its first run: {!Plan.check} — §4.2's
    dependency constraints (Eq. 4) guarantee each kernel only reads
    published tensors and publishes only its declared outputs — each
    kernel's member order, and, for the native backend, each kernel's
    signature. Faults, the kernel cache and verification verdicts are
    still consulted on every run. Every kernel either runs as a native
    kernel or through the interpreter's member loop; backends and reuse
    modes differ only there.

    With [~reuse:true], the member loop carries an arena that follows the
    {!Memplan} death schedule: tensors are released as soon as their last
    reader has run, released buffers are recycled (keyed by exact length —
    the {!Nd} substrate requires storage length = element count) as
    destinations for later evaluations, and reshapes alias their
    argument's storage zero-copy with reference counting so a shared
    buffer is only recycled once every alias is dead. {!Prim_interp}
    computes the same floats with and without a destination, so outputs
    are bit-identical with reuse on and off. *)

open Ir
open Tensor

exception Invalid_plan of string

(** Arena accounting for one [~reuse:true] run. *)
type run_stats = {
  mutable evals : int;  (** primitive evaluations performed *)
  mutable into_evals : int;  (** evaluations written into a recycled buffer *)
  mutable aliases : int;  (** zero-copy reshape aliases *)
  mutable fresh_elems : int;  (** elements of freshly allocated arena arrays *)
  mutable freed : int;  (** buffers returned to the recycle pool *)
}

let fresh_stats () = { evals = 0; into_evals = 0; aliases = 0; fresh_elems = 0; freed = 0 }

(* A reference-counted arena buffer. [refs] counts the instance keys
   currently bound to this storage (aliases share it); the array returns
   to the free pool only when the last one dies. *)
type buf = { data : float array; mutable refs : int }

(* Arena state for one [~reuse:true] run: live buffers by instance key,
   free arrays by exact length, and the cursor into the memplan's step
   stream. Caller-owned source arrays never enter either table. *)
type arena = {
  mp : Memplan.t;
  st : run_stats;
  bufs : (Memplan.key, buf) Hashtbl.t;
  pool : (int, float array list ref) Hashtbl.t;
  mutable ki : int;  (** the kernel being run *)
  mutable step : int;
}

let push_free a (d : float array) =
  let len = Array.length d in
  match Hashtbl.find_opt a.pool len with
  | Some r -> r := d :: !r
  | None -> Hashtbl.replace a.pool len (ref [ d ])

let acquire a len =
  match Hashtbl.find_opt a.pool len with
  | Some ({ contents = d :: rest } as r) ->
    r := rest;
    Some d
  | _ -> None

let decref a (b : buf) =
  b.refs <- b.refs - 1;
  if b.refs = 0 then begin
    push_free a b.data;
    a.st.freed <- a.st.freed + 1
  end

(* Bind [key] to [b], releasing whatever storage a redundant
   republication previously bound there (no reader can hold the old
   value between the rebinding and the kernel's publish step). *)
let register a key b =
  (match Hashtbl.find_opt a.bufs key with Some old -> decref a old | None -> ());
  Hashtbl.replace a.bufs key b

(* Close one step of the memplan stream: drop every tensor that dies
   after it from its environment and its buffer from the arena. *)
let end_step a ~(global : Prim_interp.env) ~(local : Prim_interp.env) =
  List.iter
    (fun key ->
      (match key with
      | Memplan.Published p -> Hashtbl.remove global p
      | Memplan.Internal (_, p) -> Hashtbl.remove local p);
      match Hashtbl.find_opt a.bufs key with
      | Some b ->
        Hashtbl.remove a.bufs key;
        decref a b
      | None -> ())
    a.mp.Memplan.deaths.(a.step);
  a.step <- a.step + 1

(* Evaluate member [nd] of kernel [k] through the arena. A reshape
   aliases its argument's storage, holding a reference on the source's
   buffer (if arena-managed) so the storage outlives both keys. Anything
   else is offered a recycled buffer of its result's length; a constant,
   which is materialized instead, hands it back untouched. *)
let arena_eval a (k : Plan.kernel) ~members (nd : Primitive.t Graph.node) (args : Nd.t list) : Nd.t =
  let key_of p =
    if List.mem p k.Plan.outputs then Memplan.Published p else Memplan.Internal (a.ki, p)
  in
  match (nd.Graph.op, args, nd.Graph.inputs) with
  | Primitive.Reshape s, [ x ], [ src ] ->
    (match
       Hashtbl.find_opt a.bufs (if Bitset.mem members src then key_of src else Memplan.Published src)
     with
    | Some b ->
      b.refs <- b.refs + 1;
      register a (key_of nd.Graph.id) b
    | None -> ());
    a.st.aliases <- a.st.aliases + 1;
    Nd.of_array s x.Nd.data
  | op, _, _ ->
    let dst = acquire a (Shape.numel nd.Graph.shape) in
    let v = Prim_interp.eval_prim ?dst op args in
    (match dst with
    | Some d when v.Nd.data == d -> a.st.into_evals <- a.st.into_evals + 1
    | _ ->
      Option.iter (push_free a) dst;
      a.st.fresh_elems <- a.st.fresh_elems + Nd.numel v);
    register a (key_of nd.Graph.id) { data = v.Nd.data; refs = 1 };
    v

(* The interpreter's member loop for one kernel of a checked plan:
   recompute every member in [order] from a kernel-local environment fed
   only by [global], then publish the declared outputs into [global].
   With an arena, each evaluation and the publish close one memplan
   step. *)
let member_loop ?arena (g : Primgraph.t) ~(order : int list) (global : Prim_interp.env)
    (k : Plan.kernel) : unit =
  let members = Bitset.of_list (Graph.length g) k.Plan.prims in
  let local : Prim_interp.env = Hashtbl.create 16 in
  let find i = Hashtbl.find (if Bitset.mem members i then local else global) i in
  List.iter
    (fun id ->
      if Bitset.mem members id then begin
        let nd = Graph.node g id in
        let args = List.map find nd.Graph.inputs in
        (match arena with
        | None -> Hashtbl.replace local id (Prim_interp.eval_prim nd.Graph.op args)
        | Some a ->
          Hashtbl.replace local id (arena_eval a k ~members nd args);
          end_step a ~global ~local)
      end)
    order;
  List.iter (fun o -> Hashtbl.replace global o (Hashtbl.find local o)) k.Plan.outputs;
  Option.iter
    (fun a ->
      end_step a ~global ~local;
      a.ki <- a.ki + 1)
    arena

let eval_kernel g ~order global k = member_loop g ~order global k

let warned_missing = ref false

let warn_native_missing () =
  if not !warned_missing then begin
    warned_missing := true;
    Printf.eprintf
      "korch: native backend requested but no implementation is linked (lib/codegen); \
       falling back to the interpreter\n%!"
  end

let validate (g : Primgraph.t) (plan : Plan.t) : (unit, string) result =
  match Plan.check g plan with [] -> Ok () | e :: _ -> Error (Plan.error_to_string e)

(* What {!run} keeps of a (graph, plan) pair between runs. *)
type prepared = {
  checked : (int list array, string) result;
      (** each kernel's members in topological order, or the plan's first
          {!Plan.check} error *)
  mutable native : (unit -> (Backend.native_kernel, string) result list) option;
      (** the native backend's signed plan, from the pair's first native run *)
}

(* The prepared pairs, keyed by the identity of both: an entry lives as
   long as its graph and its plan. One mutex guards the table and the
   [native] fields across domains; preparing runs outside it, and a
   domain that loses the race to store an entry uses the winner's. *)
module Prepared =
  Ephemeron.K2.Make
    (struct
      type t = Primgraph.t

      let equal = ( == )
      let hash = Hashtbl.hash
    end)
    (struct
      type t = Plan.t

      let equal = ( == )
      let hash = Hashtbl.hash
    end)

let prepared = Prepared.create 16
let prepared_lock = Mutex.create ()
let m_plans_prepared = Obs.Metrics.counter "executor.plans_prepared"

let prepare (g : Primgraph.t) (plan : Plan.t) : prepared =
  match Mutex.protect prepared_lock (fun () -> Prepared.find_opt prepared (g, plan)) with
  | Some p -> p
  | None ->
    let p =
      {
        checked = Result.map (fun () -> Plan.member_orders g plan) (validate g plan);
        native = None;
      }
    in
    Mutex.protect prepared_lock (fun () ->
        match Prepared.find_opt prepared (g, plan) with
        | Some p -> p
        | None ->
          Prepared.replace prepared (g, plan) p;
          Obs.Metrics.incr m_plans_prepared;
          p)

let check g plan = Result.map ignore (prepare g plan).checked

let native_plan (impl : Backend.native_impl) g plan (p : prepared) =
  match Mutex.protect prepared_lock (fun () -> p.native) with
  | Some resolve -> resolve
  | None ->
    let resolve = impl g plan in
    Mutex.protect prepared_lock (fun () ->
        match p.native with
        | Some resolve -> resolve
        | None ->
          p.native <- Some resolve;
          resolve)

(* The arena recycles OCaml-side buffers, so [~reuse:true] runs every
   kernel on the interpreter whatever backend is requested — which also
   makes reuse-vs-native comparisons a genuine cross-backend differential
   test. *)
let run ?(backend : Backend.t option) ?(reuse = false) ?stats ?exec_stats (g : Primgraph.t)
    (plan : Plan.t) ~(inputs : (string * Nd.t) list) : Nd.t list =
  let p = prepare g plan in
  let orders = match p.checked with Ok orders -> orders | Error m -> raise (Invalid_plan m) in
  let backend = match backend with Some b -> b | None -> Backend.default () in
  let native =
    match (backend, Backend.native_impl ()) with
    | Backend.Native, Some impl when not reuse ->
      Some (Array.of_list (native_plan impl g plan p ()))
    | Backend.Native, None when not reuse ->
      warn_native_missing ();
      None
    | _ -> None
  in
  let st = match stats with Some s -> s | None -> fresh_stats () in
  let es = match exec_stats with Some es -> es | None -> Backend.fresh_exec_stats () in
  let global = Prim_interp.bind_sources g ~inputs in
  let arena =
    if not reuse then None
    else
      let mp = Memplan.analyze g plan in
      Some { mp; st; bufs = Hashtbl.create 64; pool = Hashtbl.create 16; ki = 0; step = 0 }
  in
  let interpret ki k =
    es.Backend.interp_kernels <- es.Backend.interp_kernels + 1;
    st.evals <- st.evals + List.length k.Plan.prims;
    member_loop ?arena g ~order:orders.(ki) global k
  in
  List.iteri
    (fun ki (k : Plan.kernel) ->
      match Option.map (fun resolved -> resolved.(ki)) native with
      | None -> interpret ki k
      | Some (Error reason) ->
        es.Backend.fallbacks <- (ki, reason) :: es.Backend.fallbacks;
        interpret ki k
      | Some (Ok nk) ->
        let outs, us = nk.Backend.call (Array.map (Hashtbl.find global) nk.Backend.ext_ids) in
        es.Backend.native_kernels <- es.Backend.native_kernels + 1;
        es.Backend.kernel_times_us <- (ki, us) :: es.Backend.kernel_times_us;
        Array.iteri (fun oi id -> Hashtbl.replace global id outs.(oi)) nk.Backend.out_ids)
    plan.Plan.kernels;
  List.map (Hashtbl.find global) g.Graph.outputs
