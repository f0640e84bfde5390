(** The executable generator / plan executor (§5.3).

    Stitches selected kernels together respecting data dependencies and
    runs them against the tensor substrate. Each kernel only reads tensors
    published by earlier kernels (or graph sources) and only publishes its
    declared outputs — exactly the contract the BLP dependency constraints
    (Eq. 4) guarantee, which {!run} re-establishes up front with
    {!Plan.check} before any tensor is computed.

    With [~reuse:true], execution follows the {!Memplan} death schedule:
    tensors are released as soon as their last reader has run, released
    buffers are recycled (keyed by exact length — the {!Nd} substrate
    requires storage length = element count) as destinations for later
    elementwise/layout evaluations, and reshapes alias their argument's
    storage zero-copy with reference counting so a shared buffer is only
    recycled once every alias is dead. The recycled paths reuse the exact
    scalar functions of the allocating paths, so outputs are bit-identical
    with reuse on and off. *)

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

let count_interp = function
  | Some (es : Backend.exec_stats) -> es.Backend.interp_kernels <- es.Backend.interp_kernels + 1
  | None -> ()

(* The reuse-off step for one kernel of a checked plan: recompute every
   member in [topo] order from a kernel-local environment fed only by
   [global], then publish the declared outputs into [global]. *)
let eval_kernel (g : Primgraph.t) ~(topo : int list) (global : Prim_interp.env)
    (k : Plan.kernel) : unit =
  let members = Bitset.of_list (Graph.length g) k.Plan.prims in
  let local : Prim_interp.env = Hashtbl.create 16 in
  List.iter
    (fun id ->
      if Bitset.mem members id then begin
        let nd = Graph.node g id in
        let args =
          List.map
            (fun i -> Hashtbl.find (if Bitset.mem members i then local else global) i)
            nd.Graph.inputs
        in
        Hashtbl.replace local id (Prim_interp.eval_prim nd.Graph.op args)
      end)
    topo;
  List.iter (fun o -> Hashtbl.replace global o (Hashtbl.find local o)) k.Plan.outputs

(* Arena-reuse execution of a checked plan along the {!Memplan} death
   schedule. *)
let run_arena (st : run_stats) ?exec_stats (g : Primgraph.t) (plan : Plan.t)
    (global : Prim_interp.env) : unit =
  let n = Graph.length g in
  let mp = Memplan.analyze g plan in
  (* Arena state: live buffers by instance key, free arrays by exact
     length. Caller-owned source arrays never enter either table. *)
  let bufs : (Memplan.key, buf) Hashtbl.t = Hashtbl.create 64 in
  let pool : (int, float array list ref) Hashtbl.t = Hashtbl.create 16 in
  let acquire len =
    match Hashtbl.find_opt pool len with
    | Some ({ contents = d :: rest } as r) ->
      r := rest;
      Some d
    | _ -> None
  in
  let decref (b : buf) =
    b.refs <- b.refs - 1;
    if b.refs = 0 then begin
      let len = Array.length b.data in
      (match Hashtbl.find_opt pool len with
      | Some r -> r := b.data :: !r
      | None -> Hashtbl.replace pool len (ref [ b.data ]));
      st.freed <- st.freed + 1
    end
  in
  (* Bind [key] to [b], releasing whatever storage a redundant
     republication previously bound there (no reader can hold the old
     value between the rebinding and the kernel's publish step). *)
  let register key b =
    (match Hashtbl.find_opt bufs key with Some old -> decref old | None -> ());
    Hashtbl.replace bufs key b
  in
  let release ~local key =
    (match key with
    | Memplan.Published p -> Hashtbl.remove global p
    | Memplan.Internal (_, p) -> Hashtbl.remove local p);
    match Hashtbl.find_opt bufs key with
    | Some b ->
      Hashtbl.remove bufs key;
      decref b
    | None -> ()
  in
  let step = ref 0 in
  let after_step ~local =
    List.iter (fun key -> release ~local key) mp.Memplan.deaths.(!step);
    incr step
  in
  List.iteri
    (fun ki (k : Plan.kernel) ->
      count_interp exec_stats;
      let members = Bitset.of_list n k.Plan.prims in
      let local : Prim_interp.env = Hashtbl.create 16 in
      let outset = Bitset.of_list n k.Plan.outputs in
      let key_of p =
        if Bitset.mem outset p then Memplan.Published p else Memplan.Internal (ki, p)
      in
      List.iter
        (fun id ->
          let nd = Graph.node g id in
          let args =
            List.map
              (fun i -> Hashtbl.find (if Bitset.mem members i then local else global) i)
              nd.Graph.inputs
          in
          st.evals <- st.evals + 1;
          let v =
            match (nd.Graph.op, args, nd.Graph.inputs) with
            | Primitive.Reshape s, [ x ], [ src ] ->
              (* Zero-copy alias: same storage, new shape. The alias holds
                 a reference on the source's buffer (if arena-managed) so
                 the storage outlives both keys. *)
              let v = Nd.of_array s x.Nd.data in
              (match
                 Hashtbl.find_opt bufs
                   (if Bitset.mem members src then key_of src else Memplan.Published src)
               with
              | Some b ->
                b.refs <- b.refs + 1;
                register (key_of id) b
              | None -> ());
              st.aliases <- st.aliases + 1;
              v
            | _ ->
              let adopt v =
                register (key_of id) { data = v.Nd.data; refs = 1 };
                st.fresh_elems <- st.fresh_elems + Nd.numel v;
                v
              in
              if Prim_interp.supports_into nd.Graph.op args then begin
                match acquire (Shape.numel nd.Graph.shape) with
                | Some dst -> begin
                  match Prim_interp.eval_prim_into nd.Graph.op args ~dst with
                  | Some v ->
                    register (key_of id) { data = dst; refs = 1 };
                    st.into_evals <- st.into_evals + 1;
                    v
                  | None -> adopt (Prim_interp.eval_prim nd.Graph.op args)
                end
                | None -> adopt (Prim_interp.eval_prim nd.Graph.op args)
              end
              else adopt (Prim_interp.eval_prim nd.Graph.op args)
          in
          Hashtbl.replace local id v;
          after_step ~local)
        mp.Memplan.order.(ki);
      List.iter (fun o -> Hashtbl.replace global o (Hashtbl.find local o)) k.Plan.outputs;
      after_step ~local)
    plan.Plan.kernels

let run_interp ~reuse ?stats ?exec_stats (g : Primgraph.t) (plan : Plan.t)
    ~(inputs : (string * Nd.t) list) : Nd.t list =
  let global = Prim_interp.bind_sources g ~inputs in
  let st = match stats with Some s -> s | None -> fresh_stats () in
  if reuse then run_arena st ?exec_stats g plan global
  else begin
    (* Hoisted: one topological sort per run, not one per kernel. *)
    let topo = Graph.topo_order g in
    List.iter
      (fun (k : Plan.kernel) ->
        count_interp exec_stats;
        st.evals <- st.evals + List.length k.Plan.prims;
        eval_kernel g ~topo global k)
      plan.Plan.kernels
  end;
  List.map (Hashtbl.find global) g.Graph.outputs

let validate (g : Primgraph.t) (plan : Plan.t) : (unit, string) result =
  match Plan.check g plan with [] -> Ok () | e :: _ -> Error (Plan.error_to_string e)

(* Backend dispatch, after one structural check of the whole plan. The
   arena-reuse mode is an interpreter feature (it recycles OCaml-side
   buffers along the memplan death schedule), so [~reuse:true] always
   takes the interpreter path regardless of the requested backend — which
   also makes reuse-vs-native comparisons a genuine cross-backend
   differential test. *)
let run ?(backend : Backend.t option) ?(reuse = false) ?stats ?exec_stats (g : Primgraph.t)
    (plan : Plan.t) ~(inputs : (string * Nd.t) list) : Nd.t list =
  (match validate g plan with Ok () -> () | Error m -> raise (Invalid_plan m));
  let backend = match backend with Some b -> b | None -> Backend.default () in
  match backend with
  | Backend.Native when not reuse -> begin
    match Backend.native_impl () with
    | Some impl ->
      let stats =
        match exec_stats with Some es -> es | None -> Backend.fresh_exec_stats ()
      in
      impl ~stats g plan ~inputs
    | None ->
      Backend.warn_native_missing ();
      run_interp ~reuse ?stats ?exec_stats g plan ~inputs
  end
  | _ -> run_interp ~reuse ?stats ?exec_stats g plan ~inputs
