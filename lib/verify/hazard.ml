(** Alias & hazard analysis: an independent cross-check of the memory
    planner's arena-slot assignment.

    {!Runtime.Memplan.analyze} computes tensor lifetimes and packs them
    into reusable slots; a bug there silently corrupts results only when
    two live tensors alias. This module re-derives every lifetime from
    scratch — by replaying the executor's step stream as an explicit
    def/use event log, a deliberately different mechanism from the
    planner's incremental min/max tables — and then audits the planner's
    output against it, the same differential discipline {!Rule_check}
    applies to rewrite rules:

    - the planner must have planned exactly the instances the event log
      implies, with identical birth and death steps, shapes and sizes;
    - two instances sharing a slot must have {e strictly} disjoint live
      ranges — an instance born at step [b] still reads its arguments at
      [b], so a tenant dying at [b] constitutes a same-step read/write
      hazard and is rejected, not just an overlap;
    - every instance must fit its slot's capacity, and the death
      schedule the executor drains must release every key in the bucket
      of its death step (graph outputs in the end sentinel bucket).

    All reported problems are [Error]s: a failed cross-check means the
    plan must not run with reuse enabled. *)

open Ir
open Tensor
open Runtime
module D = Diagnostics

let pass = "hazard"

(** An independently recomputed live range, in executor steps. *)
type interval = { key : Memplan.key; shape : Shape.t; bytes : int; first : int; last : int }

(* One entry of the replayed step stream. *)
type event =
  | Def of Memplan.key * int * Shape.t
  | Use of Memplan.key * int

(* Replay the executor's step stream (kernel members in topological
   order, then one publish step per kernel) into an event log. *)
let events (g : Primgraph.t) (plan : Plan.t) : event list * int =
  let n = Graph.length g in
  let topo_pos = Array.make n 0 in
  List.iteri (fun pos id -> topo_pos.(id) <- pos) (Graph.topo_order g);
  let log = ref [] in
  let emit e = log := e :: !log in
  let step = ref 0 in
  List.iteri
    (fun ki k ->
      let members = List.sort_uniq compare k.Plan.prims in
      let member = Hashtbl.create 16 in
      List.iter (fun p -> Hashtbl.replace member p ()) members;
      let published = Hashtbl.create 16 in
      List.iter (fun o -> Hashtbl.replace published o ()) k.Plan.outputs;
      let key_of p =
        if Hashtbl.mem published p then Memplan.Published p else Memplan.Internal (ki, p)
      in
      let ordered = List.sort (fun a b -> compare topo_pos.(a) topo_pos.(b)) members in
      List.iter
        (fun p ->
          let nd = Graph.node g p in
          emit (Def (key_of p, !step, nd.Graph.shape));
          List.iter
            (fun i ->
              if Hashtbl.mem member i then emit (Use (key_of i, !step))
              else if not (Primitive.is_source (Graph.node g i).Graph.op) then
                emit (Use (Memplan.Published i, !step)))
            nd.Graph.inputs;
          incr step)
        ordered;
      (* The publish step pins every declared output. *)
      List.iter (fun o -> emit (Use (Memplan.Published o, !step))) k.Plan.outputs;
      incr step)
    plan.Plan.kernels;
  (List.rev !log, !step)

(** [lifetimes ?bytes_per_element g plan] — the recomputed live range of
    every tensor instance the plan materializes, sorted by (first, key).
    This is the reference the planner's output is audited against. *)
let lifetimes ?(bytes_per_element = 8) (g : Primgraph.t) (plan : Plan.t) : interval list =
  let log, steps = events g plan in
  let acc : (Memplan.key, interval) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Def (key, s, shape) -> begin
        match Hashtbl.find_opt acc key with
        | None ->
          let bytes = Shape.numel shape * bytes_per_element in
          Hashtbl.replace acc key { key; shape; bytes; first = s; last = s }
        | Some iv ->
          (* Republication: one conservative merged instance. *)
          Hashtbl.replace acc key { iv with first = min iv.first s; last = max iv.last s }
      end
      | Use (key, s) -> begin
        match Hashtbl.find_opt acc key with
        | Some iv -> Hashtbl.replace acc key { iv with last = max iv.last s }
        | None ->
          (* Use before any def: the plan reads a tensor no kernel has
             published yet. Runtime.Plan.check owns that structural error; for
             lifetime purposes treat the read as both def and use so the
             audit against the planner still proceeds. *)
          Hashtbl.replace acc key { key; shape = [||]; bytes = 0; first = s; last = s }
      end)
    log;
  (* Graph outputs survive the whole run (end sentinel step). *)
  List.iter
    (fun o ->
      match Hashtbl.find_opt acc (Memplan.Published o) with
      | Some iv -> Hashtbl.replace acc (Memplan.Published o) { iv with last = steps }
      | None -> ())
    g.Graph.outputs;
  Hashtbl.fold (fun _ iv l -> iv :: l) acc []
  |> List.sort (fun a b -> compare (a.first, a.key) (b.first, b.key))

let key_str = Memplan.string_of_key

let loc_of_key = function
  | Memplan.Published p -> D.Node p
  | Memplan.Internal (ki, _) -> D.Kernel ki

(** [check ?bytes_per_element g plan mp] audits [mp] (the planner's
    output for [plan] over [g]) against independently recomputed
    lifetimes. Empty report = the arena assignment is provably safe.
    Never raises. *)
let check ?(bytes_per_element = 8) (g : Primgraph.t) (plan : Plan.t) (mp : Memplan.t) :
    D.report =
  let ivs = lifetimes ~bytes_per_element g plan in
  let expected : (Memplan.key, interval) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun iv -> Hashtbl.replace expected iv.key iv) ivs;
  let findings = ref [] in
  let report d = findings := d :: !findings in
  let nslots = Array.length mp.Memplan.slot_bytes in
  let steps = mp.Memplan.stats.Memplan.steps in
  (* -- 1. instance-by-instance audit against the recomputed reference -- *)
  let seen : (Memplan.key, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (inst : Memplan.instance) ->
      let k = inst.Memplan.key in
      if Hashtbl.mem seen k then
        report (D.error ~pass ~loc:(loc_of_key k) "planner emitted %s twice" (key_str k));
      Hashtbl.replace seen k ();
      (match Hashtbl.find_opt expected k with
      | None ->
        report
          (D.error ~pass ~loc:(loc_of_key k)
             "planner invented instance %s: the step stream never materializes it" (key_str k))
      | Some iv ->
        if inst.Memplan.birth <> iv.first then
          report
            (D.error ~pass ~loc:(loc_of_key k)
               "%s: planner birth step %d, recomputed first def %d" (key_str k)
               inst.Memplan.birth iv.first);
        if inst.Memplan.death <> iv.last then
          report
            (D.error ~pass ~loc:(loc_of_key k)
               "%s: planner death step %d, recomputed last use %d" (key_str k)
               inst.Memplan.death iv.last);
        if iv.bytes > 0 && inst.Memplan.bytes <> iv.bytes then
          report
            (D.error ~pass ~loc:(loc_of_key k) "%s: planner sized %d bytes, recomputed %d"
               (key_str k) inst.Memplan.bytes iv.bytes));
      if inst.Memplan.slot < 0 || inst.Memplan.slot >= nslots then
        report
          (D.error ~pass ~loc:(loc_of_key k) "%s assigned out-of-range slot %d (arena has %d)"
             (key_str k) inst.Memplan.slot nslots)
      else if inst.Memplan.bytes > mp.Memplan.slot_bytes.(inst.Memplan.slot) then
        report
          (D.error ~pass ~loc:(loc_of_key k)
             "%s (%d bytes) overflows slot %d (capacity %d bytes)" (key_str k)
             inst.Memplan.bytes inst.Memplan.slot
             mp.Memplan.slot_bytes.(inst.Memplan.slot));
      (* Death-schedule audit: the executor frees what the bucket says. *)
      let bucket = min inst.Memplan.death steps in
      if
        bucket < Array.length mp.Memplan.deaths
        && not (List.mem k mp.Memplan.deaths.(bucket))
      then
        report
          (D.error ~pass ~loc:(loc_of_key k)
             "%s missing from death bucket %d: the executor would never release it" (key_str k)
             bucket))
    mp.Memplan.instances;
  List.iter
    (fun iv ->
      if not (Hashtbl.mem seen iv.key) then
        report
          (D.error ~pass ~loc:(loc_of_key iv.key)
             "planner lost instance %s (live steps %d..%d): executing with reuse would read freed memory"
             (key_str iv.key) iv.first iv.last))
    ivs;
  (* -- 2. slot interference: recomputed live ranges must be strictly
        disjoint within a slot -- *)
  let by_slot = Array.make (max nslots 1) [] in
  Array.iter
    (fun (inst : Memplan.instance) ->
      if inst.Memplan.slot >= 0 && inst.Memplan.slot < nslots then
        match Hashtbl.find_opt expected inst.Memplan.key with
        | Some iv -> by_slot.(inst.Memplan.slot) <- iv :: by_slot.(inst.Memplan.slot)
        | None -> ())
    mp.Memplan.instances;
  let pairs = ref 0 in
  Array.iteri
    (fun s tenants ->
      let tenants = List.sort (fun a b -> compare (a.first, a.last) (b.first, b.last)) tenants in
      let rec scan = function
        | a :: (b :: _ as rest) ->
          incr pairs;
          if a.last > b.first then
            report
              (D.error ~pass ~loc:(loc_of_key b.key)
                 "slot %d aliases %s (live %d..%d) with %s (live %d..%d): overlapping live ranges"
                 s (key_str a.key) a.first a.last (key_str b.key) b.first b.last)
          else if a.last = b.first then
            report
              (D.error ~pass ~loc:(loc_of_key b.key)
                 "slot %d same-step read/write hazard: %s is still read at step %d where %s is written"
                 s (key_str a.key) a.last (key_str b.key));
          scan rest
        | _ -> ()
      in
      scan tenants)
    by_slot;
  let errs = List.length !findings in
  List.rev !findings
  @ [
      D.info ~pass ~loc:D.Whole
        "hazard: %d instance(s) audited over %d step(s), %d slot adjacency pair(s) checked, %d error(s)"
        (Array.length mp.Memplan.instances) steps !pairs errs;
    ]
