(** Static memory planner for stitched plans.

    The executor materializes one dense tensor per primitive evaluation;
    without planning, every one of them is a fresh allocation that lives
    until the GC collects it. This module computes, purely from the plan's
    kernel order, how long each tensor instance is actually needed — a
    classic last-use (liveness) analysis — and then assigns instances to a
    small set of reusable arena slots by greedy best-fit on byte size
    ({!pack}), the same discipline a device-side arena allocator would
    use; the C emitter packs each kernel's temporaries with it too. The
    resulting {!stats} (peak bytes, no-reuse bytes, reuse ratio, slot
    count) are the memory-cost signal reported next to plan latency, and
    the step-indexed {!deaths} schedule drives {!Executor.run}'s
    [~reuse:true] mode.

    Two kinds of tensor instance exist, mirroring the executor's two
    environments:

    - [Published p] — node [p]'s value as published to the global
      environment by a kernel declaring [p] as an output. Redundant
      computation (§4.2) can republish the same node from several kernels;
      those republications are merged into one conservative instance whose
      lifetime spans from the first computing evaluation to the last
      external read (or to the end of the run for graph outputs).
    - [Internal (ki, p)] — node [p]'s value recomputed privately inside
      kernel [ki] without being published. It dies at its last consumer
      within that kernel.

    Graph sources (inputs and constants) are caller-owned and excluded from
    planning.

    The execution timeline is a step stream: one step per member-primitive
    evaluation, in the exact order the executor evaluates them (the
    plan-order restriction of the graph's topological order), plus one
    publish step per kernel. An instance born at step [b] may only recycle
    a slot whose previous tenant died strictly before [b]: at step [b] the
    producing primitive still reads its arguments, so a buffer whose last
    use is step [b] cannot double as the destination of step [b]. *)

open Ir
open Tensor

type key = Published of int | Internal of int * int

type instance = {
  key : key;
  shape : Shape.t;
  bytes : int;
  birth : int;  (** step of the (first) evaluation producing this value *)
  death : int;  (** last step the value is read; [steps] for graph outputs *)
  slot : int;  (** arena slot assigned by best-fit *)
}

type stats = {
  instances : int;  (** planned tensor instances (sources excluded) *)
  steps : int;  (** evaluation + publish steps in the plan *)
  slots : int;  (** arena slots after reuse *)
  no_reuse_bytes : int;  (** sum of all instance sizes: the allocate-everything cost *)
  peak_bytes : int;  (** sum of slot capacities: the arena footprint with reuse *)
  live_peak_bytes : int;  (** max bytes simultaneously live (lower bound on any arena) *)
  reuse_ratio : float;  (** [1 - peak_bytes / no_reuse_bytes]; [0.] when nothing to reuse *)
}

type t = {
  publish_step : int array;  (** per kernel: the step its outputs are published *)
  instances : instance array;  (** all planned instances, in birth order *)
  deaths : key list array;  (** [deaths.(s)]: instances to release after step [s]; length [steps + 1], the last bucket holding graph outputs *)
  slot_bytes : int array;  (** final capacity of each slot *)
  stats : stats;
}

let string_of_key = function
  | Published p -> Printf.sprintf "pub:%d" p
  | Internal (ki, p) -> Printf.sprintf "k%d:%d" ki p

(* ------------------------------------------------------------------ *)
(* Greedy best-fit slot assignment                                     *)
(* ------------------------------------------------------------------ *)

let pack (spans : (int * int * int) array) : int array * int array =
  let capacity = ref [||] in
  let tenant_death = ref [||] in
  let nslots = ref 0 in
  let push cap dth =
    let s = !nslots in
    if s = Array.length !capacity then begin
      let grow a fill = Array.append a (Array.make (max 4 (Array.length a)) fill) in
      capacity := grow !capacity 0;
      tenant_death := grow !tenant_death (-1)
    end;
    !capacity.(s) <- cap;
    !tenant_death.(s) <- dth;
    incr nslots;
    s
  in
  let assign (birth, death, size) =
    (* A slot is free iff its last tenant died strictly before this birth. *)
    let best_fit = ref (-1) in
    let largest_free = ref (-1) in
    for s = 0 to !nslots - 1 do
      if !tenant_death.(s) < birth then begin
        let c = !capacity.(s) in
        if c >= size && (!best_fit < 0 || c < !capacity.(!best_fit)) then best_fit := s;
        if !largest_free < 0 || c > !capacity.(!largest_free) then largest_free := s
      end
    done;
    let s =
      if !best_fit >= 0 then !best_fit
      else if !largest_free >= 0 then begin
        (* Grow the biggest free slot rather than opening a new one. *)
        !capacity.(!largest_free) <- size;
        !largest_free
      end
      else push size death
    in
    !tenant_death.(s) <- death;
    s
  in
  let slots = Array.map assign spans in
  (slots, Array.sub !capacity 0 !nslots)

(* ------------------------------------------------------------------ *)
(* Lifetime analysis                                                   *)
(* ------------------------------------------------------------------ *)

let analyze ?(bytes_per_element = 8) (g : Primgraph.t) (plan : Plan.t) : t =
  let n = Graph.length g in
  let kernels = Array.of_list plan.Plan.kernels in
  let nk = Array.length kernels in
  let members = Array.map (fun k -> Bitset.of_list n k.Plan.prims) kernels in
  let outset = Array.map (fun k -> Bitset.of_list n k.Plan.outputs) kernels in
  let order = Plan.member_orders g plan in
  (* Step numbering: member evaluations in executor order, then one publish
     step closing each kernel. *)
  let eval_step : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let publish_step = Array.make nk 0 in
  let step = ref 0 in
  Array.iteri
    (fun ki ord ->
      List.iter
        (fun p ->
          Hashtbl.replace eval_step (ki, p) !step;
          incr step)
        ord;
      publish_step.(ki) <- !step;
      incr step)
    order;
  let steps = !step in
  let key_of ki p = if Bitset.mem outset.(ki) p then Published p else Internal (ki, p) in
  (* birth = earliest producing evaluation, death = latest read. *)
  let birth : (key, int) Hashtbl.t = Hashtbl.create 256 in
  let death : (key, int) Hashtbl.t = Hashtbl.create 256 in
  let shape_of : (key, Shape.t) Hashtbl.t = Hashtbl.create 256 in
  let note tbl pick k s =
    match Hashtbl.find_opt tbl k with
    | Some s0 -> Hashtbl.replace tbl k (pick s0 s)
    | None -> Hashtbl.replace tbl k s
  in
  Array.iteri
    (fun ki ord ->
      List.iter
        (fun p ->
          let s = Hashtbl.find eval_step (ki, p) in
          let k = key_of ki p in
          note birth min k s;
          (* An instance with no consumer still occupies its buffer for the
             step that produces it. *)
          note death max k s;
          Hashtbl.replace shape_of k (Graph.node g p).Graph.shape;
          (* Reads: every argument is last-used no earlier than here. *)
          List.iter
            (fun i ->
              if Bitset.mem members.(ki) i then note death max (key_of ki i) s
              else if not (Primitive.is_source (Graph.node g i).Graph.op) then
                (* External read of a previously published tensor. *)
                note death max (Published i) s)
            (Graph.node g p).Graph.inputs)
        ord;
      (* Published outputs live at least until their publish step. *)
      List.iter
        (fun o -> note death max (Published o) publish_step.(ki))
        kernels.(ki).Plan.outputs)
    order;
  (* Graph outputs survive the whole run: park them in the end sentinel
     bucket the executor never drains. *)
  List.iter
    (fun o ->
      if Hashtbl.mem birth (Published o) then note death max (Published o) steps)
    g.Graph.outputs;
  let insts =
    Hashtbl.fold
      (fun k b acc ->
        let shape = Hashtbl.find shape_of k in
        let bytes = Shape.numel shape * bytes_per_element in
        { key = k; shape; bytes; birth = b; death = Hashtbl.find death k; slot = -1 }
        :: acc)
      birth []
  in
  let insts =
    List.sort (fun a b -> compare (a.birth, a.key) (b.birth, b.key)) insts
    |> Array.of_list
  in
  let slots, slot_bytes = pack (Array.map (fun i -> (i.birth, i.death, i.bytes)) insts) in
  let insts = Array.mapi (fun j i -> { i with slot = slots.(j) }) insts in
  (* ---------------------------------------------------------------- *)
  (* Stats                                                             *)
  (* ---------------------------------------------------------------- *)
  let no_reuse_bytes = Array.fold_left (fun a i -> a + i.bytes) 0 insts in
  let peak_bytes = Array.fold_left ( + ) 0 slot_bytes in
  let live_peak_bytes =
    (* Sweep the step stream: an instance occupies bytes on [birth, death]. *)
    let delta = Array.make (steps + 2) 0 in
    Array.iter
      (fun i ->
        delta.(i.birth) <- delta.(i.birth) + i.bytes;
        delta.(i.death + 1) <- delta.(i.death + 1) - i.bytes)
      insts;
    let live = ref 0 and peak = ref 0 in
    Array.iter
      (fun d ->
        live := !live + d;
        if !live > !peak then peak := !live)
      delta;
    !peak
  in
  let deaths = Array.make (steps + 1) [] in
  Array.iter
    (fun i ->
      let b = min i.death steps in
      deaths.(b) <- i.key :: deaths.(b))
    insts;
  let reuse_ratio =
    if no_reuse_bytes = 0 then 0.0
    else 1.0 -. (float_of_int peak_bytes /. float_of_int no_reuse_bytes)
  in
  {
    publish_step;
    instances = insts;
    deaths;
    slot_bytes;
    stats =
      {
        instances = Array.length insts;
        steps;
        slots = Array.length slot_bytes;
        no_reuse_bytes;
        peak_bytes;
        live_peak_bytes;
        reuse_ratio;
      };
  }

let stats (t : t) = t.stats

let slot_of (t : t) (k : key) : int option =
  Array.fold_left
    (fun acc (i : instance) -> if i.key = k then Some i.slot else acc)
    None t.instances

let slot_assignment (t : t) : (key * int) list =
  Array.to_list (Array.map (fun (i : instance) -> (i.key, i.slot)) t.instances)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "instances=%d steps=%d slots=%d no_reuse=%dB peak=%dB live_peak=%dB reuse=%.1f%%"
    s.instances s.steps s.slots s.no_reuse_bytes s.peak_bytes s.live_peak_bytes
    (100.0 *. s.reuse_ratio)
