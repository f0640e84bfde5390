(* The static memory planner and the executor's arena-reuse mode.

   Hand-built plans pin down the planner's lifetime/slot mechanics; then
   orchestrated zoo models check the planner invariants at scale and
   prove the headline contract: [~reuse:true] produces bit-identical
   outputs to the allocate-everything executor — including on degraded
   plans produced under fault injection. *)

open Ir
open Tensor

let diamond () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let f = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let g1 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ f ] in
  let g2 = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ f ] in
  let k = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ g1; g2 ] in
  Primgraph.B.set_outputs b [ k ];
  (Primgraph.B.finish b, f, g1, g2, k)

let kernel ?(latency = 1.0) prims outputs =
  Runtime.Plan.{ prims; outputs; latency_us = latency; backend = "tvm" }

(* ---------------- planner invariants ---------------- *)

(* The three properties every plan must satisfy, whatever the model:
   well-formed lifetimes, slot capacity >= every tenant, and slot
   exclusivity — two instances may share a slot only when their
   [birth, death] intervals are disjoint (strictly: the earlier death
   precedes the later birth, matching the planner's same-step
   read/write hazard rule). *)
let check_invariants label (mp : Runtime.Memplan.t) =
  let insts = mp.Runtime.Memplan.instances in
  Array.iter
    (fun (i : Runtime.Memplan.instance) ->
      if i.Runtime.Memplan.birth > i.Runtime.Memplan.death then
        Alcotest.failf "%s: %s born after death (%d > %d)" label
          (Runtime.Memplan.string_of_key i.Runtime.Memplan.key)
          i.Runtime.Memplan.birth i.Runtime.Memplan.death;
      if i.Runtime.Memplan.bytes > mp.Runtime.Memplan.slot_bytes.(i.Runtime.Memplan.slot) then
        Alcotest.failf "%s: %s (%d B) overflows slot %d (%d B)" label
          (Runtime.Memplan.string_of_key i.Runtime.Memplan.key)
          i.Runtime.Memplan.bytes i.Runtime.Memplan.slot
          mp.Runtime.Memplan.slot_bytes.(i.Runtime.Memplan.slot))
    insts;
  Array.iteri
    (fun a (ia : Runtime.Memplan.instance) ->
      Array.iteri
        (fun bidx (ib : Runtime.Memplan.instance) ->
          if
            a < bidx
            && ia.Runtime.Memplan.slot = ib.Runtime.Memplan.slot
            && not
                 (ia.Runtime.Memplan.death < ib.Runtime.Memplan.birth
                 || ib.Runtime.Memplan.death < ia.Runtime.Memplan.birth)
          then
            Alcotest.failf "%s: %s [%d,%d] and %s [%d,%d] overlap in slot %d" label
              (Runtime.Memplan.string_of_key ia.Runtime.Memplan.key)
              ia.Runtime.Memplan.birth ia.Runtime.Memplan.death
              (Runtime.Memplan.string_of_key ib.Runtime.Memplan.key)
              ib.Runtime.Memplan.birth ib.Runtime.Memplan.death ia.Runtime.Memplan.slot)
        insts)
    insts;
  let s = Runtime.Memplan.stats mp in
  Alcotest.(check int)
    (label ^ ": peak is the arena footprint")
    (Array.fold_left ( + ) 0 mp.Runtime.Memplan.slot_bytes)
    s.Runtime.Memplan.peak_bytes;
  Alcotest.(check bool)
    (label ^ ": reuse never exceeds allocate-everything")
    true
    (s.Runtime.Memplan.peak_bytes <= s.Runtime.Memplan.no_reuse_bytes
    && s.Runtime.Memplan.live_peak_bytes <= s.Runtime.Memplan.peak_bytes)

let test_diamond_lifetimes () =
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make
      [ kernel [ f ] [ f ]; kernel [ g1 ] [ g1 ]; kernel [ g2 ] [ g2 ]; kernel [ k ] [ k ] ]
  in
  let mp = Runtime.Memplan.analyze g plan in
  check_invariants "diamond" mp;
  let s = Runtime.Memplan.stats mp in
  (* Four published values over eight steps (4 evals + 4 publishes). *)
  Alcotest.(check int) "instances" 4 s.Runtime.Memplan.instances;
  Alcotest.(check int) "steps" 8 s.Runtime.Memplan.steps;
  (* f dies once both branches have read it, so the final add can recycle
     its slot: three slots carry four tensors. *)
  Alcotest.(check int) "slots" 3 s.Runtime.Memplan.slots;
  (* The graph output lives to the end: its death is the sentinel step. *)
  Array.iter
    (fun (i : Runtime.Memplan.instance) ->
      if i.Runtime.Memplan.key = Runtime.Memplan.Published k then
        Alcotest.(check int) "output death is sentinel" s.Runtime.Memplan.steps
          i.Runtime.Memplan.death)
    mp.Runtime.Memplan.instances

let test_redundant_plan_internals () =
  (* Both branch kernels recompute f privately; the planner must track the
     two short-lived internal copies separately from published values. *)
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make
      [ kernel [ f; g1 ] [ g1 ]; kernel [ f; g2 ] [ g2 ]; kernel [ k ] [ k ] ]
  in
  let mp = Runtime.Memplan.analyze g plan in
  check_invariants "redundant" mp;
  let internals =
    Array.to_list mp.Runtime.Memplan.instances
    |> List.filter (fun (i : Runtime.Memplan.instance) ->
           match i.Runtime.Memplan.key with
           | Runtime.Memplan.Internal (_, n) -> n = f
           | Runtime.Memplan.Published _ -> false)
  in
  Alcotest.(check int) "one private f per branch kernel" 2 (List.length internals);
  (* Each private copy dies inside its own kernel, before that kernel's
     publish step. *)
  List.iter
    (fun (i : Runtime.Memplan.instance) ->
      match i.Runtime.Memplan.key with
      | Runtime.Memplan.Internal (ki, _) ->
        Alcotest.(check bool) "internal dies before publish" true
          (i.Runtime.Memplan.death <= mp.Runtime.Memplan.publish_step.(ki))
      | Runtime.Memplan.Published _ -> ())
    internals

let test_bytes_per_element_scales () =
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make
      [ kernel [ f ] [ f ]; kernel [ g1 ] [ g1 ]; kernel [ g2 ] [ g2 ]; kernel [ k ] [ k ] ]
  in
  let s8 = Runtime.Memplan.stats (Runtime.Memplan.analyze ~bytes_per_element:8 g plan) in
  let s4 = Runtime.Memplan.stats (Runtime.Memplan.analyze ~bytes_per_element:4 g plan) in
  Alcotest.(check int) "halving the element width halves the peak"
    s8.Runtime.Memplan.peak_bytes
    (2 * s4.Runtime.Memplan.peak_bytes);
  Alcotest.(check (float 1e-9)) "reuse ratio is width-independent"
    s8.Runtime.Memplan.reuse_ratio s4.Runtime.Memplan.reuse_ratio

(* ---------------- orchestrated models ---------------- *)

let inputs_of (g : Opgraph.t) seed =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Optype.Input name -> Some (name, Nd.randn (Rng.create seed) nd.Graph.shape)
         | _ -> None)

let build_model (e : Models.Registry.entry) =
  Fission.Canonicalize.fold_batch_norms (e.Models.Registry.build_small ())

let orchestrate ?(faults = []) (e : Models.Registry.entry) =
  let g = build_model e in
  let r =
    Faults.with_policy ~seed:1 faults (fun () ->
        Korch.Orchestrator.run Korch.Orchestrator.default_config g)
  in
  (g, r)

let model_cases = [ Models.Registry.candy; Models.Registry.yolox ]

let test_zoo_plan_invariants () =
  List.iter
    (fun e ->
      let _, r = orchestrate e in
      let mp = Runtime.Memplan.analyze r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan in
      check_invariants e.Models.Registry.name mp;
      let s = Runtime.Memplan.stats mp in
      Alcotest.(check bool)
        (e.Models.Registry.name ^ ": reuse actually helps")
        true
        (s.Runtime.Memplan.reuse_ratio > 0.0
        && s.Runtime.Memplan.peak_bytes < s.Runtime.Memplan.no_reuse_bytes))
    model_cases

(* Bit-level equality: stricter than [Nd.equal ~eps:0.0] around NaN and
   signed zeros — the reuse contract is "the same bits", so test that. *)
let bits_equal (a : Nd.t) (b : Nd.t) =
  Shape.equal a.Nd.shape b.Nd.shape
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Nd.data b.Nd.data

let check_reuse_matches label g (r : Korch.Orchestrator.result) ~inputs =
  let plain =
    Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs
  in
  let stats = Runtime.Executor.fresh_stats () in
  let reused =
    Runtime.Executor.run ~reuse:true ~stats r.Korch.Orchestrator.graph
      r.Korch.Orchestrator.plan ~inputs
  in
  List.iteri
    (fun i (p, q) ->
      if not (bits_equal p q) then
        Alcotest.failf "%s: output %d differs between reuse off/on" label i)
    (List.combine plain reused);
  (* The arena really recycled something, and the plan still matches the
     operator-graph reference. *)
  Alcotest.(check bool) (label ^ ": buffers were freed early") true (stats.Runtime.Executor.freed > 0);
  let op_ref = Runtime.Interp.run g ~inputs in
  List.iteri
    (fun i (e', a) ->
      if not (Nd.allclose ~rtol:1e-4 ~atol:1e-6 e' a) then
        Alcotest.failf "%s: output %d diverges from reference (max %g)" label i
          (Nd.max_abs_diff e' a))
    (List.combine op_ref reused)

let test_zoo_reuse_bit_identical () =
  List.iter
    (fun e ->
      let g, r = orchestrate e in
      check_reuse_matches e.Models.Registry.name g r ~inputs:(inputs_of g 202))
    model_cases

(* Degraded plans (injected BLP failure, injected profiler failure) change
   kernel grouping and lifetimes — the planner and the reuse mode must
   hold there too. *)
let test_reuse_under_faults () =
  List.iter
    (fun (site, policy, tag) ->
      List.iter
        (fun e ->
          let label = Printf.sprintf "%s/%s" tag e.Models.Registry.name in
          let g, r = orchestrate ~faults:[ (site, policy) ] e in
          let mp =
            Runtime.Memplan.analyze r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan
          in
          check_invariants label mp;
          check_reuse_matches label g r ~inputs:(inputs_of g 303))
        model_cases)
    [
      (Faults.Ilp_solve, Faults.Always, "ilp_solve");
      (Faults.Profiler, Faults.Always, "profiler");
      (Faults.Transform, Faults.Always, "transform");
    ]

let () =
  Alcotest.run "mem"
    [
      ( "planner",
        [ Alcotest.test_case "diamond lifetimes" `Quick test_diamond_lifetimes;
          Alcotest.test_case "redundant internals" `Quick test_redundant_plan_internals;
          Alcotest.test_case "element width scaling" `Quick test_bytes_per_element_scales ] );
      ( "zoo",
        [ Alcotest.test_case "plan invariants" `Slow test_zoo_plan_invariants;
          Alcotest.test_case "reuse bit-identical" `Slow test_zoo_reuse_bit_identical ] );
      ( "faults",
        [ Alcotest.test_case "reuse under injection" `Slow test_reuse_under_faults ] );
    ]
