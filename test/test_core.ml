(* Tests for the kernel orchestration core: execution-state enumeration
   counts, kernel identification validity, the BLP formulation, the
   scheduler's deadlock handling, the exact segment solver, partitioning, and end-to-end
   orchestration equivalence. *)

open Ir
open Tensor

let rng = Rng.create 777

let chain_graph n =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 8 |] in
  let prev = ref x in
  for _ = 1 to n do
    prev := Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ !prev ]
  done;
  Primgraph.B.set_outputs b [ !prev ];
  Primgraph.B.finish b

let diamond_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 8 |] in
  let f = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let g1 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ f ] in
  let g2 = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ f ] in
  let k = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ g1; g2 ] in
  Primgraph.B.set_outputs b [ k ];
  Primgraph.B.finish b

(* ---------------- execution states ---------------- *)

let test_states_chain () =
  (* A chain of n primitives has exactly n+1 execution states. *)
  List.iter
    (fun n ->
      let g = chain_graph n in
      let states, truncated = Korch.Exec_state.enumerate_bounded g ~max_states:10_000 in
      Alcotest.(check bool) "not truncated" false truncated;
      Alcotest.(check int) (Printf.sprintf "chain %d" n) (n + 1) (List.length states))
    [ 1; 3; 7 ]

let test_states_diamond () =
  (* Diamond: {}, {f}, {f,g1}, {f,g2}, {f,g1,g2}, all = 6 states. *)
  let g = diamond_graph () in
  let states, truncated = Korch.Exec_state.enumerate_bounded g ~max_states:10_000 in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "diamond states" 6 (List.length states)

let test_states_width_explosion_guard () =
  (* A wide graph of 18 independent primitives has 2^18 states: the guard
     must bind, keeping exactly as many states as it allows. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2 |] in
  let outs = List.init 18 (fun _ -> Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ]) in
  Primgraph.B.set_outputs b outs;
  let g = Primgraph.B.finish b in
  let states, truncated = Korch.Exec_state.enumerate_bounded g ~max_states:1000 in
  Alcotest.(check bool) "truncated" true truncated;
  Alcotest.(check int) "states kept" 1000 (List.length states)

(* ---------------- kernel identification ---------------- *)

let identify g =
  Korch.Kernel_identifier.identify ~max_tvm_prims:Gpu.Profiler.max_tvm_prims
    ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32 ~cache:(Gpu.Profile_cache.create ()) g

let test_identifier_chain_counts () =
  (* A chain of n <= max_tvm_prims primitives has n(n+1)/2 contiguous
     convex subgraphs. *)
  let g = chain_graph 5 in
  let _, stats = identify g in
  Alcotest.(check int) "subgraphs" (5 * 6 / 2) stats.Korch.Kernel_identifier.distinct_subgraphs

let test_identifier_validity () =
  let g = diamond_graph () in
  let cands, _ = identify g in
  Alcotest.(check bool) "has candidates" true (Array.length cands > 0);
  Array.iter
    (fun (c : Korch.Candidate.t) ->
      Alcotest.(check bool) "members convex" true (Graph.is_convex g c.Korch.Candidate.members);
      Alcotest.(check bool) "outputs are members" true
        (List.for_all (fun o -> Bitset.mem c.Korch.Candidate.members o) c.Korch.Candidate.outputs);
      Alcotest.(check bool) "outputs non-empty" true (c.Korch.Candidate.outputs <> []);
      Alcotest.(check bool) "positive latency" true (c.Korch.Candidate.latency_us > 0.0);
      (* outputs satisfy Definition 3 relative to the boundary *)
      let boundary = Graph.boundary_outputs g c.Korch.Candidate.members in
      Alcotest.(check bool) "outputs in boundary" true
        (List.for_all (fun o -> List.mem o boundary) c.Korch.Candidate.outputs))
    cands

let test_identifier_singletons_present () =
  let g = diamond_graph () in
  let cands, _ = identify g in
  List.iter
    (fun id ->
      let found =
        Array.exists
          (fun (c : Korch.Candidate.t) ->
            Bitset.elements c.Korch.Candidate.members = [ id ]
            && c.Korch.Candidate.outputs = [ id ])
          cands
      in
      Alcotest.(check bool) (Printf.sprintf "singleton %d" id) true found)
    (Primgraph.non_source_nodes g)

(* ---------------- BLP oracle (test-side §4.2 formulation) ---------------- *)

let test_blp_rows () =
  let g = chain_graph 2 in
  let cands, _ = identify g in
  let p = Blp_oracle.build g cands in
  Alcotest.(check int) "one variable per candidate" (Array.length cands)
    (Array.length p.Blp_oracle.minimize);
  (* output rows: 1 graph output; dependency rows: one per (kernel,
     non-source ext input). *)
  let expected_dep =
    Array.to_list cands
    |> List.concat_map (fun (c : Korch.Candidate.t) ->
           List.filter
             (fun j -> not (Primitive.is_source (Graph.op g j)))
             c.Korch.Candidate.ext_inputs)
    |> List.length
  in
  Alcotest.(check int) "row count" (1 + expected_dep) (List.length p.Blp_oracle.rows)

(* An odd cycle of three covering rows over unit costs: two variables. *)
let test_blp_exhaustive_known () =
  let p =
    Blp_oracle.
      {
        minimize = [| 1.; 1.; 1. |];
        rows =
          [ At_least ([| 1; 1; 0 |], 1); At_least ([| 0; 1; 1 |], 1); At_least ([| 1; 0; 1 |], 1) ];
      }
  in
  match Blp_oracle.solve p with
  | Some (_, obj) -> Alcotest.(check (float 1e-9)) "exhaustive" 2.0 obj
  | None -> Alcotest.fail "exhaustive found nothing"

(* ---------------- scheduler ---------------- *)

let test_scheduler_orders_dependencies () =
  let g = chain_graph 3 in
  let n = Graph.length g in
  let prims = Primgraph.non_source_nodes g in
  let cand id =
    Korch.Candidate.
      {
        members = Bitset.of_list n [ id ];
        outputs = [ id ];
        ext_inputs = Graph.external_inputs g (Bitset.of_list n [ id ]);
        latency_us = 1.0;
        backend = Gpu.Cost_model.Tvm;
      }
  in
  let cands = Array.of_list (List.map cand (List.rev prims)) in
  (* selected in reverse order: the scheduler must still find an order *)
  match Korch.Scheduler.schedule g cands ~selected:[ 0; 1; 2 ] with
  | Ok order ->
    (* kernel publishing the first chain node must run first *)
    Alcotest.(check int) "first kernel" 2 (List.hd order)
  | Error _ -> Alcotest.fail "schedulable set reported stuck"

let test_scheduler_detects_deadlock () =
  (* Two kernels publishing each other's inputs: a -> b and c -> d with
     K1 = {a, d} publishing a, K2 = {b, c} publishing c. *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2 |] in
  let a = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let b2 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ a ] in
  let c = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ x ] in
  let d = Primgraph.B.add b (Primitive.Unary Primitive.Tanh) [ c ] in
  Primgraph.B.set_outputs b [ b2; d ];
  let g = Primgraph.B.finish b in
  let n = Graph.length g in
  let k1 =
    Korch.Candidate.
      { members = Bitset.of_list n [ a; d ]; outputs = [ a; d ];
        ext_inputs = Graph.external_inputs g (Bitset.of_list n [ a; d ]);
        latency_us = 1.0; backend = Gpu.Cost_model.Tvm }
  in
  let k2 =
    Korch.Candidate.
      { members = Bitset.of_list n [ b2; c ]; outputs = [ b2; c ];
        ext_inputs = Graph.external_inputs g (Bitset.of_list n [ b2; c ]);
        latency_us = 1.0; backend = Gpu.Cost_model.Tvm }
  in
  match Korch.Scheduler.schedule g [| k1; k2 |] ~selected:[ 0; 1 ] with
  | Ok _ -> Alcotest.fail "deadlocked pair scheduled"
  | Error stuck -> Alcotest.(check (list int)) "both stuck" [ 0; 1 ] (List.sort compare stuck)

(* ---------------- segment solver ---------------- *)

(* The deadlock pair above, priced so that the BLP optimum is exactly
   that pair (cost 2) — Eqs. 3–4 hold, but neither kernel can run first.
   The cheapest path breaks the cycle with one singleton: a singleton,
   then the pair, cost 7. Two paths tie at 7; the smaller index sequence
   wins. The disjoint ablation may not re-execute the singleton's
   primitive, so it pays for a second singleton instead. *)
let test_solver_breaks_cycle () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2 |] in
  let a = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let b2 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ a ] in
  let c = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ x ] in
  let d = Primgraph.B.add b (Primitive.Unary Primitive.Tanh) [ c ] in
  Primgraph.B.set_outputs b [ b2; d ];
  let g = Primgraph.B.finish b in
  let n = Graph.length g in
  let cand members latency_us =
    let set = Bitset.of_list n members in
    Korch.Candidate.
      { members = set; outputs = members; ext_inputs = Graph.external_inputs g set; latency_us;
        backend = Gpu.Cost_model.Tvm }
  in
  let cands =
    [| cand [ a; d ] 1.0; cand [ b2; c ] 1.0; cand [ a ] 5.0; cand [ b2 ] 5.0; cand [ c ] 5.0;
       cand [ d ] 5.0 |]
  in
  (match Blp_oracle.solve (Blp_oracle.build g cands) with
  | Some (x, obj) ->
    Alcotest.(check (float 0.0)) "BLP optimum is the pair" 2.0 obj;
    Alcotest.(check bool) "and does not schedule" true
      (Result.is_error
         (Korch.Scheduler.schedule g cands
            ~selected:(List.filter (fun i -> x.(i) = 1) (List.init (Array.length cands) Fun.id))))
  | None -> Alcotest.fail "BLP infeasible");
  let solve disjoint =
    match Korch.Segment_solver.solve ~disjoint ~budget:1000 g cands with
    | Ok s -> (s.Korch.Segment_solver.order, s.Korch.Segment_solver.cost)
    | Error f -> Alcotest.fail (Korch.Segment_solver.failure_to_string f)
  in
  Alcotest.(check (pair (list int) (float 0.0))) "singleton, then the pair" ([ 2; 1; 0 ], 7.0)
    (solve false);
  Alcotest.(check (pair (list int) (float 0.0))) "disjoint: two singletons around one kernel"
    ([ 2; 1; 5 ], 11.0) (solve true);
  match Korch.Segment_solver.solve ~budget:2 g cands with
  | Error (Korch.Segment_solver.Budget_exhausted 2) -> ()
  | _ -> Alcotest.fail "a budget of two settled states must bind"

(* On every test-scale zoo segment, over the orchestrator's own
   candidates: the path with redundancy costs no more than the disjoint
   ablation's, and that costs no more than the unfused floor (every
   primitive's cheapest full singleton). *)
let test_solver_ordering_on_zoo () =
  let cfg = Korch.Orchestrator.default_config in
  let above a b = a > b +. (1e-9 *. Float.max 1.0 b) in
  let compared = ref 0 in
  List.iter
    (fun (e : Models.Registry.entry) ->
      let pg, _ = Fission.Engine.run (e.Models.Registry.build_small ()) in
      let cache = Gpu.Profile_cache.create () in
      List.iteri
        (fun i seg ->
          let r = Korch.Orchestrator.solve_segment cfg ~cache ~seg_index:i seg in
          let g = r.Korch.Orchestrator.transformed and cands = r.Korch.Orchestrator.candidates in
          let prims = Primgraph.non_source_nodes g in
          if prims <> [] then begin
            incr compared;
            let name = Printf.sprintf "%s segment %d" e.Models.Registry.name i in
            if r.Korch.Orchestrator.outcome.Korch.Orchestrator.tier <> Korch.Orchestrator.Optimal
            then Alcotest.failf "%s: not solved exactly" name;
            let path = r.Korch.Orchestrator.latency_us in
            let disjoint =
              match
                Korch.Segment_solver.solve ~disjoint:true
                  ~budget:Korch.Orchestrator.settled_state_limit g cands
              with
              | Ok s -> s.Korch.Segment_solver.cost
              | Error f ->
                Alcotest.failf "%s, disjoint: %s" name (Korch.Segment_solver.failure_to_string f)
            in
            let single = Array.make (Graph.length g) Float.infinity in
            Array.iter
              (fun (c : Korch.Candidate.t) ->
                match Bitset.elements c.Korch.Candidate.members with
                | [ id ] when c.Korch.Candidate.outputs = [ id ] ->
                  single.(id) <- Float.min single.(id) c.Korch.Candidate.latency_us
                | _ -> ())
              cands;
            let unfused = List.fold_left (fun a id -> a +. single.(id)) 0.0 prims in
            if above path disjoint then
              Alcotest.failf "%s: path %.17g above the disjoint path's %.17g" name path disjoint;
            if above disjoint unfused then
              Alcotest.failf "%s: disjoint path %.17g above unfused %.17g" name disjoint unfused
          end)
        (Korch.Partition.split pg ~max_prims:cfg.Korch.Orchestrator.partition_max_prims))
    Models.Registry.all;
  Alcotest.(check bool) (Printf.sprintf "segments compared (%d)" !compared) true (!compared > 50)

(* Test-scale decode's segment 1 is the widest zoo segment: parallel
   same-shape projections give it over a thousand candidates. It is
   solved over all of them, the synthesized singletons included, and
   beats the optimum over the 96 a candidate cap once kept
   (0x1.402cf508ff8a5p+4 us). *)
let test_solver_keeps_every_candidate () =
  let cfg = Korch.Orchestrator.default_config in
  let pg =
    Korch.Orchestrator.fission (Models.Registry.decode.Models.Registry.build_small ~batch:1 ())
  in
  let segs = Korch.Partition.split pg ~max_prims:cfg.Korch.Orchestrator.partition_max_prims in
  let r =
    Korch.Orchestrator.solve_segment cfg ~cache:(Gpu.Profile_cache.create ()) ~seg_index:1
      (List.nth segs 1)
  in
  let cands = r.Korch.Orchestrator.candidates in
  let identified, _ =
    Korch.Kernel_identifier.identify ~max_tvm_prims:cfg.Korch.Orchestrator.max_tvm_prims
      ~spec:cfg.Korch.Orchestrator.spec ~precision:cfg.Korch.Orchestrator.precision
      ~cache:(Gpu.Profile_cache.create ()) r.Korch.Orchestrator.transformed
  in
  let k = Array.length identified in
  let shape (c : Korch.Candidate.t) =
    (Bitset.elements c.Korch.Candidate.members, c.Korch.Candidate.outputs)
  in
  Alcotest.(check bool) (Printf.sprintf "over 1,000 candidates (%d)" (Array.length cands)) true
    (Array.length cands > 1000);
  Alcotest.(check bool) "every identified candidate, in order" true
    (Array.length cands >= k && Array.map shape (Array.sub cands 0 k) = Array.map shape identified);
  Array.iter
    (fun (c : Korch.Candidate.t) ->
      match shape c with
      | [ id ], [ o ] when id = o -> ()
      | _ -> Alcotest.fail "an appended candidate is not a singleton")
    (Array.sub cands k (Array.length cands - k));
  Alcotest.(check bool) "optimal" true
    (r.Korch.Orchestrator.outcome.Korch.Orchestrator.tier = Korch.Orchestrator.Optimal);
  Alcotest.(check bool)
    (Printf.sprintf "cost %h below the capped optimum" r.Korch.Orchestrator.latency_us)
    true
    (r.Korch.Orchestrator.latency_us < 0x1.402cf508ff8a5p+4)

(* The exact smoke models' plans reproduce at -j 4 bit for bit. *)
let test_paper_scale_jobs_identity () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let g = e.Models.Registry.build ~batch:1 () in
      let run jobs = Korch.Orchestrator.run { Korch.Orchestrator.default_config with jobs } g in
      let a = run 1 and b = run 4 in
      Alcotest.(check bool) (e.Models.Registry.name ^ ": every segment optimal") true
        (List.for_all
           (fun s -> s.Korch.Orchestrator.outcome.Korch.Orchestrator.tier = Korch.Orchestrator.Optimal)
           a.Korch.Orchestrator.segments);
      Alcotest.(check bool) (e.Models.Registry.name ^ ": -j 1 and -j 4 plans identical") true
        (a.Korch.Orchestrator.plan = b.Korch.Orchestrator.plan
        && a.Korch.Orchestrator.graph = b.Korch.Orchestrator.graph))
    [ Models.Registry.candy; Models.Registry.decode ]

(* ---------------- partition + stitch ---------------- *)

let test_partition_covers_once () =
  let e = Models.Registry.candy in
  let g = e.Models.Registry.build_small () in
  let pg, _ = Fission.Engine.run g in
  let segments = Korch.Partition.split pg ~max_prims:7 in
  Alcotest.(check bool) "multiple segments" true (List.length segments > 1);
  (* segments partition the executable primitives: counts add up *)
  let total_prims =
    List.fold_left
      (fun acc s -> acc + List.length (Primgraph.non_source_nodes s.Korch.Partition.local))
      0 segments
  in
  Alcotest.(check int) "all primitives covered once"
    (List.length (Primgraph.non_source_nodes pg)) total_prims

let test_partition_size_bound () =
  let e = Models.Registry.yolox in
  let g = e.Models.Registry.build_small () in
  let pg, _ = Fission.Engine.run g in
  let segments = Korch.Partition.split pg ~max_prims:9 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "segment size bound" true
        (List.length (Primgraph.non_source_nodes s.Korch.Partition.local) <= 9))
    segments

let test_placeholder_roundtrip () =
  Alcotest.(check (option int)) "parse" (Some 42)
    (Korch.Partition.parse_placeholder (Korch.Partition.placeholder_name 42));
  Alcotest.(check (option int)) "reject plain names" None
    (Korch.Partition.parse_placeholder "input")

(* ---------------- orchestrator end-to-end ---------------- *)

let orch_cfg = Korch.Orchestrator.default_config

let attention_graph () = Models.Segformer.attention_subgraph ~batch:1 ~tokens:16 ~channels:8 ()

let test_orchestrator_attention_equivalence () =
  let g = attention_graph () in
  let r = Korch.Orchestrator.run orch_cfg g in
  (match Runtime.Executor.validate r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid plan: %s" m);
  let inputs =
    [ ("q", Nd.randn rng [| 1; 16; 8 |]); ("k", Nd.randn rng [| 1; 16; 8 |]);
      ("v", Nd.randn rng [| 1; 16; 8 |]) ]
  in
  let expected = Runtime.Interp.run g ~inputs in
  let got = Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs in
  List.iter2
    (fun e a ->
      Alcotest.(check bool) "plan output matches interpreter" true
        (Nd.allclose ~rtol:1e-5 ~atol:1e-7 e a))
    expected got

let test_orchestrator_beats_eager () =
  let g = attention_graph () in
  let r = Korch.Orchestrator.run orch_cfg g in
  let env =
    Baselines.Common.make_env ~spec:orch_cfg.Korch.Orchestrator.spec
      ~precision:orch_cfg.Korch.Orchestrator.precision g
  in
  let eager = Baselines.Eager.run env in
  Alcotest.(check bool) "korch <= eager" true
    (r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
    <= eager.Runtime.Plan.total_latency_us +. 1e-6)

let test_orchestrator_stats_populated () =
  let g = attention_graph () in
  let r = Korch.Orchestrator.run orch_cfg g in
  Alcotest.(check bool) "states > 0" true (r.Korch.Orchestrator.total_states > 0);
  Alcotest.(check bool) "candidates > 0" true (r.Korch.Orchestrator.total_candidates > 0);
  Alcotest.(check bool) "tuning time accumulated" true (r.Korch.Orchestrator.tuning_time_s > 0.0);
  Alcotest.(check bool) "kernels selected" true
    (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan > 0)

let test_orchestrator_softmax_fissioned_into_multiple_kernels () =
  (* The headline behaviour: softmax primitives end up in more than one
     kernel (mapped together with neighbours), not as one monolithic
     kernel per operator. *)
  let g = attention_graph () in
  let r = Korch.Orchestrator.run orch_cfg g in
  let plan_kernels = Runtime.Plan.kernel_count r.Korch.Orchestrator.plan in
  let eager_ops = 6 (* transpose matmul mul softmax matmul + const? *) in
  ignore eager_ops;
  Alcotest.(check bool) "multiple kernels" true (plan_kernels >= 2)

let test_orchestrator_redundancy_nonnegative () =
  let g = Models.Efficientvit.fig8_attention_block ~batch:1 ~tokens:32 ~channels:8 () in
  let r = Korch.Orchestrator.run orch_cfg g in
  Alcotest.(check bool) "redundancy >= 0" true
    (Runtime.Plan.redundancy r.Korch.Orchestrator.plan >= 0);
  (match Runtime.Executor.validate r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid plan: %s" m)

let test_orchestrator_partitioned_equivalence () =
  (* Small Candy forced through many partitions still computes the same
     function. *)
  let g = Models.Candy.build ~batch:1 ~resolution:16 ~width:4 ~blocks:1 () in
  let cfg = { orch_cfg with Korch.Orchestrator.partition_max_prims = 6 } in
  let r = Korch.Orchestrator.run cfg g in
  let inputs = [ ("input", Nd.randn rng [| 1; 3; 16; 16 |]) ] in
  let expected = Runtime.Interp.run g ~inputs in
  let got = Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs in
  List.iter2
    (fun e a ->
      Alcotest.(check bool) "partitioned plan matches" true
        (Nd.allclose ~rtol:1e-4 ~atol:1e-6 e a))
    expected got

(* Calibrate.record folds hand-built native timings into the measured
   store: best-of-N per kernel signature, out-of-range indices skipped. *)
let test_calibrate_record () =
  Gpu.Profile_cache.reset_measured ();
  let r = Korch.Orchestrator.run orch_cfg (attention_graph ()) in
  let g = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
  let n = Runtime.Plan.kernel_count plan in
  let stats = Runtime.Backend.fresh_exec_stats () in
  stats.Runtime.Backend.kernel_times_us <- [ (0, 5.0); (n, 1.0); (0, 3.0); (-1, 0.5); (0, 4.0) ];
  Alcotest.(check int) "out-of-range samples skipped" 3 (Korch.Calibrate.record g plan stats);
  let key = Korch.Calibrate.kernel_key g (List.hd plan.Runtime.Plan.kernels) in
  Alcotest.(check (option (float 0.0))) "best sample kept" (Some 3.0)
    (Gpu.Profile_cache.measured_us key);
  Alcotest.(check int) "every sample counted" 3 (Gpu.Profile_cache.measured_count key)

(* ------------------------- plan tables ------------------------- *)

let decode_build ~batch = Models.Registry.decode.Models.Registry.build_small ~batch ()

let decode_table =
  lazy (Korch.Plan_table.build orch_cfg ~model:"decode" ~build:decode_build ~lo:1 ~hi:8)

let test_plan_table_partition () =
  let tab = Lazy.force decode_table in
  Alcotest.(check int) "lo" 1 tab.Korch.Plan_table.lo;
  Alcotest.(check int) "hi" 8 tab.Korch.Plan_table.hi;
  (* Ranges partition [lo, hi]: contiguous, ascending, covering. *)
  let rec walk expect = function
    | [] -> Alcotest.(check int) "ranges end at hi" (tab.Korch.Plan_table.hi + 1) expect
    | (r : Korch.Plan_table.range) :: rest ->
      Alcotest.(check int) "range starts where the previous ended" expect
        r.Korch.Plan_table.lo;
      Alcotest.(check bool) "range non-empty" true
        (r.Korch.Plan_table.lo <= r.Korch.Plan_table.hi);
      Alcotest.(check bool) "anchor inside the range" true
        (r.Korch.Plan_table.anchor >= r.Korch.Plan_table.lo
        && r.Korch.Plan_table.anchor <= r.Korch.Plan_table.hi);
      walk (r.Korch.Plan_table.hi + 1) rest
  in
  walk tab.Korch.Plan_table.lo tab.Korch.Plan_table.ranges;
  Alcotest.(check (list int)) "crossovers are the later range starts"
    (List.map
       (fun (r : Korch.Plan_table.range) -> r.Korch.Plan_table.lo)
       (List.tl tab.Korch.Plan_table.ranges))
    tab.Korch.Plan_table.crossovers;
  (* Every batch in the table lies in exactly one range. *)
  let holding b =
    List.filter
      (fun (r : Korch.Plan_table.range) -> b >= r.Korch.Plan_table.lo && b <= r.Korch.Plan_table.hi)
      tab.Korch.Plan_table.ranges
  in
  for b = 1 to 8 do
    Alcotest.(check int) (Printf.sprintf "ranges holding batch %d" b) 1 (List.length (holding b))
  done;
  Alcotest.(check int) "no range holds batch 9" 0 (List.length (holding 9))

let test_plan_table_anchor_identity () =
  (* A range's stored plan is the verbatim fixed-batch orchestration
     output at its anchor — same config, same graph, bit for bit. *)
  let tab = Lazy.force decode_table in
  List.iter
    (fun (r : Korch.Plan_table.range) ->
      let fixed = Korch.Orchestrator.run orch_cfg (decode_build ~batch:r.Korch.Plan_table.anchor) in
      Alcotest.(check bool) "anchor graph bit-identical" true
        (r.Korch.Plan_table.graph = fixed.Korch.Orchestrator.graph);
      let plan_string p = Obs.Jsonw.to_string (Korch.Report.plan_to_json p) in
      Alcotest.(check string) "anchor plan bit-identical"
        (plan_string fixed.Korch.Orchestrator.plan)
        (plan_string r.Korch.Plan_table.plan))
    tab.Korch.Plan_table.ranges

let test_plan_table_json_roundtrip () =
  let tab = Lazy.force decode_table in
  let s1 = Korch.Report.plan_table_json_string tab in
  match Onnx.Codec.decode Korch.Report.plan_table_codec (Onnx.Json.of_string s1) with
  | Error m -> Alcotest.fail ("plan table failed to parse back: " ^ m)
  | Ok tab' ->
    Alcotest.(check string) "JSON round-trips bit-identically" s1
      (Korch.Report.plan_table_json_string tab')

let test_plan_table_single_range () =
  (* Degenerate sweep: lo = hi. One range, one probe, no crossovers —
     and its JSON round-trips like any other table. *)
  let tab = Korch.Plan_table.build orch_cfg ~model:"decode" ~build:decode_build ~lo:2 ~hi:2 in
  Alcotest.(check int) "one range" 1 (List.length tab.Korch.Plan_table.ranges);
  let r = List.hd tab.Korch.Plan_table.ranges in
  Alcotest.(check int) "range lo" 2 r.Korch.Plan_table.lo;
  Alcotest.(check int) "range hi" 2 r.Korch.Plan_table.hi;
  Alcotest.(check int) "anchor" 2 r.Korch.Plan_table.anchor;
  Alcotest.(check (list int)) "no crossovers" [] tab.Korch.Plan_table.crossovers;
  let s = Korch.Report.plan_table_json_string tab in
  match Onnx.Codec.decode Korch.Report.plan_table_codec (Onnx.Json.of_string s) with
  | Ok tab' ->
    Alcotest.(check string) "degenerate table round-trips" s
      (Korch.Report.plan_table_json_string tab')
  | Error m -> Alcotest.fail ("degenerate table failed to parse back: " ^ m)

(* ------------------------------ codecs ------------------------------ *)

(* One property for every declared document schema: decoding the
   printed-and-parsed encoding gives back the value itself. Graphs and
   plans with graphs come from the decode table above; everything else
   is random. *)
let roundtrip name codec gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:(name ^ ": decode (encode x) = x") ~count:100 gen (fun x ->
         let printed = Obs.Jsonw.to_string (Onnx.Codec.encode codec x) in
         Onnx.Codec.decode codec (Onnx.Json.of_string printed) = Ok x))

let gen_string = QCheck2.Gen.(string_size ~gen:char (int_range 0 12))
let gen_int = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000
let gen_float = QCheck2.Gen.map (fun f -> if Float.is_finite f then f else 0.5) QCheck2.Gen.float

let gen_table =
  QCheck2.Gen.(
    map
      (fun (model, gpu, precision) ->
        { (Lazy.force decode_table) with Korch.Plan_table.model; gpu; precision })
      (triple gen_string gen_string gen_string))

let gen_range =
  QCheck2.Gen.map2
    (fun t i ->
      let ranges = t.Korch.Plan_table.ranges in
      List.nth ranges (i mod List.length ranges))
    gen_table QCheck2.Gen.nat

let gen_plan =
  QCheck2.Gen.(
    oneof
      [
        map
          (List.map (fun (prims, outputs, latency_us, backend) ->
               { Runtime.Plan.prims; outputs; latency_us; backend }))
          (small_list (quad (small_list nat) (small_list nat) (float_range 0.0 1e4) gen_string))
        |> map Runtime.Plan.make;
        map (fun r -> r.Korch.Plan_table.plan) gen_range;
      ])

let gen_cache_doc =
  let open QCheck2.Gen in
  let report = option (map2 (fun s x -> Onnx.Json.Obj [ (s, Onnx.Json.Num x) ]) gen_string gen_float) in
  oneof
    [
      map
        (fun ((graph_hash, gpu, precision, batch), final, report, r) ->
          Serve.Plan_cache.Plan
            {
              Serve.Plan_cache.key = { Serve.Plan_cache.graph_hash; gpu; precision; batch };
              status = (if final then Serve.Plan_cache.Final else Serve.Plan_cache.Incumbent);
              graph = r.Korch.Plan_table.graph;
              plan = r.Korch.Plan_table.plan;
              report;
            })
        (quad (quad gen_string gen_string gen_string gen_int) bool report gen_range);
      map
        (fun ((t_graph_hash, t_gpu, t_precision), (t_lo, t_hi), table) ->
          Serve.Plan_cache.Table
            ({ Serve.Plan_cache.t_graph_hash; t_gpu; t_precision; t_lo; t_hi }, table))
        (triple (triple gen_string gen_string gen_string) (pair gen_int gen_int) gen_table);
    ]

let gen_request =
  let open QCheck2.Gen in
  let str = option gen_string and num = option gen_int in
  map
    (fun ((verb, model, graph_doc, small), (batch, gpu, precision, deadline_ms),
          (backend, no_cache, batch_lo, batch_hi)) ->
      { Serve.Protocol.verb; model; graph_doc; small; batch; gpu; precision; deadline_ms;
        backend; no_cache; batch_lo; batch_hi })
    (triple (quad gen_string str str bool) (quad gen_int str str (option gen_float))
       (quad str bool num num))

let gen_bench =
  let open QCheck2.Gen in
  small_list
    (map
       (fun ((experiment, model, gpu, precision), (latency_us, kernels, redundancy, candidates),
             (states, peak_mem_bytes, degraded_segments)) ->
         { Korch.Report.experiment; model; gpu; precision; latency_us; kernels; redundancy;
           candidates; states; peak_mem_bytes; degraded_segments })
       (triple
          (quad gen_string gen_string gen_string gen_string)
          (quad gen_float gen_int gen_int gen_int)
          (triple gen_int gen_int gen_int)))

(* Graph documents compare as bytes, since NaN <> NaN: a document read
   back prints the same text. The graphs are the test-scale zoo and
   generated chains whose float attributes and constants may be
   non-finite. *)
let bytes_roundtrip name codec gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:(name ^ ": encode (decode (encode g)) = encode g") ~count:100 gen
       (fun g ->
         let print g = Obs.Jsonw.to_string (Onnx.Codec.encode codec g) in
         let s = print g in
         match Onnx.Codec.decode codec (Onnx.Json.of_string s) with
         | Ok g' -> print g' = s
         | Error m -> QCheck2.Test.fail_report m))

let zoo_opgraphs = lazy (List.map (fun e -> e.Models.Registry.build_small ()) Models.Registry.all)
let zoo_primgraphs = lazy (List.map (fun g -> fst (Fission.Engine.run g)) (Lazy.force zoo_opgraphs))

let gen_graph_float =
  QCheck2.Gen.(oneof [ float; oneofl [ Float.infinity; Float.neg_infinity; Float.nan; -0.0 ] ])

let gen_const =
  let open QCheck2.Gen in
  let s = [| 2; 2 |] in
  oneof
    [
      map (Const.value s) gen_graph_float;
      map2 (Const.randn_scaled s) nat gen_graph_float;
      map (fun a -> Const.of_nd (Nd.of_array s a)) (array_size (return 4) gen_graph_float);
    ]

let gen_graph zoo input constant op =
  let open QCheck2.Gen in
  let chain (consts, ops) =
    let b = Graph.Builder.create () in
    let x = Graph.Builder.add b input [] [| 1; 4 |] in
    let last = List.fold_left (fun prev o -> Graph.Builder.add b o [ prev ] [| 1; 4 |]) x ops in
    let cs = List.map (fun c -> Graph.Builder.add b (constant c) [] c.Const.shape) consts in
    Graph.Builder.set_outputs b (last :: cs);
    Graph.Builder.finish b
  in
  oneof
    [
      map (fun i -> List.nth (Lazy.force zoo) i) (int_bound (List.length Models.Registry.all - 1));
      map chain (pair (small_list gen_const) (small_list (op gen_graph_float)));
    ]

let gen_doc_opgraph =
  let op f =
    QCheck2.Gen.(
      oneof
        [
          map (fun a -> Optype.LeakyRelu a) f;
          map (fun e -> Optype.InstanceNorm e) f;
          map (fun e -> Optype.LayerNorm e) f;
          map (fun e -> Optype.BatchNormInference e) f;
          map (fun value -> Optype.Pad { before = [| 0; 1 |]; after = [| 1; 0 |]; value }) f;
        ])
  in
  gen_graph zoo_opgraphs (Optype.Input "x") (fun c -> Optype.Constant c) op

let gen_doc_primgraph =
  let op f =
    QCheck2.Gen.(
      oneof
        [
          map (fun a -> Primitive.Unary (Primitive.LeakyRelu a)) f;
          map (fun c -> Primitive.Unary (Primitive.AddConst c)) f;
          map (fun c -> Primitive.Unary (Primitive.MulConst c)) f;
          map (fun c -> Primitive.Unary (Primitive.PowConst c)) f;
          map2 (fun lo hi -> Primitive.Unary (Primitive.Clip (lo, hi))) f f;
          map (fun value -> Primitive.Pad { before = [| 1 |]; after = [| 0 |]; value }) f;
        ])
  in
  gen_graph zoo_primgraphs (Primitive.Input "x") (fun c -> Primitive.Constant c) op

let () =
  Alcotest.run "core"
    [
      ( "exec states",
        [ Alcotest.test_case "chain counts" `Quick test_states_chain;
          Alcotest.test_case "diamond count" `Quick test_states_diamond;
          Alcotest.test_case "width guard" `Quick test_states_width_explosion_guard ] );
      ( "kernel identifier",
        [ Alcotest.test_case "chain subgraphs" `Quick test_identifier_chain_counts;
          Alcotest.test_case "candidate validity" `Quick test_identifier_validity;
          Alcotest.test_case "singletons present" `Quick test_identifier_singletons_present ] );
      ( "blp",
        [ Alcotest.test_case "rows" `Quick test_blp_rows;
          Alcotest.test_case "exhaustive known" `Quick test_blp_exhaustive_known ] );
      ( "scheduler",
        [ Alcotest.test_case "orders" `Quick test_scheduler_orders_dependencies;
          Alcotest.test_case "deadlock" `Quick test_scheduler_detects_deadlock ] );
      ( "segment solver",
        [ Alcotest.test_case "breaks a dependency cycle" `Quick test_solver_breaks_cycle;
          Alcotest.test_case "redundancy <= disjoint <= unfused on the test zoo" `Quick
            test_solver_ordering_on_zoo;
          Alcotest.test_case "decode segment 1 keeps every candidate" `Quick
            test_solver_keeps_every_candidate;
          Alcotest.test_case "paper-scale plans identical at -j 1 and -j 4" `Quick
            test_paper_scale_jobs_identity ] );
      ( "partition",
        [ Alcotest.test_case "covers once" `Quick test_partition_covers_once;
          Alcotest.test_case "size bound" `Quick test_partition_size_bound;
          Alcotest.test_case "placeholders" `Quick test_placeholder_roundtrip ] );
      ( "orchestrator",
        [ Alcotest.test_case "attention equivalence" `Quick test_orchestrator_attention_equivalence;
          Alcotest.test_case "beats eager" `Quick test_orchestrator_beats_eager;
          Alcotest.test_case "stats" `Quick test_orchestrator_stats_populated;
          Alcotest.test_case "softmax split" `Quick test_orchestrator_softmax_fissioned_into_multiple_kernels;
          Alcotest.test_case "redundancy valid" `Quick test_orchestrator_redundancy_nonnegative;
          Alcotest.test_case "partitioned equivalence" `Quick test_orchestrator_partitioned_equivalence ] );
      ( "calibrate",
        [ Alcotest.test_case "record folds measured timings" `Quick test_calibrate_record ] );
      ( "plan table",
        [ Alcotest.test_case "ranges partition the sweep" `Quick test_plan_table_partition;
          Alcotest.test_case "anchors bit-identical to fixed orchestration" `Quick
            test_plan_table_anchor_identity;
          Alcotest.test_case "JSON roundtrip" `Quick test_plan_table_json_roundtrip;
          Alcotest.test_case "single-range degenerate" `Quick test_plan_table_single_range ] );
      ( "codec",
        [
          roundtrip "plan" Korch.Report.plan_codec gen_plan;
          roundtrip "plan table" Korch.Report.plan_table_codec gen_table;
          roundtrip "plan-cache entry" Serve.Plan_cache.doc_codec gen_cache_doc;
          roundtrip "request" Serve.Protocol.request_codec gen_request;
          roundtrip "bench document" Korch.Report.bench_codec gen_bench;
          bytes_roundtrip "operator graph" Onnx.Graph_doc.opgraph gen_doc_opgraph;
          bytes_roundtrip "primitive graph" Onnx.Graph_doc.primgraph gen_doc_primgraph;
        ] );
    ]
