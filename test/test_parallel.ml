(* Tests for the from-scratch domain pool (lib/parallel), the sharded
   profile cache under concurrent use, and the orchestrator's determinism
   guarantee: with any `jobs` the stitched plan is structurally identical
   to the sequential `jobs = 1` run. *)

open Ir

(* ------------------------------ pool ------------------------------ *)

let test_map_array_ordered () =
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 500 Fun.id in
      let out = Parallel.Domain_pool.map_array pool (fun i -> i * i) input in
      Alcotest.(check (array int)) "ordered squares" (Array.map (fun i -> i * i) input) out)

let test_map_array_uneven_work () =
  (* Early tasks are much slower than late ones, so completion order is
     roughly reversed — results must still come back in input order. *)
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 64 Fun.id in
      let out =
        Parallel.Domain_pool.map_array pool
          (fun i ->
            let spin = (64 - i) * 2000 in
            let acc = ref 0 in
            for k = 1 to spin do
              acc := !acc + k
            done;
            ignore !acc;
            i)
          input
      in
      Alcotest.(check (array int)) "input order" input out)

let test_sequential_pool_is_inline () =
  Parallel.Domain_pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Parallel.Domain_pool.size pool);
      let executed = ref false in
      let fut = Parallel.Domain_pool.submit pool (fun () -> executed := true) in
      (* jobs = 1 runs the thunk inline before submit returns. *)
      Alcotest.(check bool) "ran inline" true !executed;
      Parallel.Domain_pool.await fut)

let test_exception_propagation () =
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      match
        Parallel.Domain_pool.map_array pool
          (fun i -> if i = 3 || i = 7 then failwith (Printf.sprintf "boom %d" i) else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure m -> Alcotest.(check string) "lowest index wins" "boom 3" m)

let test_await_is_idempotent () =
  Parallel.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let fut = Parallel.Domain_pool.submit pool (fun () -> 41 + 1) in
      Alcotest.(check int) "first await" 42 (Parallel.Domain_pool.await fut);
      Alcotest.(check int) "second await" 42 (Parallel.Domain_pool.await fut))

let test_submit_after_shutdown_rejected () =
  let pool = Parallel.Domain_pool.create ~jobs:2 () in
  Parallel.Domain_pool.shutdown pool;
  Parallel.Domain_pool.shutdown pool;
  (* idempotent *)
  match Parallel.Domain_pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

let test_worker_context () =
  Alcotest.(check (option int)) "no worker id on the main domain" None
    (Parallel.Domain_pool.worker_id ());
  Parallel.Domain_pool.with_pool ~seed:7 ~jobs:4 (fun pool ->
      let obs =
        Parallel.Domain_pool.map_array pool
          (fun _ ->
            let id = Parallel.Domain_pool.worker_id () in
            let draw = Option.map Tensor.Rng.float (Parallel.Domain_pool.worker_rng ()) in
            (id, draw))
          (Array.init 64 Fun.id)
      in
      Array.iter
        (fun (id, draw) ->
          (match id with
          | Some i -> Alcotest.(check bool) "worker id in range" true (i >= 0 && i < 4)
          | None -> Alcotest.fail "task ran without a worker context");
          if draw = None then Alcotest.fail "worker rng missing")
        obs;
      (* Workers draw from disjoint splitmix64 streams: every draw across
         all workers is distinct. *)
      let draws = Array.to_list obs |> List.filter_map snd in
      let sorted = List.sort_uniq compare draws in
      Alcotest.(check int) "all rng draws distinct" (List.length draws) (List.length sorted))

let test_stress_many_tasks () =
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let out = Parallel.Domain_pool.map_list pool (fun i -> i) (List.init 2000 Fun.id) in
      Alcotest.(check int) "sum" (2000 * 1999 / 2) (List.fold_left ( + ) 0 out))

(* -------------------------- profile cache -------------------------- *)

let spec = Gpu.Spec.v100
let precision = Gpu.Precision.FP32

let ew_chain n elems =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| elems |] in
  let prev = ref x in
  for _ = 1 to n do
    prev := Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ !prev ]
  done;
  Primgraph.B.set_outputs b [ !prev ];
  (Primgraph.B.finish b, !prev)

(* Candidate kernels of an elementwise chain: every contiguous prim range. *)
let chain_candidates g out =
  let w = Graph.length g in
  let prims = List.filter (fun i -> i <> 0) (List.init w Fun.id) in
  List.concat_map
    (fun lo ->
      List.filter_map
        (fun hi ->
          if lo <= hi then
            Some (Bitset.of_list w (List.filter (fun i -> i >= lo && i <= hi) prims), [ min hi out ])
          else None)
        prims)
    prims

let test_cache_concurrent_equals_sequential () =
  let g, out = ew_chain 6 4096 in
  let cands = chain_candidates g out in
  let profile_all cache =
    List.iter
      (fun (members, outputs) ->
        ignore
          (Gpu.Profile_cache.profile cache ~max_tvm_prims:Gpu.Profiler.max_tvm_prims ~spec
             ~precision g members ~outputs))
      cands
  in
  (* Sequential reference. *)
  let seq = Gpu.Profile_cache.create () in
  profile_all seq;
  (* Four domains hammering one cache with the same candidate set. *)
  let conc = Gpu.Profile_cache.create () in
  let rounds = 4 in
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Parallel.Domain_pool.map_array pool
           (fun _ -> profile_all conc)
           (Array.make rounds ())));
  Alcotest.(check int) "distinct kernels match sequential"
    (Gpu.Profile_cache.distinct_kernels seq)
    (Gpu.Profile_cache.distinct_kernels conc);
  Alcotest.(check (float 1e-9)) "tuning time charged once per distinct kernel"
    (Gpu.Profile_cache.tuning_time_s seq)
    (Gpu.Profile_cache.tuning_time_s conc);
  Alcotest.(check int) "misses = distinct signatures"
    (Gpu.Profile_cache.distinct_kernels conc)
    (Gpu.Profile_cache.misses conc);
  Alcotest.(check int) "every lookup accounted"
    (rounds * List.length cands)
    (Gpu.Profile_cache.hits conc + Gpu.Profile_cache.misses conc)

(* ------------------------ plan determinism ------------------------ *)

(* The settled-state count pins the solver's work, not just its answer. *)
let seg_fingerprint (r : Korch.Orchestrator.segment_result) =
  (r.Korch.Orchestrator.selected, r.Korch.Orchestrator.latency_us,
   r.Korch.Orchestrator.settled_states)

let check_jobs_determinism (e : Models.Registry.entry) () =
  let g = Fission.Canonicalize.fold_batch_norms (e.Models.Registry.build_small ()) in
  let run jobs =
    Korch.Orchestrator.run { Korch.Orchestrator.default_config with jobs } g
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "multiple segments exercised" true
    (List.length seq.Korch.Orchestrator.segments > 1);
  (* The stitched plans are structurally equal: same kernels (members,
     published outputs, latency, backend) in the same order. *)
  Alcotest.(check bool) "plans structurally identical" true
    (seq.Korch.Orchestrator.plan = par.Korch.Orchestrator.plan);
  Alcotest.(check (float 0.0)) "total latency identical"
    seq.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
    par.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us;
  List.iter2
    (fun a b ->
      if seg_fingerprint a <> seg_fingerprint b then
        Alcotest.fail "per-segment selections differ between jobs=1 and jobs=4")
    seq.Korch.Orchestrator.segments par.Korch.Orchestrator.segments;
  List.iter
    (fun (r : Korch.Orchestrator.result) ->
      let report =
        Verify.plan_check r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan
      in
      if Verify.Diagnostics.has_errors report then
        Alcotest.failf "Plan_check failed: %s" (Verify.Diagnostics.error_summary report))
    [ seq; par ]

let () =
  Alcotest.run "parallel"
    [
      ( "domain pool",
        [ Alcotest.test_case "map_array ordered" `Quick test_map_array_ordered;
          Alcotest.test_case "uneven work, ordered results" `Quick test_map_array_uneven_work;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_sequential_pool_is_inline;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "await idempotent" `Quick test_await_is_idempotent;
          Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown_rejected;
          Alcotest.test_case "worker id + private rng" `Quick test_worker_context;
          Alcotest.test_case "2000-task stress" `Quick test_stress_many_tasks ] );
      ( "profile cache",
        [ Alcotest.test_case "concurrent = sequential accounting" `Quick
            test_cache_concurrent_equals_sequential ] );
      ( "plan determinism",
        [ Alcotest.test_case "candy: jobs=4 = jobs=1" `Quick
            (check_jobs_determinism Models.Registry.candy);
          Alcotest.test_case "yolox: jobs=4 = jobs=1" `Quick
            (check_jobs_determinism Models.Registry.yolox);
          (* yolov4 once diverged here: a heavy segment's solver hit a
             CPU-time budget earlier under concurrent domains. The
             budget now counts settled states. *)
          Alcotest.test_case "yolov4: jobs=4 = jobs=1" `Quick
            (check_jobs_determinism Models.Registry.yolov4) ] );
    ]
