(* Tests for the from-scratch domain pool (lib/parallel), the sharded
   profile cache under concurrent use, the orchestrator's determinism
   guarantee (with any `jobs` the stitched plan is structurally identical
   to the sequential `jobs = 1` run), and concurrent native runs of one
   plan. *)

open Ir

(* ------------------------------ pool ------------------------------ *)

(* [map_result] values, failing on the first captured exception. *)
let oks l =
  List.map
    (function
      | Ok v -> v
      | Error (e, _) -> Alcotest.failf "unexpected task failure: %s" (Printexc.to_string e))
    l

let test_map_result_ordered () =
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let input = List.init 500 Fun.id in
      let out = oks (Parallel.Domain_pool.map_result pool (fun i -> i * i) input) in
      Alcotest.(check (list int)) "ordered squares" (List.map (fun i -> i * i) input) out)

let test_map_result_uneven_work () =
  (* Early tasks are much slower than late ones, so completion order is
     roughly reversed — results must still come back in input order. *)
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let input = List.init 64 Fun.id in
      let out =
        Parallel.Domain_pool.map_result pool
          (fun i ->
            let spin = (64 - i) * 2000 in
            let acc = ref 0 in
            for k = 1 to spin do
              acc := !acc + k
            done;
            ignore !acc;
            i)
          input
        |> oks
      in
      Alcotest.(check (list int)) "input order" input out)

let test_sequential_pool_is_inline () =
  Parallel.Domain_pool.with_pool ~jobs:1 (fun pool ->
      let executed = ref false in
      Parallel.Domain_pool.submit pool (fun () -> executed := true);
      (* jobs = 1 runs the thunk inline before submit returns. *)
      Alcotest.(check bool) "ran inline" true !executed)

let test_exception_propagation () =
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Parallel.Domain_pool.map_result pool
          (fun i -> if i = 3 || i = 7 then failwith (Printf.sprintf "boom %d" i) else i)
          (List.init 16 Fun.id)
      in
      let show = function
        | Ok i -> string_of_int i
        | Error (Failure m, _) -> m
        | Error (e, _) -> Printexc.to_string e
      in
      Alcotest.(check (list string)) "each failure in its own slot, in order"
        (List.init 16 (fun i -> if i = 3 || i = 7 then Printf.sprintf "boom %d" i else string_of_int i))
        (List.map show out))

let test_submit_after_shutdown_rejected () =
  let pool = Parallel.Domain_pool.create ~jobs:2 in
  Parallel.Domain_pool.shutdown pool;
  Parallel.Domain_pool.shutdown pool;
  (* idempotent *)
  match Parallel.Domain_pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

let test_stress_many_tasks () =
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      let out = oks (Parallel.Domain_pool.map_result pool (fun i -> i) (List.init 2000 Fun.id)) in
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
      ignore (Parallel.Domain_pool.map_result pool (fun () -> profile_all conc) (List.init rounds ignore)));
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
  let g = e.Models.Registry.build_small () in
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

(* ------------------------ concurrent runs ------------------------ *)

(* Four domains run one fresh (graph, plan) natively at once, so they
   race to prepare it, sign it and resolve its kernels: every output is
   bit-identical to the interpreter's, and no domain raises. *)
let test_concurrent_native_runs () =
  let g = Models.Registry.candy.Models.Registry.build_small () in
  let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
  let pg = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
  let inputs =
    Array.to_list g.Graph.nodes
    |> List.filter_map (fun nd ->
           match nd.Graph.op with
           | Optype.Input name -> Some (name, Tensor.Nd.randn (Tensor.Rng.create 31) nd.Graph.shape)
           | _ -> None)
  in
  let reference = Runtime.Prim_interp.run pg ~inputs in
  let bits (t : Tensor.Nd.t) = Array.map Int64.bits_of_float t.Tensor.Nd.data in
  List.iteri
    (fun d result ->
      match result with
      | Error e -> Alcotest.failf "domain %d raised %s" d e
      | Ok outs ->
        List.iteri
          (fun i (a, b) ->
            if bits a <> bits b then Alcotest.failf "domain %d: output %d differs" d i)
          (List.combine reference outs))
    (List.map Domain.join
       (List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                match Runtime.Executor.run ~backend:Runtime.Backend.Native pg plan ~inputs with
                | outs -> Ok outs
                | exception e -> Error (Printexc.to_string e)))))

let () =
  Alcotest.run "parallel"
    [
      ( "domain pool",
        [ Alcotest.test_case "map_result ordered" `Quick test_map_result_ordered;
          Alcotest.test_case "uneven work, ordered results" `Quick test_map_result_uneven_work;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_sequential_pool_is_inline;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown_rejected;
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
      ( "concurrent runs",
        [ Alcotest.test_case "four domains, one native plan" `Quick test_concurrent_native_runs ] );
    ]
