(* Bechamel microbenchmarks of Korch's own machinery (the optimizer runs
   offline, but its throughput determines tuning time): execution-state
   enumeration, kernel identification, the segment solve, fission and
   the transformation engine. One Test.make per component. *)

open Bechamel
open Toolkit

let attention () = Models.Segformer.attention_subgraph ~batch:1 ~tokens:64 ~channels:16 ()

let prepared_primgraph =
  lazy
    (let g = attention () in
     let pg, _ = Fission.Engine.run g in
     pg)

(* Paper-scale decode's segment 1, the widest zoo segment (over a
   thousand candidates from its parallel same-shape projections): the
   solver's worst zoo case, with the orchestrator's own candidates. *)
let prepared_candidates =
  lazy
    (let cfg = Korch.Orchestrator.default_config in
     let g =
       Fission.Canonicalize.fold_batch_norms
         (Models.Registry.decode.Models.Registry.build ~batch:1 ())
     in
     let pg, _ = Fission.Engine.run g in
     let segs = Korch.Partition.split pg ~max_prims:cfg.Korch.Orchestrator.partition_max_prims in
     let r =
       Korch.Orchestrator.solve_segment cfg ~cache:(Gpu.Profile_cache.create ()) ~seg_index:1
         (List.nth segs 1)
     in
     (r.Korch.Orchestrator.transformed, r.Korch.Orchestrator.candidates))

let test_fission =
  Test.make ~name:"fission(attention)"
    (Staged.stage (fun () -> ignore (Fission.Engine.run (attention ()))))

let test_exec_states =
  Test.make ~name:"exec-state DFS"
    (Staged.stage (fun () ->
         ignore
           (Korch.Exec_state.enumerate_bounded (Lazy.force prepared_primgraph)
              ~max_states:100_000)))

let test_identify =
  Test.make ~name:"kernel identification"
    (Staged.stage (fun () ->
         let cache = Gpu.Profile_cache.create () in
         ignore
           (Korch.Kernel_identifier.identify ~max_tvm_prims:Gpu.Profiler.max_tvm_prims
              ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32 ~cache
              (Lazy.force prepared_primgraph))))

let test_segment_solve =
  Test.make ~name:"segment solve(decode seg 1)"
    (Staged.stage (fun () ->
         let pg, cands = Lazy.force prepared_candidates in
         ignore
           (Korch.Segment_solver.solve ~budget:Korch.Orchestrator.settled_state_limit pg cands)))

let test_transform =
  Test.make ~name:"transformation search"
    (Staged.stage (fun () ->
         ignore
           (Transform.Optimizer.optimize ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32
              (Lazy.force prepared_primgraph))))

let all_tests =
  Test.make_grouped ~name:"korch" ~fmt:"%s/%s"
    [ test_fission; test_exec_states; test_identify; test_segment_solve; test_transform ]

let run () =
  Bench_common.section "Microbenchmarks of the optimizer machinery (bechamel)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  Printf.printf "%-32s %16s\n" "component" "time per run";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        let str =
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        in
        Printf.printf "%-32s %16s\n" name str
      | _ -> Printf.printf "%-32s %16s\n" name "n/a")
    results
