(* Smoke benchmark — the workload behind the exact plan gate.

   Orchestrates every zoo model end to end at paper scale on V100/FP32
   and records one korch-bench/1 entry each. Every recorded member is
   deterministic (simulated profiling, an exact segment solver with a
   settled-state budget, plans identical for every -j), so `dune
   runtest` diffs the document against bench/baselines/BENCH_smoke.json
   byte for byte; a deliberate plan change is accepted with `dune
   promote`. The printed
   wall-clock is informational; perfbench measures time. *)

let models = [ "candy"; "segformer"; "decode"; "yolov4"; "yolox"; "efficientvit" ]

let run () =
  Bench_common.section "bench smoke (exact plan gate workload)";
  List.iter
    (fun name ->
      let entry =
        match Models.Registry.find name with
        | Some e -> e
        | None -> failwith ("exp_smoke: unknown zoo model " ^ name)
      in
      let g = entry.Models.Registry.build ~batch:1 () in
      let t0 = Bench_common.wall_clock () in
      let r = Bench_common.run_korch Bench_common.v100_fp32 g in
      let wall_s = Bench_common.wall_clock () -. t0 in
      Printf.printf "  %-12s %10.2f us  %4d kernels  %2d segments  [%.1fs]\n" name
        r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
        (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan)
        (List.length r.Korch.Orchestrator.segments)
        wall_s;
      Bench_common.record_entry ~experiment:"smoke" ~model:name Bench_common.v100_fp32 r)
    models
