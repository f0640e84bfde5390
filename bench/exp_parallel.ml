(* Multicore segment orchestration: wall-clock optimization time with 1
   worker domain vs several, and a structural-equality check that the
   parallel plans are identical to the sequential ones. Per-segment work
   (transform search -> kernel identification -> profiling -> solve) is
   embarrassingly parallel, so on a j-core machine the speedup should
   approach min(j, segments) for segment-balanced models. *)

let plans_equal (a : Korch.Orchestrator.result) (b : Korch.Orchestrator.result) =
  a.Korch.Orchestrator.plan = b.Korch.Orchestrator.plan

let time_run ~jobs platform g =
  let t0 = Bench_common.wall_clock () in
  let r = Bench_common.run_korch ~jobs platform g in
  (r, Bench_common.wall_clock () -. t0)

let run () =
  Bench_common.section "Multicore segment orchestration (-j)";
  let jobs = max 2 !Bench_common.jobs in
  Printf.printf "cores available: %d (recommended domains %d); comparing -j 1 vs -j %d\n"
    (Domain.recommended_domain_count ()) (Domain.recommended_domain_count ()) jobs;
  Printf.printf "%-14s %9s %12s %12s %8s %6s\n" "model" "segments" "seq opt(s)" "par opt(s)"
    "speedup" "plan=";
  List.iter
    (fun (e : Models.Registry.entry) ->
      let g = e.Models.Registry.build_small () in
      let seq, t_seq = time_run ~jobs:1 Bench_common.v100_fp32 g in
      let par, t_par = time_run ~jobs Bench_common.v100_fp32 g in
      Printf.printf "%-14s %9d %12.2f %12.2f %7.2fx %6s\n" e.Models.Registry.name
        (List.length seq.Korch.Orchestrator.segments)
        t_seq t_par
        (t_seq /. Float.max 1e-9 t_par)
        (if plans_equal seq par then "yes" else "NO!"))
    Models.Registry.all
