(* Transformer-decode plan tables — the batch-parametric serving story.

   One Plan_table sweep over batch 1..256 of the decode workload
   (KV-cache append + masked attention + MLP) on V100/FP32, then a
   per-probe comparison: the table's anchor plan versus a fixed-batch
   re-orchestration at that probe, and versus the greedy-fusion and
   unfused baselines. At every anchor the table plan must be
   bit-identical to the fixed-batch plan — the table stores the verbatim
   orchestration output, so a mismatch is a determinism bug, reported
   loudly. *)

let lo = 1
let hi = 256

let run () =
  Bench_common.section
    (Printf.sprintf "transformer decode: plan table, batch %d..%d (V100/FP32)" lo hi);
  let entry =
    match Models.Registry.find "decode" with
    | Some e -> e
    | None -> failwith "exp_decode: decode model not registered"
  in
  let build ~batch = entry.Models.Registry.build ~batch () in
  let cfg = Bench_common.korch_config Bench_common.v100_fp32 in
  let t0 = Bench_common.wall_clock () in
  let tab = Korch.Plan_table.build cfg ~model:"decode" ~build ~lo ~hi in
  let sweep_s = Bench_common.wall_clock () -. t0 in
  Printf.printf "  table: %d range(s), crossovers at [%s]  [%.1fs sweep]\n"
    (List.length tab.Korch.Plan_table.ranges)
    (String.concat "; " (List.map string_of_int tab.Korch.Plan_table.crossovers))
    sweep_s;
  List.iter
    (fun (r : Korch.Plan_table.range) ->
      Printf.printf "    [%d..%d] anchor=%d kernels=%d %.2f us%s\n" r.Korch.Plan_table.lo
        r.Korch.Plan_table.hi r.Korch.Plan_table.anchor
        (Runtime.Plan.kernel_count r.Korch.Plan_table.plan)
        r.Korch.Plan_table.plan.Runtime.Plan.total_latency_us
        (if r.Korch.Plan_table.refined then "  (boundary refined)" else ""))
    tab.Korch.Plan_table.ranges;
  (* Per-probe comparison. The fixed-batch run at a range's anchor must
     reproduce the table's stored plan bit for bit. *)
  Printf.printf "\n  %-7s %-12s %-12s %-12s %-12s %s\n" "batch" "table-plan" "fixed-orch"
    "greedy-tvm" "unfused" "anchor-identical";
  let identical = ref true in
  List.iter
    (fun b ->
      let g = build ~batch:b in
      let fixed = Korch.Orchestrator.run cfg g in
      let range =
        match Korch.Plan_table.range_for_probe tab b with
        | Some r -> r
        | None -> failwith (Printf.sprintf "exp_decode: probe %d missing from table" b)
      in
      let is_anchor = b = range.Korch.Plan_table.anchor in
      let bit_identical =
        (not is_anchor)
        || (range.Korch.Plan_table.plan = fixed.Korch.Orchestrator.plan
           && range.Korch.Plan_table.graph = fixed.Korch.Orchestrator.graph)
      in
      if is_anchor && not bit_identical then identical := false;
      let base = Bench_common.run_baselines Bench_common.v100_fp32 g in
      Printf.printf "  %-7d %-12.2f %-12.2f %-12.2f %-12.2f %s\n" b
        range.Korch.Plan_table.plan.Runtime.Plan.total_latency_us
        fixed.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us base.Bench_common.tvm_us
        base.Bench_common.eager_us
        (if is_anchor then (if bit_identical then "yes" else "MISMATCH") else "-"))
    (Korch.Plan_table.probe_batches ~lo ~hi);
  if not !identical then
    failwith "exp_decode: table anchor plan differs from fixed-batch orchestration"
