(* Shared helpers for the benchmark harness: configurations, table
   printing, and the baseline/Korch runners every experiment uses. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* Platform configurations from §6.1: V100 in FP32, A100 with tensor cores
   in TF32. *)
let v100_fp32 = (Gpu.Spec.v100, Gpu.Precision.FP32)
let a100_tf32 = (Gpu.Spec.a100, Gpu.Precision.TF32)

(* Worker domains per orchestrator run, settable with `-j N` on the bench
   command line. Plans are identical for every value (the experiments'
   numbers do not depend on it); only wall-clock optimization time does. *)
let jobs = ref (Parallel.Domain_pool.default_jobs ())

let korch_config ?(partition_max_prims = 12) ?jobs:j (spec, precision) =
  { Korch.Orchestrator.default_config with
    Korch.Orchestrator.spec; precision; partition_max_prims;
    jobs = (match j with Some j -> j | None -> !jobs) }

(* Run Korch on an operator graph (BN folded first, as every deployment
   stack does). *)
let run_korch ?partition_max_prims ?jobs platform (g : Ir.Opgraph.t) :
    Korch.Orchestrator.result =
  let g = Fission.Canonicalize.fold_batch_norms g in
  Korch.Orchestrator.run (korch_config ?partition_max_prims ?jobs platform) g

(* Monotonic wall-clock seconds ([Sys.time] is CPU time, which counts all
   domains and so overstates parallel runs). *)
let wall_clock () = Obs.Clock.now_s ()

(* ----------------------- bench-JSON accumulator ----------------------- *)

(* Experiments append one entry per orchestrated (model, platform) pair;
   `--bench-json FILE` writes the korch-bench/1 document bin/bench_gate.exe
   regresses against its committed baseline. *)
let bench_entries : Korch.Report.bench_entry list ref = ref []

let record_entry ~experiment ~model ((spec, precision) : Gpu.Spec.t * Gpu.Precision.t)
    (r : Korch.Orchestrator.result) ~wall_s =
  let plan = r.Korch.Orchestrator.plan in
  bench_entries :=
    {
      Korch.Report.experiment;
      model;
      gpu = spec.Gpu.Spec.name;
      precision = Gpu.Precision.to_string precision;
      latency_us = plan.Runtime.Plan.total_latency_us;
      kernels = Runtime.Plan.kernel_count plan;
      redundancy = Runtime.Plan.redundancy plan;
      candidates = r.Korch.Orchestrator.total_candidates;
      states = r.Korch.Orchestrator.total_states;
      peak_mem_bytes = Some r.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes;
      degraded_segments = List.length r.Korch.Orchestrator.degraded_segments;
      wall_s;
    }
    :: !bench_entries

(* Extra top-level blocks experiments may attach to the document (e.g.
   exp_serving's "serving" summary). bin/bench_gate.exe notes and ignores
   any top-level field it does not consume, so these enrich the artifact
   without touching the gate. *)
let bench_extra_blocks : (string * Obs.Jsonw.t) list ref = ref []

let record_extra_block name json =
  bench_extra_blocks := (name, json) :: List.remove_assoc name !bench_extra_blocks

let bench_json () =
  match Onnx.Codec.encode Korch.Report.bench_codec (List.rev !bench_entries) with
  | Obs.Jsonw.Obj fields -> Obs.Jsonw.to_string (Obs.Jsonw.Obj (fields @ List.rev !bench_extra_blocks))
  | _ -> assert false

type baseline_row = {
  eager_us : float;
  tvm_us : float;
  trt_us : float;
  dp_us : float;
}

let run_baselines (spec, precision) (g : Ir.Opgraph.t) : baseline_row =
  let g = Fission.Canonicalize.fold_batch_norms g in
  let env = Baselines.Common.make_env ~spec ~precision g in
  {
    eager_us = (Baselines.Eager.run env).Runtime.Plan.total_latency_us;
    tvm_us = (Baselines.Greedy_tvm.run env).Runtime.Plan.total_latency_us;
    trt_us = (Baselines.Trt.run env).Runtime.Plan.total_latency_us;
    dp_us = (Baselines.Dp_chain.run env).Runtime.Plan.total_latency_us;
  }

let speedup baseline korch = baseline /. korch

(* Describe one plan kernel as "{prim prim ...}". *)
let kernel_to_string (g : Ir.Primgraph.t) (k : Runtime.Plan.kernel) : string =
  let names =
    List.map (fun id -> Ir.Primitive.to_string (Ir.Graph.op g id)) k.Runtime.Plan.prims
  in
  Printf.sprintf "[%s] {%s} %.2fus" k.Runtime.Plan.backend (String.concat " " names)
    k.Runtime.Plan.latency_us

let print_plan (g : Ir.Primgraph.t) (plan : Runtime.Plan.t) =
  List.iteri
    (fun i k -> Printf.printf "    k%-2d %s\n" (i + 1) (kernel_to_string g k))
    plan.Runtime.Plan.kernels
