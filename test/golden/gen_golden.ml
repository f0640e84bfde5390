(* Renders every round-tripped JSON document for fixed inputs, one file
   each; test/golden/dune compares each file with its committed copy byte
   for byte. *)

let write name doc =
  Out_channel.with_open_bin name (fun oc ->
      output_string oc doc;
      output_char oc '\n')

let cfg = Korch.Orchestrator.default_config

let small (e : Models.Registry.entry) ~batch =
  Fission.Canonicalize.fold_batch_norms (e.Models.Registry.build_small ~batch ())

let () =
  let candy = small Models.Registry.candy ~batch:1 in
  let r = Korch.Orchestrator.run cfg candy in
  let plan = r.Korch.Orchestrator.plan in
  write "candy_plan.out" (Obs.Jsonw.to_string (Korch.Report.plan_to_json plan));
  let table =
    Korch.Plan_table.build cfg ~model:"decode" ~build:(small Models.Registry.decode) ~lo:1 ~hi:2
  in
  write "decode_table.out" (Korch.Report.plan_table_json_string table);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "korch-golden-%d" (Unix.getpid ()))
  in
  let cache = Serve.Plan_cache.create ~dir () in
  let key = Serve.Plan_cache.key ~graph:candy ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final ~graph:r.Korch.Orchestrator.graph
    ~plan ~report:{|{"schema":"korch-report/1","kernels":61,"plan_latency_us":3084.8214378656335,"meta":{"model":"candy \"small\""}}|};
  let tkey =
    Serve.Plan_cache.table_key ~graph:(small Models.Registry.decode ~batch:1) ~gpu:"V100"
      ~precision:"fp32" ~lo:1 ~hi:2
  in
  Serve.Plan_cache.store_table cache tkey table;
  let read path = In_channel.with_open_bin path In_channel.input_all in
  write "cache_plan_entry.out" (read (Serve.Plan_cache.entry_path cache key));
  write "cache_table_entry.out" (read (Serve.Plan_cache.table_path cache tkey));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  write "request.out"
    (Obs.Jsonw.to_string
       (Serve.Protocol.request_to_json
          {
            Serve.Protocol.verb = "run";
            model = Some "candy";
            graph_doc = Some {|{"format":"korch-onnx-json","kind":"operator"}|};
            small = true;
            batch = 4;
            gpu = Some "A100";
            precision = Some "tf32";
            deadline_ms = Some 7.5;
            backend = Some "native";
            no_cache = true;
            batch_lo = Some 1;
            batch_hi = Some 16;
          }));
  write "bench.out"
    (Obs.Jsonw.to_string
       (Onnx.Codec.encode Korch.Report.bench_codec
          [
            {
              Korch.Report.experiment = "smoke";
              model = "candy";
              gpu = Gpu.Spec.v100.Gpu.Spec.name;
              precision = Gpu.Precision.to_string Gpu.Precision.FP32;
              latency_us = plan.Runtime.Plan.total_latency_us;
              kernels = Runtime.Plan.kernel_count plan;
              redundancy = Runtime.Plan.redundancy plan;
              candidates = r.Korch.Orchestrator.total_candidates;
              states = r.Korch.Orchestrator.total_states;
              peak_mem_bytes = Some r.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes;
              degraded_segments = List.length r.Korch.Orchestrator.degraded_segments;
              wall_s = 1.25;
            };
          ]))
