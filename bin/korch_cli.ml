(* korch — command-line interface to the Korch tensor program optimizer.

   Subcommands:
     korch list                         available models and GPUs
     korch optimize -m MODEL [...]      orchestrate a model, print the report
     korch compare -m MODEL [...]       Korch vs all fusion baselines
     korch export -m MODEL -o FILE      write the model as ONNX-JSON
     korch run FILE                     optimize + execute an ONNX-JSON graph
     korch check [-m MODEL | FILE]      static checks of every pipeline stage (korch-lint/1)
     korch table -m MODEL --lo A --hi B batch-parametric plan table with crossovers *)

open Cmdliner

let spec_conv =
  let parse s =
    match Gpu.Spec.by_name s with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown GPU %S (p100|v100|a100|h100)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.Gpu.Spec.name)

let precision_conv =
  let parse s =
    match Gpu.Precision.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown precision %S (fp32|tf32|fp16)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Gpu.Precision.to_string p))

let model_arg =
  let doc = "Model from the zoo (see `korch list')." in
  Arg.(required & opt (some string) None & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let gpu_arg =
  let doc = "Target GPU model." in
  Arg.(value & opt spec_conv Gpu.Spec.v100 & info [ "gpu" ] ~docv:"GPU" ~doc)

let precision_arg =
  let doc = "Numeric precision." in
  Arg.(value & opt precision_conv Gpu.Precision.FP32 & info [ "precision" ] ~docv:"PREC" ~doc)

let batch_arg =
  let doc = "Batch size." in
  Arg.(value & opt int 1 & info [ "b"; "batch" ] ~docv:"N" ~doc)

let small_arg =
  let doc = "Use the executable test-scale variant of the model." in
  Arg.(value & flag & info [ "small" ] ~doc)

let window_arg =
  let doc = "Partition window size in primitives." in
  Arg.(value & opt int 12 & info [ "window" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains solving partition segments in parallel (1 = sequential; \
     the resulting plan is identical for any value)."
  in
  Arg.(
    value
    & opt int (Parallel.Domain_pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Print the full kernel plan." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let json_arg =
  let doc =
    "Print the machine-readable JSON report (schema korch-report/1) on stdout instead of \
     the text summary; diagnostics go to stderr."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Record the orchestration as a Chrome trace-event file (open at chrome://tracing or \
     ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] under span collection when [--trace FILE] was given. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let r, doc = Obs.Trace.with_tracing f in
    let oc = open_out path in
    output_string oc doc;
    close_out oc;
    Printf.eprintf "wrote trace to %s\n%!" path;
    r

let report_meta ~source ~gpu ~precision ~batch ~jobs extra =
  [
    ("model", Obs.Jsonw.Str source);
    ("gpu", Obs.Jsonw.Str gpu.Gpu.Spec.name);
    ("precision", Obs.Jsonw.Str (Gpu.Precision.to_string precision));
    ("batch", Obs.Jsonw.Int batch);
    ("jobs", Obs.Jsonw.Int jobs);
  ]
  @ extra

let inject_conv =
  let parse s =
    match Faults.parse_rule s with Ok r -> Ok r | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf (site, spec) ->
        Format.fprintf ppf "%s:%s" (Faults.site_to_string site) (Faults.spec_to_string spec) )

let inject_arg =
  let doc =
    "Inject a deterministic synthetic fault at SITE \
     (profiler|solve|enumerate|transform|worker|onnx_parse|analysis|codegen_compile\
     |serve_accept|cache_io) \
     according to SPEC \
     ($(b,always), $(b,nth=K) for the K-th call, or $(b,p=P) for seeded probability P). \
     Repeatable. The orchestrator degrades the affected segment down its fallback ladder \
     instead of failing; the per-segment outcome table shows where each landed. \
     $(b,profiler) fires once per measured candidate: only candidates that pass the \
     static backend rules are measured, and a profile-cache hit measures nothing. \
     $(b,codegen_compile) fires in the native backend's kernel compiler: the affected \
     kernel degrades to the interpreter, never the run."
  in
  Arg.(value & opt_all inject_conv [] & info [ "inject" ] ~docv:"SITE:SPEC" ~doc)

let backend_conv =
  let parse s =
    match Runtime.Backend.of_string s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown backend %S (expected interp or native)" s))
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (Runtime.Backend.to_string b))

let backend_arg =
  let doc =
    "Execution backend for the stitched plan: $(b,interp) (the reference primitive \
     interpreter) or $(b,native) (C-compiled kernels, differentially verified against the \
     interpreter before first use, with per-kernel fallback). Defaults to $(b,KORCH_BACKEND) \
     from the environment, else interp."
  in
  Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~docv:"BACKEND" ~doc)

let fault_seed_arg =
  let doc =
    "Seed for probabilistic fault rules: the same seed and rules reproduce the same \
     injections, and therefore the same degraded plan, on every run."
  in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)

(* Install the CLI-level injection policy before anything (including ONNX
   parsing) runs, so every site — not just the orchestrated ones — can
   fire. *)
let install_faults rules seed = if rules <> [] then Faults.install ~seed rules

(* Per-segment outcome table, shown whenever a segment degraded (or on
   -v): which ladder tier each segment landed on and why. *)
let print_outcomes ~verbose (r : Korch.Orchestrator.result) =
  if verbose || r.Korch.Orchestrator.degraded_segments <> [] then
    print_string (Korch.Report.segment_table r)

let find_model name =
  match Models.Registry.find name with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown model %S; available: %s\n" name
      (String.concat ", " (List.map (fun e -> e.Models.Registry.name) Models.Registry.all));
    exit 2

let build_graph entry ~small ~batch =
  if small then entry.Models.Registry.build_small ~batch ()
  else entry.Models.Registry.build ~batch ()

(* Print [verb: FAILED] and exit 1. Under [--json] the line goes to
   stderr: stdout carries only documents. *)
let file_failed ~verb ~json =
  Printf.fprintf (if json then stderr else stdout) "%s: FAILED\n" verb;
  exit 1

(* The graph a verb works on: zoo model [-m MODEL] or the ONNX-JSON
   document FILE, with a source name for reports. Exits 1 when FILE does
   not parse and 2 unless exactly one of the two is given. *)
let load_graph ~verb ~json ~small ~batch model file =
  match (model, file) with
  | Some m, None -> (build_graph (find_model m) ~small ~batch, m)
  | None, Some f -> begin
    match Onnx.Graph_doc.opgraph_of_string (In_channel.with_open_bin f In_channel.input_all) with
    | g -> (g, Filename.basename f)
    | exception Onnx.Graph_doc.Format_error msg ->
      Printf.eprintf "%s: %s\n%!" f msg;
      file_failed ~verb ~json
  end
  | _ ->
    Printf.eprintf "%s: specify exactly one of -m MODEL or a FILE argument\n" verb;
    exit 2

let config ~spec ~precision ~window ~jobs =
  { Korch.Orchestrator.default_config with
    Korch.Orchestrator.spec; precision; partition_max_prims = window; jobs }

(* ------------------------- list ------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "models:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-14s %s (paper input %dx%d)\n" e.Models.Registry.name
          e.Models.Registry.description e.Models.Registry.paper_resolution
          e.Models.Registry.paper_resolution)
      Models.Registry.all;
    Printf.printf "GPUs:\n";
    List.iter
      (fun (s : Gpu.Spec.t) ->
        Printf.printf "  %-6s %5.1f FP32 TFLOPS, %6.0f GB/s\n" s.Gpu.Spec.name
          s.Gpu.Spec.fp32_tflops s.Gpu.Spec.mem_bw_gb_s)
      Gpu.Spec.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List models and GPU targets")
    Term.(const run $ const ())

(* ----------------------- optimize ----------------------- *)

let optimize_action model gpu precision batch small window jobs verbose dot inject
    fault_seed json trace =
  install_faults inject fault_seed;
  (* Info lines must not corrupt the JSON document on stdout. *)
  let say fmt = Printf.ksprintf (fun s -> if json then prerr_string s else print_string s) fmt in
  let entry = find_model model in
  let g = build_graph entry ~small ~batch in
  let t0 = Obs.Clock.now_s () in
  let r =
    with_trace trace (fun () -> Korch.Orchestrator.run (config ~spec:gpu ~precision ~window ~jobs) g)
  in
  let wall_s = Obs.Clock.now_s () -. t0 in
  if json then
    print_endline
      (Korch.Report.json_string
         ~meta:
           (report_meta ~source:model ~gpu ~precision ~batch ~jobs
              [ ("wall_s", Obs.Jsonw.Float wall_s) ])
         r)
  else begin
    Printf.printf "%s on %s/%s (batch %d)\n" model gpu.Gpu.Spec.name
      (Gpu.Precision.to_string precision) batch;
    print_string (Korch.Report.summary r);
    Printf.printf "  wall-clock opt  : %.1f s\n" wall_s;
    print_outcomes ~verbose r;
    if verbose then Format.printf "%a" Runtime.Plan.pp r.Korch.Orchestrator.plan
  end;
  (match dot with
  | Some path ->
    let oc = open_out path in
    output_string oc
      (Runtime.Dot_export.plan_to_dot r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan);
    close_out oc;
    say "wrote kernel-cluster DOT to %s\n" path
  | None -> ())

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Discover the optimal kernel orchestration for a model")
    Term.(
      const optimize_action $ model_arg $ gpu_arg $ precision_arg $ batch_arg $ small_arg
      $ window_arg $ jobs_arg $ verbose_arg
      $ Arg.(value & opt (some string) None
             & info [ "dot" ] ~docv:"FILE" ~doc:"Write the plan as a Graphviz DOT file.")
      $ inject_arg $ fault_seed_arg $ json_arg $ trace_arg)

(* ----------------------- compare ----------------------- *)

let compare_action model gpu precision batch small window jobs =
  let entry = find_model model in
  let g = build_graph entry ~small ~batch in
  let env = Baselines.Common.make_env ~spec:gpu ~precision g in
  Printf.printf "%-12s %12s %9s\n" "strategy" "latency(us)" "kernels";
  List.iter
    (fun (name, run) ->
      let plan = run env in
      Printf.printf "%-12s %12.1f %9d\n" name plan.Runtime.Plan.total_latency_us
        (Runtime.Plan.kernel_count plan))
    [ ("eager", Baselines.Eager.run); ("greedy-tvm", Baselines.Greedy_tvm.run);
      ("tensorrt", Baselines.Trt.run); ("dp-chain", Baselines.Dp_chain.run) ];
  let r = Korch.Orchestrator.run (config ~spec:gpu ~precision ~window ~jobs) g in
  Printf.printf "%-12s %12.1f %9d   (%d redundant primitive executions)\n" "korch"
    r.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
    (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan)
    (Runtime.Plan.redundancy r.Korch.Orchestrator.plan)

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare Korch against the fusion baselines")
    Term.(
      const compare_action $ model_arg $ gpu_arg $ precision_arg $ batch_arg $ small_arg
      $ window_arg $ jobs_arg)

(* ------------------------ export ------------------------ *)

let export_action model batch small output =
  let entry = find_model model in
  let g = build_graph entry ~small ~batch in
  let doc = Onnx.Graph_doc.opgraph_to_string g in
  let oc = open_out output in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote %s (%d bytes, %d nodes)\n" output (String.length doc) (Ir.Graph.length g)

let export_cmd =
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path for the ONNX-JSON document.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a model as an ONNX-JSON document")
    Term.(const export_action $ model_arg $ batch_arg $ small_arg $ output)

(* ------------------------- check ------------------------ *)

let print_report ~verbose title report =
  let shown =
    if verbose then report
    else
      List.filter
        (fun (d : Verify.Diagnostics.diag) -> d.Verify.Diagnostics.severity <> Verify.Diagnostics.Info)
        report
  in
  let e, w, i = Verify.Diagnostics.count_severity report in
  Printf.printf "%-22s %d error(s), %d warning(s), %d info\n" title e w i;
  List.iter (fun d -> Format.printf "  %a@." Verify.Diagnostics.pp_diag d) shown

let check_action model file gpu precision batch small window jobs rules lint_seed json verbose
    =
  let g, source = load_graph ~verb:"check" ~json ~small ~batch model file in
  (* Every stage's findings so far, newest first, for [--json]. *)
  let findings = ref [] in
  let finish ~ok =
    if json then
      print_endline
        (Verify.Diagnostics.json_string
           ~meta:
             [
               ("source", Obs.Jsonw.Str source);
               ("precision", Obs.Jsonw.Str (Gpu.Precision.to_string precision));
               ("batch", Obs.Jsonw.Int batch);
             ]
           (List.concat (List.rev !findings)))
    else print_endline (if ok then "check: OK" else "check: FAILED");
    if not ok then exit 1
  in
  (* Stop at the first stage with errors: downstream stages run on its
     output and would only cascade. *)
  let stage title report =
    findings := report :: !findings;
    if not json then print_report ~verbose title report;
    if Verify.Diagnostics.has_errors report then finish ~ok:false
  in
  stage "operator graph" (Verify.opgraph_check g);
  let pg = Korch.Orchestrator.fission g in
  stage "fissioned graph" (Verify.graph_check pg @ Verify.Vrange.check pg);
  (* The orchestrator's own invariant checking is off here so a broken
     stage surfaces as a printed report rather than an exception. *)
  let cfg =
    { (config ~spec:gpu ~precision ~window ~jobs) with
      Korch.Orchestrator.check_invariants = false }
  in
  (match Korch.Orchestrator.run_primgraph cfg pg with
  | r ->
    let graph = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
    stage "stitched graph" (Verify.graph_check graph);
    let bytes_per_element = Gpu.Precision.bytes_per_element precision in
    stage "kernel plan"
      (Verify.plan_check graph plan
      @ Verify.Hazard.check ~bytes_per_element graph plan
          (Runtime.Memplan.analyze ~bytes_per_element graph plan))
  | exception Korch.Orchestrator.Orchestration_failed e ->
    stage "orchestration"
      [ Verify.Diagnostics.error ~pass:"orchestrate" ~loc:Verify.Diagnostics.Whole "%s"
          (Korch.Orchestrator.Error.to_string e) ]);
  if rules then stage "rewrite rules" (Verify.lint_rules ~seed:lint_seed ());
  finish ~ok:true

let check_cmd =
  let model =
    Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"MODEL"
           ~doc:"Model from the zoo to check (see `korch list').")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"ONNX-JSON operator graph to check instead of a zoo model.")
  in
  let rules =
    Arg.(value & flag & info [ "rules" ]
           ~doc:"Also lint every fission and transformation rewrite rule.")
  in
  let lint_seed =
    Arg.(value & opt int 0x5eed & info [ "lint-seed" ] ~docv:"N"
           ~doc:"Seed for the rewrite-rule linter's random pattern instances (with \
                 $(b,--rules)). CI rotates this so successive runs exercise fresh \
                 instances.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print one korch-lint/1 JSON document of every finding from the stages \
                 that ran on stdout instead of the per-stage text listing.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically check a model end to end: operator graph, fissioned primitive \
             graph with value ranges (div-by-zero, log/sqrt domain, exp overflow), \
             stitched graph, and kernel plan with the memory-planner hazard \
             cross-check. Exits 1 on any error finding.")
    Term.(
      const check_action $ model $ file $ gpu_arg $ precision_arg $ batch_arg $ small_arg
      $ window_arg $ jobs_arg $ rules $ lint_seed $ json $ verbose_arg)

(* -------------------------- run ------------------------- *)

let run_action file model gpu precision batch small window jobs verbose inject fault_seed json
    trace assert_det mem_report backend =
  install_faults inject fault_seed;
  let backend = match backend with Some b -> b | None -> Runtime.Backend.default () in
  let g, source = load_graph ~verb:"run" ~json ~small ~batch model file in
  (* A document can parse and still hold operator parameters shape
     inference refuses; orchestrating it would die inside fission. Zoo
     builds are trusted. *)
  Option.iter
    (fun f ->
      let errors = Verify.Diagnostics.errors (Verify.opgraph_check g) in
      if errors <> [] then begin
        List.iter (fun d -> Format.eprintf "%s: %a@." f Verify.Diagnostics.pp_diag d) errors;
        file_failed ~verb:"run" ~json
      end)
    file;
  let cfg = config ~spec:gpu ~precision ~window ~jobs in
  let r = with_trace trace (fun () -> Korch.Orchestrator.run cfg g) in
  (* [--assert-deterministic]: re-orchestrate at a different worker count
     (and with tracing off) and require the bit-identical plan — the
     reproducibility contract the solver's node-count budget exists for. *)
  if assert_det then begin
    let alt_jobs = if jobs = 1 then max 2 (Parallel.Domain_pool.default_jobs ()) else 1 in
    let r2 = Korch.Orchestrator.run { cfg with Korch.Orchestrator.jobs = alt_jobs } g in
    if r.Korch.Orchestrator.plan = r2.Korch.Orchestrator.plan then
      Printf.eprintf "deterministic: plans bit-identical at -j %d and -j %d\n%!" jobs alt_jobs
    else begin
      Printf.eprintf "run: NOT DETERMINISTIC — plans differ between -j %d and -j %d\n%!" jobs
        alt_jobs;
      exit 3
    end
  end;
  (* Execute the plan on random inputs as a functional check. *)
  let inputs =
    Array.to_list g.Ir.Graph.nodes
    |> List.filter_map (fun nd ->
           match nd.Ir.Graph.op with
           | Ir.Optype.Input name ->
             Some (name, Tensor.Nd.randn (Tensor.Rng.create 1) nd.Ir.Graph.shape)
           | _ -> None)
  in
  let expected = Runtime.Interp.run g ~inputs in
  let exec_stats = Runtime.Backend.fresh_exec_stats () in
  let got =
    Runtime.Executor.run ~backend ~exec_stats r.Korch.Orchestrator.graph
      r.Korch.Orchestrator.plan ~inputs
  in
  let diff =
    List.fold_left2 (fun a e g -> Float.max a (Tensor.Nd.max_abs_diff e g)) 0.0 expected got
  in
  (* Fold measured native-kernel wall-clocks into the profile database so
     the cost model accumulates calibration data. *)
  let recorded =
    Korch.Calibrate.record ~spec:gpu ~precision r.Korch.Orchestrator.graph
      r.Korch.Orchestrator.plan exec_stats
  in
  (* [--mem-report]: re-execute with the memory planner's buffer-reuse
     mode, require bit-identical outputs, and print the planner + arena
     accounting. *)
  if mem_report then begin
    let stats = Runtime.Executor.fresh_stats () in
    let reused =
      Runtime.Executor.run ~reuse:true ~stats r.Korch.Orchestrator.graph
        r.Korch.Orchestrator.plan ~inputs
    in
    let bits_equal a b =
      Tensor.Shape.equal (Tensor.Nd.shape a) (Tensor.Nd.shape b)
      && Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           a.Tensor.Nd.data b.Tensor.Nd.data
    in
    if not (List.for_all2 bits_equal got reused) then begin
      Printf.eprintf "run: --mem-report outputs NOT bit-identical to the no-reuse executor\n%!";
      exit 4
    end;
    let mp =
      Runtime.Memplan.analyze r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan
    in
    let s = Runtime.Memplan.stats mp in
    Format.printf "memory plan (executor, 8 B/elem): %a@." Runtime.Memplan.pp_stats s;
    let m = r.Korch.Orchestrator.memory in
    Format.printf "memory plan (device, %d B/elem): %a@."
      (Gpu.Precision.bytes_per_element precision)
      Runtime.Memplan.pp_stats m;
    Printf.printf
      "arena: %d evals (%d into recycled buffers, %d reshape aliases), %d buffers freed \
       early, %d fresh elements vs %d without reuse; outputs bit-identical\n"
      stats.Runtime.Executor.evals stats.Runtime.Executor.into_evals
      stats.Runtime.Executor.aliases stats.Runtime.Executor.freed
      stats.Runtime.Executor.fresh_elems (s.Runtime.Memplan.no_reuse_bytes / 8)
  end;
  if json then
    print_endline
      (Korch.Report.json_string
         ~meta:
           (report_meta ~source ~gpu ~precision ~batch ~jobs
              [ ("max_abs_diff", Obs.Jsonw.Float diff) ])
         ~execution:(Korch.Report.execution_to_json ~backend exec_stats)
         r)
  else begin
    print_string (Korch.Report.summary r);
    print_outcomes ~verbose r;
    if verbose then Format.printf "%a" Runtime.Plan.pp r.Korch.Orchestrator.plan;
    (match backend with
    | Runtime.Backend.Interp -> ()
    | Runtime.Backend.Native ->
      Printf.printf "backend native: %d kernel(s) compiled+verified, %d on the interpreter"
        exec_stats.Runtime.Backend.native_kernels exec_stats.Runtime.Backend.interp_kernels;
      if recorded > 0 then Printf.printf "; %d measured timing(s) recorded" recorded;
      print_newline ();
      List.iter
        (fun (ki, reason) -> Printf.printf "  kernel %d fell back: %s\n" ki reason)
        (List.sort compare exec_stats.Runtime.Backend.fallbacks);
      if verbose then
        List.iter
          (fun (ki, us) -> Printf.printf "  kernel %d: %.2f us measured\n" ki us)
          (List.sort compare exec_stats.Runtime.Backend.kernel_times_us));
    Printf.printf "executed plan; max |diff| vs reference interpreter: %g\n" diff
  end

let run_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"ONNX-JSON operator graph to optimize and execute.")
  in
  let model =
    Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"MODEL"
           ~doc:"Zoo model to optimize and execute instead of a FILE (see `korch list').")
  in
  let assert_det =
    Arg.(value & flag
         & info [ "assert-deterministic" ]
             ~doc:"Re-orchestrate at a different -j and fail (exit 3) unless the plans are \
                   bit-identical.")
  in
  let mem_report =
    Arg.(value & flag
         & info [ "mem-report" ]
             ~doc:"Execute the plan a second time with buffer reuse, fail (exit 4) unless \
                   outputs are bit-identical, and print the memory planner and arena stats.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize and execute an ONNX-JSON graph or zoo model")
    Term.(
      const run_action $ file $ model $ gpu_arg $ precision_arg $ batch_arg $ small_arg
      $ window_arg $ jobs_arg $ verbose_arg $ inject_arg $ fault_seed_arg $ json_arg $ trace_arg
      $ assert_det $ mem_report $ backend_arg)

(* ------------------------- table ------------------------ *)

let table_action model gpu precision lo hi small window jobs json =
  if lo < 1 || hi < lo then begin
    Printf.eprintf "invalid batch range [%d, %d]: need 1 <= lo <= hi\n" lo hi;
    exit 2
  end;
  let entry = find_model model in
  let build ~batch = build_graph entry ~small ~batch in
  let cfg = config ~spec:gpu ~precision ~window ~jobs in
  let t0 = Obs.Clock.now_s () in
  let tab = Korch.Plan_table.build cfg ~model ~build ~lo ~hi in
  let wall_s = Obs.Clock.now_s () -. t0 in
  if json then print_endline (Korch.Report.plan_table_json_string tab)
  else begin
    Format.printf "%a" Korch.Plan_table.pp tab;
    Printf.printf "  wall-clock sweep: %.1f s\n" wall_s
  end

let table_cmd =
  let lo =
    Arg.(value & opt int 1 & info [ "lo" ] ~docv:"N" ~doc:"First batch the table covers.")
  in
  let hi =
    Arg.(value & opt int 8 & info [ "hi" ] ~docv:"N" ~doc:"Last batch the table covers.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the machine-readable table document (schema korch-plan-table/1) \
                   on stdout instead of the text summary.")
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:"Build a batch-parametric plan table: orchestrate a model at doubling probe \
             batches, group probes that chose the same plan topology into batch ranges, \
             and refine the range boundaries into cost-model crossover batches.")
    Term.(
      const table_action $ model_arg $ gpu_arg $ precision_arg $ lo $ hi $ small_arg
      $ window_arg $ jobs_arg $ json)

let () =
  let info =
    Cmd.info "korch" ~version:"1.0.0"
      ~doc:"Optimal kernel orchestration for tensor programs (Korch, ASPLOS 2024)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; optimize_cmd; compare_cmd; export_cmd; run_cmd; check_cmd; table_cmd;
          ]))
