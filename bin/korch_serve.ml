(* korch_serve — crash-safe orchestration daemon and its client.

   Subcommands:
     korch_serve daemon [...]        run the server (Unix-domain socket)
     korch_serve optimize -m MODEL   ask a running daemon for a plan
     korch_serve run -m MODEL        plan + execute, print output checksums
     korch_serve health|stats|drain  admin verbs

   Every client subcommand prints the daemon's JSON response on stdout
   and exits 0 on status ok/degraded/draining, 1 otherwise — so shell
   smoke tests can gate on the exit code. *)

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

let inject_conv =
  let parse s =
    match Faults.parse_rule s with Ok r -> Ok r | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf (site, spec) ->
        Format.fprintf ppf "%s:%s" (Faults.site_to_string site) (Faults.spec_to_string spec) )

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(
    value
    & opt string Serve.Server.default_config.Serve.Server.socket_path
    & info [ "socket" ] ~docv:"PATH" ~doc)

(* ------------------------------- daemon ------------------------------- *)

let daemon_action socket cache_dir jobs queue_limit gpu precision inject fault_seed
    metrics_out verbose =
  if inject <> [] then Faults.install ~seed:fault_seed inject;
  Serve.Server.run
    {
      Serve.Server.default_config with
      Serve.Server.socket_path = socket;
      cache_dir;
      jobs;
      queue_limit;
      gpu;
      precision;
      metrics_out;
      verbose;
    }

let daemon_cmd =
  let cache_dir =
    Arg.(
      value
      & opt string Serve.Server.default_config.Serve.Server.cache_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Durable plan-cache directory. Entries survive kill -9; a restarted daemon \
             warm-hits every previously orchestrated model.")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Request-handling worker domains (<= 1 = inline).")
  in
  let queue_limit =
    Arg.(
      value & opt int 16
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Max in-flight optimize/run requests; beyond this the daemon answers \
             {status: overloaded} immediately (clients back off and retry).")
  in
  let gpu = Arg.(value & opt spec_conv Gpu.Spec.v100 & info [ "gpu" ] ~docv:"GPU" ~doc:"Default target GPU (requests may override).") in
  let precision =
    Arg.(
      value
      & opt precision_conv Gpu.Precision.FP32
      & info [ "precision" ] ~docv:"PREC" ~doc:"Default precision (requests may override).")
  in
  let inject =
    Arg.(
      value & opt_all inject_conv []
      & info [ "inject" ] ~docv:"SITE:SPEC"
          ~doc:
            "Install a deterministic fault-injection policy in the daemon (same grammar as \
             `korch optimize --inject'; new sites: $(b,serve_accept) degrades the admission \
             path, $(b,cache_io) fails plan-cache disk touches). Requests are still served \
             down the degradation ladder.")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for probabilistic fault rules.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Republish the full stats snapshot (atomic rename) to FILE after every request, \
             so the file is current even after a kill -9.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"One log line per request.") in
  Cmd.v
    (Cmd.info "daemon" ~doc:"Run the korch_serve daemon")
    Term.(
      const daemon_action $ socket_arg $ cache_dir $ jobs $ queue_limit $ gpu $ precision
      $ inject $ fault_seed $ metrics_out $ verbose)

(* ------------------------------- client ------------------------------- *)

let exit_of_response (resp : Onnx.Json.t) : int =
  match Onnx.Json.member "status" resp with
  | Some (Onnx.Json.Str ("ok" | "degraded" | "draining")) -> 0
  | _ -> 1

let send socket (req : Serve.Protocol.request) =
  match Serve.Client.request ~socket (Serve.Protocol.request_to_json req) with
  | resp ->
    print_endline (Onnx.Json.to_string resp);
    exit (exit_of_response resp)
  | exception Serve.Client.Request_failed msg ->
    Printf.eprintf "korch_serve: %s\n" msg;
    exit 1

let model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Model from the zoo (see `korch list').")

let graph_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "graph" ] ~docv:"FILE" ~doc:"ONNX-JSON operator-graph document to send inline.")

let small_arg = Arg.(value & flag & info [ "small" ] ~doc:"Use the model's reduced instance.")
let batch_arg = Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc:"Batch size.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request orchestration deadline: the solver's settled-state budget shrinks as it \
           approaches; segments starting past it take the unfused floor. The response \
           records the tier the request landed on.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Bypass the plan-cache lookup for this request.")

let backend_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ] ~docv:"BACKEND" ~doc:"Execution backend for `run' (interp or native).")

let gpu_opt_arg =
  Arg.(value & opt (some string) None & info [ "gpu" ] ~docv:"GPU" ~doc:"Target GPU override.")

let precision_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "precision" ] ~docv:"PREC" ~doc:"Precision override.")

let request_action verb socket model graph small batch gpu precision deadline_ms backend
    no_cache =
  let graph_doc =
    match graph with
    | None -> None
    | Some path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
  in
  send socket
    {
      Serve.Protocol.verb;
      model;
      graph_doc;
      small;
      batch;
      gpu;
      precision;
      deadline_ms;
      backend;
      no_cache;
      batch_lo = None;
      batch_hi = None;
    }

let heavy_cmd verb doc =
  Cmd.v (Cmd.info verb ~doc)
    Term.(
      const (request_action verb) $ socket_arg $ model_arg $ graph_arg $ small_arg $ batch_arg
      $ gpu_opt_arg $ precision_opt_arg $ deadline_arg $ backend_arg $ no_cache_arg)

let lo_arg =
  Arg.(value & opt int 1 & info [ "lo" ] ~docv:"N" ~doc:"First batch the table covers.")

let hi_arg =
  Arg.(value & opt int 8 & info [ "hi" ] ~docv:"N" ~doc:"Last batch the table covers.")

let table_action socket model small gpu precision lo hi no_cache =
  send socket
    {
      Serve.Protocol.default_request with
      Serve.Protocol.verb = "table";
      model;
      small;
      gpu;
      precision;
      batch_lo = Some lo;
      batch_hi = Some hi;
      no_cache;
    }

let table_cmd =
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Ask a running daemon for a batch-range plan table: one orchestration sweep over \
          probe batches, answered with per-range plans and cost-model crossover batches.")
    Term.(
      const table_action $ socket_arg $ model_arg $ small_arg $ gpu_opt_arg
      $ precision_opt_arg $ lo_arg $ hi_arg $ no_cache_arg)

let admin_action verb socket =
  send socket { Serve.Protocol.default_request with Serve.Protocol.verb }

let admin_cmd verb doc =
  Cmd.v (Cmd.info verb ~doc) Term.(const (admin_action verb) $ socket_arg)

let () =
  let info =
    Cmd.info "korch_serve" ~version:"1.0.0"
      ~doc:"Crash-safe serving daemon for the Korch orchestrator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            daemon_cmd;
            heavy_cmd "optimize" "Ask a running daemon for an executable plan";
            heavy_cmd "run" "Plan and execute on the daemon, printing output checksums";
            table_cmd;
            admin_cmd "health" "Liveness probe";
            admin_cmd "stats" "Latency percentiles, queue depth, cache hit-rate, tier counts";
            admin_cmd "drain" "Stop admitting work; the daemon exits when in-flight requests finish";
          ]))
