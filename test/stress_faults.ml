(* Fault-injection stress sweep (the dune @stress alias).

   Three phases on a fast attention subgraph:

   1. deterministic matrix — [Always] at every orchestrated site, plus a
      worker-site run on a 4-domain pool;
   2. randomized sweep — 50 seeds, each deriving a mixed policy of
      [Nth]/[Prob] rules over several sites;
   3. codegen degradation — the [Codegen_compile] site fires inside the
      native backend's kernel compiler; every affected kernel must
      degrade to the interpreter (recorded in the exec stats), the run
      must complete, and outputs stay bit-identical to Prim_interp;

   4. serving matrix — the [Serve_accept] and [Cache_io] sites fire
      inside Serve.Server.handle (driven in process, no sockets); every
      request must still be answered with an executable plan — status
      "ok" or "degraded", never "error" — even with both sites firing
      on every call under a deadline.

   Every run must complete, pass Plan_check, and execute bit-for-bit
   identically to the primitive interpreter on the stitched graph.
   Exits 1 on the first violation. *)

open Ir
open Tensor

let failures = ref 0

let fail_case label fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %-28s %s\n%!" label msg)
    fmt

let graph () = Models.Segformer.attention_subgraph ~batch:1 ~tokens:16 ~channels:8 ()

let inputs_of (g : Opgraph.t) =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Optype.Input name -> Some (name, Nd.randn (Rng.create 7) nd.Graph.shape)
         | _ -> None)

let run_case ~label ?(jobs = 1) ?(post = fun (_ : Korch.Orchestrator.result) -> None)
    ~fault_seed faults =
  let g = graph () in
  let cfg = { Korch.Orchestrator.default_config with jobs } in
  match Faults.with_policy ~seed:fault_seed faults (fun () -> Korch.Orchestrator.run cfg g) with
  | exception exn -> fail_case label "orchestration died: %s" (Printexc.to_string exn)
  | r ->
    let report = Verify.plan_check r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan in
    if Verify.Diagnostics.has_errors report then
      fail_case label "Plan_check: %s" (Verify.Diagnostics.error_summary report)
    else begin
      let inputs = inputs_of g in
      let got =
        Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs
      in
      let ref_ = Runtime.Prim_interp.run r.Korch.Orchestrator.graph ~inputs in
      let ok = List.for_all2 (fun a b -> Nd.equal ~eps:0.0 a b) ref_ got in
      if not ok then fail_case label "plan output differs from Prim_interp"
      else begin
        match post r with
        | Some msg -> fail_case label "%s" msg
        | None ->
        Printf.printf "ok   %-28s tiers=[%s]%s\n%!" label
          (String.concat ","
             (List.map
                (fun s ->
                  Korch.Orchestrator.tier_to_string
                    s.Korch.Orchestrator.outcome.Korch.Orchestrator.tier)
                r.Korch.Orchestrator.segments))
          (if r.Korch.Orchestrator.degraded_segments <> [] then " (degraded)" else "")
      end
    end

let orchestrated_sites =
  [ Faults.Profiler; Faults.Solve; Faults.Enumerate; Faults.Transform ]

let () =
  (* Phase 1: deterministic matrix. *)
  List.iter
    (fun site ->
      run_case
        ~label:(Printf.sprintf "matrix/%s:always" (Faults.site_to_string site))
        ~fault_seed:1
        [ (site, Faults.Always) ])
    orchestrated_sites;
  run_case ~label:"matrix/worker:always(j=4)" ~jobs:4 ~fault_seed:1
    [ (Faults.Worker, Faults.Always) ];
  (* The [Analysis] site must neither kill nor degrade a run: the hazard
     cross-check is skipped and the skip is recorded in the result. *)
  run_case ~label:"matrix/analysis:always" ~fault_seed:1
    ~post:(fun r ->
      match r.Korch.Orchestrator.analysis with
      | Korch.Orchestrator.Analysis_skipped _ -> None
      | o ->
        Some
          (Printf.sprintf "expected analysis skipped, got %s"
             (Korch.Orchestrator.analysis_outcome_to_string o)))
    [ (Faults.Analysis, Faults.Always) ];
  (* Phase 2: randomized 50-seed sweep. Policies are derived from the
     seed, so the sweep itself is reproducible run to run. *)
  let sweep_sites = orchestrated_sites @ [ Faults.Analysis ] in
  for seed = 1 to 50 do
    let site = List.nth sweep_sites (seed mod List.length sweep_sites) in
    let spec =
      if seed mod 3 = 0 then Faults.Nth (1 + (seed mod 7))
      else Faults.Prob (0.1 +. (float_of_int (seed mod 5) /. 10.0))
    in
    let rules =
      (site, spec)
      :: (if seed mod 4 = 0 then [ (Faults.Worker, Faults.Prob 0.5) ] else [])
    in
    let jobs = if seed mod 4 = 0 then 4 else 1 in
    run_case
      ~label:
        (Printf.sprintf "sweep/seed=%d/%s:%s" seed (Faults.site_to_string site)
           (Faults.spec_to_string spec))
      ~jobs ~fault_seed:seed rules
  done;
  (* Phase 3: codegen degradation. The [Codegen_compile] site fires
     inside the native backend's kernel-cache resolve, so an injected
     fault must cost exactly the affected kernel its compiled
     implementation — never the run, never the outputs. *)
  if not (Codegen.Kernel_cache.available ()) then
    Printf.printf "skip codegen/* (no C compiler on PATH)\n%!"
  else begin
    let g = graph () in
    let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
    let inputs = inputs_of g in
    let ref_ = Runtime.Prim_interp.run r.Korch.Orchestrator.graph ~inputs in
    let nk = Runtime.Plan.kernel_count r.Korch.Orchestrator.plan in
    let native_case ~label ?(seed = 1) rules ~check =
      Faults.with_policy ~seed rules (fun () ->
          let stats = Runtime.Backend.fresh_exec_stats () in
          match
            Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:stats
              r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs
          with
          | exception exn ->
            fail_case label "native run died: %s" (Printexc.to_string exn)
          | got ->
            if not (List.for_all2 (fun a b -> Nd.equal ~eps:0.0 a b) ref_ got) then
              fail_case label "native output differs from Prim_interp"
            else begin
              match check stats with
              | Some msg -> fail_case label "%s" msg
              | None ->
                Printf.printf "ok   %-28s native=%d interp=%d fallback=%d\n%!" label
                  stats.Runtime.Backend.native_kernels
                  stats.Runtime.Backend.interp_kernels
                  (List.length stats.Runtime.Backend.fallbacks)
            end)
    in
    (* Baseline: no policy — every kernel compiles and runs natively. *)
    native_case ~label:"codegen/baseline" [] ~check:(fun s ->
        if s.Runtime.Backend.fallbacks <> [] then Some "unexpected fallbacks"
        else if s.Runtime.Backend.native_kernels <> nk then
          Some
            (Printf.sprintf "expected %d native kernels, got %d" nk
               s.Runtime.Backend.native_kernels)
        else None);
    (* Always: every resolve faults (the check precedes the cache lookup,
       so even warm kernels degrade); the whole plan lands on the
       interpreter with one recorded fallback per kernel. *)
    native_case ~label:"codegen/compile:always"
      [ (Faults.Codegen_compile, Faults.Always) ]
      ~check:(fun s ->
        if s.Runtime.Backend.native_kernels <> 0 then Some "a kernel escaped the fault"
        else if List.length s.Runtime.Backend.fallbacks <> nk then
          Some
            (Printf.sprintf "expected %d fallbacks, got %d" nk
               (List.length s.Runtime.Backend.fallbacks))
        else None);
    (* Nth 1: exactly the first resolve faults; that one kernel degrades
       and every other kernel still runs natively. *)
    native_case ~label:"codegen/compile:nth=1"
      [ (Faults.Codegen_compile, Faults.Nth 1) ]
      ~check:(fun s ->
        match s.Runtime.Backend.fallbacks with
        | [ (_, reason) ] ->
          if s.Runtime.Backend.native_kernels <> nk - 1 then
            Some
              (Printf.sprintf "expected %d native kernels, got %d" (nk - 1)
                 s.Runtime.Backend.native_kernels)
          else if not (String.length reason > 0) then Some "empty fallback reason"
          else None
        | l -> Some (Printf.sprintf "expected exactly 1 fallback, got %d" (List.length l)));
    (* Prob sweep: whatever subset faults, the run completes bit-exact
       and the accounting is consistent. *)
    for seed = 1 to 5 do
      native_case
        ~label:(Printf.sprintf "codegen/compile:p=0.5/s=%d" seed)
        ~seed
        [ (Faults.Codegen_compile, Faults.Prob 0.5) ]
        ~check:(fun s ->
          if
            s.Runtime.Backend.native_kernels + List.length s.Runtime.Backend.fallbacks
            <> nk
          then Some "native + fallback kernels do not cover the plan"
          else None)
    done
  end;
  (* Phase 4: serving matrix. Serve.Server.handle is the whole request
     path minus the socket; with the serve_accept / cache_io seams (and
     the orchestrated ones) firing, a request must still come back with a
     plan — degraded at worst, never an error. *)
  begin
    let cache_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "korch-stress-serve-%d" (Unix.getpid ()))
    in
    let rm_rf dir =
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end
    in
    rm_rf cache_dir;
    let t =
      Serve.Server.create
        {
          Serve.Server.default_config with
          Serve.Server.cache_dir;
          socket_path = Filename.concat cache_dir "unused.sock";
          jobs = 1;
        }
    in
    let request ?deadline_ms verb =
      Onnx.Json.of_string
        (Obs.Jsonw.to_string
           (Serve.Protocol.request_to_json
              { Serve.Protocol.default_request with Serve.Protocol.verb;
                model = Some "candy"; small = true; deadline_ms }))
    in
    let serve_case ~label ?(seed = 1) ?deadline_ms ~verb rules =
      Faults.with_policy ~seed rules (fun () ->
          match Serve.Server.handle t (request ?deadline_ms verb) with
          | exception exn -> fail_case label "handle raised: %s" (Printexc.to_string exn)
          | resp -> (
            let j = Onnx.Json.of_string (Obs.Jsonw.to_string resp) in
            let str k =
              match Onnx.Json.member k j with Some (Onnx.Json.Str s) -> s | _ -> "?"
            in
            match str "status" with
            | "ok" | "degraded" ->
              if Onnx.Json.member "plan" j = None then
                fail_case label "response carries no plan"
              else if verb = "run" && Onnx.Json.member "outputs" j = None then
                fail_case label "run response carries no outputs"
              else
                Printf.printf "ok   %-28s status=%s tier=%s cache=%s admission=%s\n%!" label
                  (str "status") (str "tier") (str "cache") (str "admission")
            | s -> fail_case label "status %S (error: %s)" s (str "error")))
    in
    serve_case ~label:"serve/accept:always" ~verb:"optimize"
      [ (Faults.Serve_accept, Faults.Always) ];
    serve_case ~label:"serve/cache_io:always" ~verb:"optimize"
      [ (Faults.Cache_io, Faults.Always) ];
    serve_case ~label:"serve/both:always" ~verb:"run"
      [ (Faults.Serve_accept, Faults.Always); (Faults.Cache_io, Faults.Always) ];
    serve_case ~label:"serve/deadline+all:always" ~verb:"run" ~deadline_ms:5.0
      [
        (Faults.Serve_accept, Faults.Always);
        (Faults.Cache_io, Faults.Always);
        (Faults.Solve, Faults.Always);
      ];
    (* cache_io:nth=1 costs exactly the first disk touch: the lookup
       misses, the store still publishes, so the next request warm-hits. *)
    serve_case ~label:"serve/cache_io:nth=1" ~verb:"optimize"
      [ (Faults.Cache_io, Faults.Nth 1) ];
    for seed = 1 to 10 do
      serve_case
        ~label:(Printf.sprintf "serve/sweep/s=%d" seed)
        ~seed ~verb:(if seed mod 2 = 0 then "run" else "optimize")
        ?deadline_ms:(if seed mod 3 = 0 then Some 2.0 else None)
        [ (Faults.Serve_accept, Faults.Prob 0.5); (Faults.Cache_io, Faults.Prob 0.5) ]
    done;
    rm_rf cache_dir
  end;
  if !failures > 0 then begin
    Printf.printf "stress_faults: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "stress_faults: all runs degraded gracefully"
