(* Fault injection and graceful degradation.

   Registry unit tests (deterministic firing, parsing, zero-overhead when
   disabled), then the fault matrix: one injected failure at every
   pipeline site across two zoo models, asserting that orchestration
   always completes, the degraded plan still passes Plan_check, and the
   executed outputs stay correct at every ladder tier — bit-for-bit
   against the primitive interpreter on the stitched graph, and within
   FP32 tolerance against the operator interpreter on the original
   graph. *)

open Ir
open Tensor

(* ---------------- registry ---------------- *)

let count_hits site n =
  let hits = ref [] in
  for call = 1 to n do
    match Faults.check site with () -> () | exception Faults.Injected _ -> hits := call :: !hits
  done;
  List.rev !hits

let test_nth_fires_once () =
  Faults.with_policy [ (Faults.Profiler, Faults.Nth 3) ] (fun () ->
      Alcotest.(check (list int)) "only the 3rd call" [ 3 ] (count_hits Faults.Profiler 6);
      Alcotest.(check int) "calls counted" 6 (Faults.calls Faults.Profiler);
      Alcotest.(check int) "one injection" 1 (Faults.injected Faults.Profiler);
      (* Other sites are untouched. *)
      Alcotest.(check (list int)) "other site silent" [] (count_hits Faults.Solve 4))

let test_always_fires_every_call () =
  Faults.with_policy [ (Faults.Enumerate, Faults.Always) ] (fun () ->
      Alcotest.(check (list int)) "all calls" [ 1; 2; 3; 4 ] (count_hits Faults.Enumerate 4))

let test_prob_is_seeded_deterministic () =
  let pattern seed =
    Faults.with_policy ~seed [ (Faults.Worker, Faults.Prob 0.3) ] (fun () ->
        count_hits Faults.Worker 200)
  in
  Alcotest.(check (list int)) "same seed, same pattern" (pattern 42) (pattern 42);
  let hits = List.length (pattern 42) in
  Alcotest.(check bool) "plausible rate for p=0.3 over 200 draws" true (hits > 20 && hits < 120);
  Faults.with_policy [ (Faults.Worker, Faults.Prob 0.0) ] (fun () ->
      Alcotest.(check (list int)) "p=0 never fires" [] (count_hits Faults.Worker 50));
  Faults.with_policy [ (Faults.Worker, Faults.Prob 1.0) ] (fun () ->
      Alcotest.(check int) "p=1 always fires" 50 (List.length (count_hits Faults.Worker 50)))

let test_disabled_is_noop () =
  Faults.clear ();
  Alcotest.(check bool) "inactive" false (Faults.active ());
  for _ = 1 to 100 do
    Faults.check Faults.Profiler
  done;
  Alcotest.(check int) "no counting when disabled" 0 (Faults.calls Faults.Profiler)

let test_parse_rule () =
  let ok s expect =
    match Faults.parse_rule s with
    | Ok r -> Alcotest.(check bool) s true (r = expect)
    | Error m -> Alcotest.failf "%s rejected: %s" s m
  in
  ok "profiler:always" (Faults.Profiler, Faults.Always);
  ok "solve:nth=4" (Faults.Solve, Faults.Nth 4);
  ok "worker:p=0.25" (Faults.Worker, Faults.Prob 0.25);
  ok "onnx_parse:prob=0.5" (Faults.Onnx_parse, Faults.Prob 0.5);
  List.iter
    (fun bad ->
      match Faults.parse_rule bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "profiler"; "bogus:always"; "profiler:sometimes"; "profiler:nth=0"; "worker:p=2.0"; "" ]

let test_with_policy_restores () =
  Faults.install [ (Faults.Profiler, Faults.Nth 1) ];
  Faults.with_policy [ (Faults.Enumerate, Faults.Always) ] (fun () ->
      Alcotest.(check (list int)) "inner policy" [ 1; 2 ] (count_hits Faults.Enumerate 2);
      Alcotest.(check (list int)) "inner: profiler rule gone" [] (count_hits Faults.Profiler 2));
  Alcotest.(check (list int)) "outer policy restored" [ 1 ] (count_hits Faults.Profiler 2);
  Faults.clear ()

(* ---------------- fault matrix ---------------- *)

let inputs_of (g : Opgraph.t) seed =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Optype.Input name -> Some (name, Nd.randn (Rng.create seed) nd.Graph.shape)
         | _ -> None)

let build_model (e : Models.Registry.entry) = e.Models.Registry.build_small ()

(* Run a model under an injection policy and check the full robustness
   contract: completion, plan validity, and output correctness. *)
let run_checked ~label ?(jobs = 1) ?(fault_seed = 1) ~faults (e : Models.Registry.entry) :
    Korch.Orchestrator.result =
  let g = build_model e in
  let cfg = { Korch.Orchestrator.default_config with jobs } in
  let r =
    match Faults.with_policy ~seed:fault_seed faults (fun () -> Korch.Orchestrator.run cfg g) with
    | r -> r
    | exception exn ->
      Alcotest.failf "%s: orchestration died instead of degrading: %s" label
        (Printexc.to_string exn)
  in
  let report = Verify.plan_check r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan in
  if Verify.Diagnostics.has_errors report then
    Alcotest.failf "%s: degraded plan fails Plan_check: %s" label
      (Verify.Diagnostics.error_summary report);
  let inputs = inputs_of g 101 in
  let got = Runtime.Executor.run r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs in
  (* Bit-for-bit: executing the plan's kernels must compute exactly what
     the primitive interpreter computes on the same stitched graph, at
     every ladder tier — degradation changes kernel grouping, never
     values. *)
  let prim_ref = Runtime.Prim_interp.run r.Korch.Orchestrator.graph ~inputs in
  List.iteri
    (fun i (e', a) ->
      if not (Nd.equal ~eps:0.0 e' a) then
        Alcotest.failf "%s: output %d differs bit-for-bit from Prim_interp (max %g)" label i
          (Nd.max_abs_diff e' a))
    (List.combine prim_ref got);
  (* FP32-tolerance: against the operator interpreter on the original
     graph (fission/transformations legitimately reassociate). *)
  let op_ref = Runtime.Interp.run g ~inputs in
  List.iteri
    (fun i (e', a) ->
      if not (Nd.allclose ~rtol:1e-4 ~atol:1e-6 e' a) then
        Alcotest.failf "%s: output %d diverges from reference (max %g)" label i
          (Nd.max_abs_diff e' a))
    (List.combine op_ref got);
  r

let matrix_models () = [ Models.Registry.candy; Models.Registry.yolox ]

let seg_outcomes (r : Korch.Orchestrator.result) =
  List.map (fun s -> s.Korch.Orchestrator.outcome) r.Korch.Orchestrator.segments

let test_inject_profiler () =
  List.iter
    (fun e ->
      let label = "profiler/" ^ e.Models.Registry.name in
      let r = run_checked ~label ~faults:[ (Faults.Profiler, Faults.Always) ] e in
      (* Every measurement failed: all real candidates are gone, and the
         synthesized singletons carry the plan. *)
      Alcotest.(check bool)
        (label ^ ": profile failures recorded") true
        (List.exists
           (fun s -> s.Korch.Orchestrator.id_stats.Korch.Kernel_identifier.profile_failures > 0)
           r.Korch.Orchestrator.segments))
    (matrix_models ())

let test_inject_solve () =
  List.iter
    (fun e ->
      let label = "solve/" ^ e.Models.Registry.name in
      let r = run_checked ~label ~faults:[ (Faults.Solve, Faults.Always) ] e in
      (* The segment solver never ran: every non-trivial segment must land
         on the greedy or unfused tier and say why. *)
      Alcotest.(check bool) (label ^ ": degraded") true
        (r.Korch.Orchestrator.degraded_segments <> []);
      List.iter
        (fun (s : Korch.Orchestrator.segment_result) ->
          if s.Korch.Orchestrator.selected <> [] then begin
            let o = s.Korch.Orchestrator.outcome in
            Alcotest.(check bool) (label ^ ": tier below the solver") true
              (Korch.Orchestrator.tier_is_degraded o.Korch.Orchestrator.tier);
            Alcotest.(check bool) (label ^ ": reason recorded") true
              (o.Korch.Orchestrator.fallback_reason <> None)
          end)
        r.Korch.Orchestrator.segments)
    (matrix_models ())

let test_inject_enumerate () =
  List.iter
    (fun e ->
      let label = "enumerate/" ^ e.Models.Registry.name in
      let r = run_checked ~label ~faults:[ (Faults.Enumerate, Faults.Always) ] e in
      (* Identification died at entry on every segment: zero states, a
         recorded reason, and a plan built purely from synthesized
         singletons. *)
      Alcotest.(check int) (label ^ ": no states enumerated") 0 r.Korch.Orchestrator.total_states;
      List.iter
        (fun (o : Korch.Orchestrator.outcome) ->
          Alcotest.(check bool) (label ^ ": reason recorded") true
            (o.Korch.Orchestrator.fallback_reason <> None))
        (seg_outcomes r))
    (matrix_models ())

let test_inject_transform () =
  List.iter
    (fun e ->
      let label = "transform/" ^ e.Models.Registry.name in
      let r = run_checked ~label ~faults:[ (Faults.Transform, Faults.Always) ] e in
      List.iter
        (fun (o : Korch.Orchestrator.outcome) ->
          Alcotest.(check bool) (label ^ ": transform degraded") true
            o.Korch.Orchestrator.transform_degraded)
        (seg_outcomes r))
    (matrix_models ())

let test_inject_worker () =
  List.iter
    (fun e ->
      let label = "worker/" ^ e.Models.Registry.name in
      let r = run_checked ~label ~jobs:4 ~faults:[ (Faults.Worker, Faults.Always) ] e in
      (* Every pool task died at entry; each segment must have been
         retried sequentially on the main domain. *)
      List.iter
        (fun (o : Korch.Orchestrator.outcome) ->
          Alcotest.(check bool) (label ^ ": retried") true (o.Korch.Orchestrator.retries > 0))
        (seg_outcomes r))
    (matrix_models ())

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_inject_onnx_parse () =
  let e = Models.Registry.candy in
  let doc = Onnx.Graph_doc.opgraph_to_string (build_model e) in
  Faults.with_policy [ (Faults.Onnx_parse, Faults.Always) ] (fun () ->
      match Onnx.Graph_doc.opgraph_of_string doc with
      | _ -> Alcotest.fail "expected Format_error from injected parse fault"
      | exception Onnx.Graph_doc.Format_error m ->
        Alcotest.(check bool) "names the injection" true (contains ~needle:"injected fault" m));
  (* Without the policy the same document parses. *)
  match Onnx.Graph_doc.opgraph_of_string doc with
  | _ -> ()
  | exception exn -> Alcotest.failf "clean parse failed: %s" (Printexc.to_string exn)

(* ---------------- determinism under faults ---------------- *)

let plan_fingerprint (r : Korch.Orchestrator.result) =
  List.map
    (fun (k : Runtime.Plan.kernel) ->
      (k.Runtime.Plan.prims, k.Runtime.Plan.outputs, k.Runtime.Plan.latency_us,
       k.Runtime.Plan.backend))
    r.Korch.Orchestrator.plan.Runtime.Plan.kernels

let test_same_seed_same_degraded_plan () =
  let e = Models.Registry.candy in
  let faults = [ (Faults.Profiler, Faults.Prob 0.3) ] in
  let run () = run_checked ~label:"prob-determinism" ~fault_seed:42 ~faults e in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same degraded plan" true
    (plan_fingerprint a = plan_fingerprint b)

let () =
  Alcotest.run "faults"
    [
      ( "registry",
        [ Alcotest.test_case "nth fires once" `Quick test_nth_fires_once;
          Alcotest.test_case "always fires" `Quick test_always_fires_every_call;
          Alcotest.test_case "prob deterministic" `Quick test_prob_is_seeded_deterministic;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "parse rules" `Quick test_parse_rule;
          Alcotest.test_case "with_policy restores" `Quick test_with_policy_restores ] );
      ( "fault matrix",
        [ Alcotest.test_case "profiler" `Slow test_inject_profiler;
          Alcotest.test_case "solve" `Slow test_inject_solve;
          Alcotest.test_case "enumerate" `Slow test_inject_enumerate;
          Alcotest.test_case "transform" `Slow test_inject_transform;
          Alcotest.test_case "worker" `Slow test_inject_worker;
          Alcotest.test_case "onnx_parse" `Quick test_inject_onnx_parse ] );
      ( "determinism",
        [ Alcotest.test_case "same fault seed, same plan" `Slow
            test_same_seed_same_degraded_plan ] );
    ]
