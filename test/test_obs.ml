(* Tests for lib/obs: the monotonic clock, the JSON writer, domain-safe
   metrics, span tracing (nesting, per-domain tracks, exception safety,
   near-zero disabled cost) and the machine-readable orchestration report
   — including the invariant that tracing never changes the plan. *)

(* ------------------------------ clock ------------------------------ *)

let test_clock_monotonic () =
  let a = Obs.Clock.now_us () in
  let b = Obs.Clock.now_us () in
  Alcotest.(check bool) "now_us non-decreasing" true (b >= a);
  let n1 = Obs.Clock.now_ns () in
  let n2 = Obs.Clock.now_ns () in
  Alcotest.(check bool) "now_ns non-decreasing" true (Int64.compare n2 n1 >= 0);
  Alcotest.(check bool) "relative to program start" true (Obs.Clock.now_s () < 3600.0)

let test_timed_us () =
  let v, dt = Obs.Clock.timed_us (fun () -> 41 + 1) in
  Alcotest.(check int) "result passed through" 42 v;
  Alcotest.(check bool) "elapsed non-negative" true (dt >= 0.0);
  (* A busy loop must take measurable wall time. *)
  let (), spin_us =
    Obs.Clock.timed_us (fun () ->
        let acc = ref 0 in
        for i = 1 to 2_000_000 do
          acc := !acc + i
        done;
        ignore !acc)
  in
  Alcotest.(check bool) "busy loop measured" true (spin_us > 0.0)

(* ------------------------------ jsonw ------------------------------ *)

let test_jsonw_roundtrip () =
  let doc =
    Obs.Jsonw.(
      Obj
        [
          ("int", Int 3);
          ("float", Float 2.5);
          ("intf", Float 4.0);
          ("str", Str "x\"y\nz\\");
          ("list", List [ Bool true; Null; Int (-7) ]);
          ("nan", Float Float.nan);
          ("inf", Float Float.infinity);
          ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
        ])
  in
  let s = Obs.Jsonw.to_string doc in
  match Onnx.Json.of_string s with
  | Onnx.Json.Obj fields ->
    let get k = List.assoc k fields in
    Alcotest.(check (float 0.0)) "int" 3.0 (Onnx.Json.to_float_exn (get "int"));
    Alcotest.(check (float 0.0)) "float" 2.5 (Onnx.Json.to_float_exn (get "float"));
    Alcotest.(check (float 0.0)) "integer-valued float" 4.0
      (Onnx.Json.to_float_exn (get "intf"));
    Alcotest.(check string) "escaped string" "x\"y\nz\\"
      (Onnx.Json.to_string_exn (get "str"));
    Alcotest.(check bool) "nan prints as null" true (get "nan" = Onnx.Json.Null);
    Alcotest.(check bool) "inf prints as null" true (get "inf" = Onnx.Json.Null)
  | _ -> Alcotest.fail "writer output did not parse back to an object"

(* ----------------------------- metrics ----------------------------- *)

let test_counter_basics () =
  let c = Obs.Metrics.counter "test.counter.basics" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.count c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Metrics.count c);
  (* Same name, same handle. *)
  let c' = Obs.Metrics.counter "test.counter.basics" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "find-or-create aliases" 43 (Obs.Metrics.count c)

let test_counter_concurrent_exact () =
  let c = Obs.Metrics.counter "test.counter.concurrent" in
  let per_task = 1_000 and tasks = 32 in
  Parallel.Domain_pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Parallel.Domain_pool.map_array pool
           (fun _ ->
             for _ = 1 to per_task do
               Obs.Metrics.incr c
             done)
           (Array.init tasks Fun.id)));
  Alcotest.(check int) "no lost updates across domains" (per_task * tasks)
    (Obs.Metrics.count c)

let test_gauge_and_histogram () =
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram ~bounds:[| 1.0; 10.0; 100.0 |] "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  let snap = Obs.Metrics.snapshot () in
  let hs = List.assoc "test.hist" snap.Obs.Metrics.histograms in
  Alcotest.(check (array int)) "bucket counts (last = overflow)" [| 1; 1; 1; 1 |]
    hs.Obs.Metrics.counts;
  Alcotest.(check int) "total" 4 hs.Obs.Metrics.total;
  Alcotest.(check (float 1e-9)) "sum" 555.5 hs.Obs.Metrics.sum

(* Regression: the percentile walk at exact cumulative boundaries. The
   float product q * total can land an epsilon above an integer
   (0.1 * 30 = 3.0000000000000004), and the old float-cumulative walk
   then skipped the occupied bucket ending exactly at that boundary —
   and any empty run after it — landing one bucket too high. *)
let test_percentile_boundaries () =
  let snap bounds counts =
    { Obs.Metrics.bounds; counts; sum = 0.0; total = Array.fold_left ( + ) 0 counts }
  in
  let h = snap [| 10.0; 20.0; 30.0 |] [| 3; 0; 27; 0 |] in
  Alcotest.(check (float 1e-9)) "exact boundary stays in its bucket" 10.0
    (Obs.Metrics.percentile h 0.1);
  Alcotest.(check (float 1e-9)) "q=0 reads the first observation" 0.0
    (Obs.Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "q=1 reads the last observation" 30.0
    (Obs.Metrics.percentile h 1.0);
  (* rank = total with all mass in one interior bucket: the walk must
     stop there, not fall through to the overflow bucket. *)
  let h2 = snap [| 10.0; 20.0; 30.0 |] [| 0; 4; 0; 0 |] in
  Alcotest.(check (float 1e-9)) "rank=total lands in the occupied bucket" 20.0
    (Obs.Metrics.percentile h2 1.0);
  Alcotest.(check (float 1e-9)) "median interpolates inside the bucket" 15.0
    (Obs.Metrics.percentile h2 0.5);
  (* A single observation answers every quantile from its own bucket. *)
  let h3 = snap [| 5.0; 50.0 |] [| 0; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "single obs, q=0" 5.0 (Obs.Metrics.percentile h3 0.0);
  Alcotest.(check (float 1e-9)) "single obs, q=0.5" 27.5 (Obs.Metrics.percentile h3 0.5);
  Alcotest.(check (float 1e-9)) "single obs, q=1" 50.0 (Obs.Metrics.percentile h3 1.0)

let test_metrics_json_parses () =
  ignore (Obs.Metrics.counter "test.json.presence");
  let doc = Obs.Jsonw.to_string (Obs.Metrics.to_json ()) in
  match Onnx.Json.of_string doc with
  | Onnx.Json.Obj fields ->
    Alcotest.(check bool) "has counters object" true (List.mem_assoc "counters" fields)
  | _ -> Alcotest.fail "metrics JSON is not an object"

(* --------------------------- span + trace --------------------------- *)

let test_disabled_span_is_cheap () =
  Alcotest.(check bool) "tracing off by default" false (Obs.Trace.is_enabled ());
  let f () = () in
  let calls = 10_000 in
  for _ = 1 to 100 do
    Obs.Span.with_ ~name:"noop" f
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Obs.Span.with_ ~name:"noop" f
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free when disabled (%.4f words/call)" per_call)
    true (per_call < 1.0);
  (* The segment solver's successor counter is one atomic add per solve. *)
  let expanded = Obs.Metrics.counter "segment_solver.expanded" in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Obs.Metrics.add expanded 0
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "segment_solver.expanded allocation-free (%.4f words/call)" per_call)
    true (per_call < 1.0)

let test_span_nesting () =
  Obs.Trace.start ();
  let v = Obs.Span.with_ ~name:"outer" (fun () -> Obs.Span.with_ ~name:"inner" (fun () -> 7)) in
  Obs.Trace.stop ();
  Alcotest.(check int) "value passed through" 7 v;
  let events = Obs.Trace.events () in
  let find n = List.find (fun e -> e.Obs.Trace.name = n) events in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "same track" outer.Obs.Trace.tid inner.Obs.Trace.tid;
  Alcotest.(check bool) "inner starts within outer" true
    (inner.Obs.Trace.ts_us >= outer.Obs.Trace.ts_us);
  Alcotest.(check bool) "inner ends within outer" true
    (inner.Obs.Trace.ts_us +. inner.Obs.Trace.dur_us
    <= outer.Obs.Trace.ts_us +. outer.Obs.Trace.dur_us +. 1e-6)

let test_span_exception_safe () =
  Obs.Trace.start ();
  (match Obs.Span.with_ ~name:"boom" (fun () -> failwith "kaboom") with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure m -> Alcotest.(check string) "exception transparent" "kaboom" m);
  Obs.Trace.stop ();
  Alcotest.(check bool) "span recorded despite the raise" true
    (List.exists (fun e -> e.Obs.Trace.name = "boom") (Obs.Trace.events ()))

let test_per_domain_tracks () =
  Obs.Trace.start ();
  Obs.Span.with_ ~name:"main-span" (fun () -> ());
  let tids =
    List.map Domain.join
      (List.init 3 (fun i ->
           Domain.spawn (fun () ->
               Obs.Trace.name_track (Printf.sprintf "aux %d" i);
               Obs.Span.with_ ~name:"aux-span" (fun () -> ());
               Obs.Trace.self_tid ())))
  in
  Obs.Trace.stop ();
  Alcotest.(check int) "three distinct tracks" 3 (List.length (List.sort_uniq compare tids));
  let events = Obs.Trace.events () in
  List.iter
    (fun tid ->
      Alcotest.(check bool) "aux event on its own track" true
        (List.exists
           (fun e -> e.Obs.Trace.name = "aux-span" && e.Obs.Trace.tid = tid)
           events))
    tids;
  match Onnx.Json.of_string (Obs.Trace.export ()) with
  | Onnx.Json.Obj fields ->
    let te = Onnx.Json.to_list_exn (List.assoc "traceEvents" fields) in
    let phase j = Onnx.Json.to_string_exn (Option.get (Onnx.Json.member "ph" j)) in
    Alcotest.(check bool) "thread_name metadata present" true
      (List.exists (fun j -> phase j = "M") te);
    Alcotest.(check bool) "complete events present" true
      (List.exists (fun j -> phase j = "X") te)
  | _ -> Alcotest.fail "trace document is not an object"

let test_pool_task_spans () =
  Obs.Trace.start ();
  let main_tid = Obs.Trace.self_tid () in
  Parallel.Domain_pool.with_pool ~jobs:3 (fun pool ->
      ignore (Parallel.Domain_pool.map_array pool (fun i -> i * 2) (Array.init 16 Fun.id)));
  Obs.Trace.stop ();
  let tasks =
    List.filter (fun e -> e.Obs.Trace.name = "pool.task") (Obs.Trace.events ())
  in
  Alcotest.(check int) "one span per submitted task" 16 (List.length tasks);
  Alcotest.(check bool) "tasks ran on worker tracks, not the main domain" true
    (List.for_all (fun e -> e.Obs.Trace.tid <> main_tid) tasks)

(* ------------------------- orchestration report ------------------------- *)

let small_run ?(tracing = false) name =
  let entry =
    match Models.Registry.find name with
    | Some e -> e
    | None -> Alcotest.fail ("unknown zoo model " ^ name)
  in
  let g = Fission.Canonicalize.fold_batch_norms (entry.Models.Registry.build_small ~batch:1 ()) in
  let go () = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
  if tracing then fst (Obs.Trace.with_tracing go) else go ()

let test_report_json_roundtrip name () =
  let r = small_run name in
  let doc = Korch.Report.json_string ~meta:[ ("model", Obs.Jsonw.Str name) ] r in
  match Onnx.Json.of_string doc with
  | Onnx.Json.Obj fields ->
    let get k = List.assoc k fields in
    Alcotest.(check string) "schema" "korch-report/1" (Onnx.Json.to_string_exn (get "schema"));
    Alcotest.(check string) "meta.model" name
      (Onnx.Json.to_string_exn (Option.get (Onnx.Json.member "model" (get "meta"))));
    Alcotest.(check int) "kernel count matches plan"
      (Runtime.Plan.kernel_count r.Korch.Orchestrator.plan)
      (Onnx.Json.to_int_exn (get "kernels"));
    Alcotest.(check int) "one object per segment"
      (List.length r.Korch.Orchestrator.segments)
      (List.length (Onnx.Json.to_list_exn (get "per_segment")));
    let total =
      Onnx.Json.to_float_exn (Option.get (Onnx.Json.member "total" (get "phase_us")))
    in
    Alcotest.(check bool) "total phase time positive" true (total > 0.0);
    Alcotest.(check bool) "metrics snapshot embedded" true
      (Onnx.Json.member "counters" (get "metrics") <> None);
    let keys = function Onnx.Json.Obj kvs -> List.map fst kvs | _ -> [] in
    Alcotest.(check (list string)) "three tiers" [ "optimal"; "greedy"; "unfused" ]
      (keys (get "tiers"));
    let space = get "candidate_space" in
    Alcotest.(check (list string)) "candidate space"
      [ "window"; "kernel_cap"; "output_subset_limit"; "state_guard"; "settled_budget" ]
      (keys space);
    Alcotest.(check (list int)) "default cuts" [ 12; 10; 2; 200_000; 100_000 ]
      (List.map (fun k -> Onnx.Json.to_int_exn (Option.get (Onnx.Json.member k space))) (keys space));
    (* Every per-segment object carries exactly these members, its phase
       timings and tier among them; the members of the retired BLP (cut
       count, time-limit flag), candidate cap and prefilter are gone. *)
    List.iter
      (fun seg ->
        Alcotest.(check (list string)) "segment members"
          [ "seg"; "tier"; "kernels"; "candidates"; "states"; "states_truncated"; "profiled";
            "latency_us"; "settled_states"; "retries"; "transform_degraded"; "fallback_reason";
            "phase_us" ]
          (keys seg);
        let p = Option.get (Onnx.Json.member "phase_us" seg) in
        List.iter
          (fun k -> Alcotest.(check bool) ("segment phase " ^ k) true (Onnx.Json.member k p <> None))
          [ "transform"; "identify"; "solve" ])
      (Onnx.Json.to_list_exn (get "per_segment"))
  | _ -> Alcotest.fail "report is not a JSON object"

(* The candidate space names the run's window, as [--window] sets it. *)
let test_candidate_space_window () =
  let entry = Option.get (Models.Registry.find "candy") in
  let g = Fission.Canonicalize.fold_batch_norms (entry.Models.Registry.build_small ~batch:1 ()) in
  let space (cfg : Korch.Orchestrator.config) =
    let r = Korch.Orchestrator.run cfg g in
    match Onnx.Json.of_string (Korch.Report.json_string r) with
    | Onnx.Json.Obj fields ->
      let space = List.assoc "candidate_space" fields in
      let int k = Onnx.Json.to_int_exn (Option.get (Onnx.Json.member k space)) in
      (int "window", int "kernel_cap", r)
    | _ -> Alcotest.fail "report is not a JSON object"
  in
  let window, cap, _ =
    space { Korch.Orchestrator.default_config with Korch.Orchestrator.partition_max_prims = 16 }
  in
  Alcotest.(check int) "window" 16 window;
  Alcotest.(check int) "kernel cap unchanged" 10 cap;
  (* The cap reaches identification, not only the report. *)
  let window, cap, r =
    space { Korch.Orchestrator.default_config with Korch.Orchestrator.max_tvm_prims = 12 }
  in
  Alcotest.(check int) "window unchanged" 12 window;
  Alcotest.(check int) "kernel cap" 12 cap;
  let largest =
    List.fold_left
      (fun acc (s : Korch.Orchestrator.segment_result) ->
        Array.fold_left
          (fun acc (c : Korch.Candidate.t) ->
            max acc (Ir.Bitset.cardinal c.Korch.Candidate.members))
          acc s.Korch.Orchestrator.candidates)
      0 r.Korch.Orchestrator.segments
  in
  Alcotest.(check bool)
    (Printf.sprintf "a candidate above the default cap (largest %d)" largest)
    true (largest > 10)

(* The segment solver's span carries its candidate count, the candidates
   left after exact duplicates are dropped, and their distinct input
   sets. *)
let test_solver_span_args () =
  ignore (Obs.Trace.with_tracing (fun () -> small_run "decode"));
  let spans = List.filter (fun e -> e.Obs.Trace.name = "segment_solver") (Obs.Trace.events ()) in
  Alcotest.(check bool) "segment_solver spans" true (spans <> []);
  List.iter
    (fun e ->
      let int k =
        match List.assoc_opt k e.Obs.Trace.args with
        | Some (Obs.Jsonw.Int v) -> v
        | _ -> Alcotest.failf "segment_solver span without %s" k
      in
      Alcotest.(check bool) "0 < groups <= kept <= candidates" true
        (0 < int "groups" && int "groups" <= int "kept" && int "kept" <= int "candidates"))
    spans

let test_tracing_does_not_change_plan () =
  let a = small_run "candy" in
  let b = small_run ~tracing:true "candy" in
  Alcotest.(check bool) "plans bit-identical with tracing on and off" true
    (a.Korch.Orchestrator.plan = b.Korch.Orchestrator.plan)

(* The segment solver's budget counts settled states, not time, and a
   deadline scales it by the fraction of the request's budget left. A
   deadline 1,000 s away that is a billionth of its budget leaves every
   segment a budget of one state: the search binds on each segment that
   needs a kernel, which takes greedy fusion with the reason recorded and
   still yields a checked plan, the same one at any -j. With the whole
   budget left the same deadline keeps every segment optimal. *)
let test_settled_budget_binds_to_greedy () =
  let entry = Option.get (Models.Registry.find "candy") in
  let g = Fission.Canonicalize.fold_batch_norms (entry.Models.Registry.build_small ~batch:1 ()) in
  let run ~jobs total_s =
    let deadline = Some { Korch.Orchestrator.at_s = Obs.Clock.now_s () +. 1000.0; total_s } in
    Korch.Orchestrator.run { Korch.Orchestrator.default_config with jobs; deadline } g
  in
  let tight = run ~jobs:1 1e12 in
  let solved =
    List.filter (fun s -> s.Korch.Orchestrator.selected <> []) tight.Korch.Orchestrator.segments
  in
  Alcotest.(check bool) "segments to solve" true (solved <> []);
  List.iter
    (fun (s : Korch.Orchestrator.segment_result) ->
      let o = s.Korch.Orchestrator.outcome in
      Alcotest.(check string) "greedy tier" "greedy"
        (Korch.Orchestrator.tier_to_string o.Korch.Orchestrator.tier);
      Alcotest.(check int) "one state settled" 1 s.Korch.Orchestrator.settled_states;
      match o.Korch.Orchestrator.fallback_reason with
      | Some r ->
        Alcotest.(check bool) ("budget named in " ^ r) true
          (String.starts_with ~prefix:"solve: settled-state budget" r)
      | None -> Alcotest.fail "greedy segment without a fallback reason")
    solved;
  Alcotest.(check int) "every solved segment degraded" (List.length solved)
    (List.length tight.Korch.Orchestrator.degraded_segments);
  Alcotest.(check bool) "plan passes the plan check" false
    (Verify.Diagnostics.has_errors
       (Verify.plan_check tight.Korch.Orchestrator.graph tight.Korch.Orchestrator.plan));
  Alcotest.(check bool) "same plan at -j 4" true
    ((run ~jobs:4 1e12).Korch.Orchestrator.plan = tight.Korch.Orchestrator.plan);
  let relaxed = run ~jobs:1 1000.0 in
  Alcotest.(check (list int)) "whole budget: nothing degraded" []
    relaxed.Korch.Orchestrator.degraded_segments;
  Alcotest.(check bool) "whole budget: a cheaper plan" true
    (relaxed.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us
    < tight.Korch.Orchestrator.plan.Runtime.Plan.total_latency_us)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "timed_us" `Quick test_timed_us;
        ] );
      ("jsonw", [ Alcotest.test_case "roundtrip via Onnx.Json" `Quick test_jsonw_roundtrip ]);
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "concurrent increments exact" `Quick test_counter_concurrent_exact;
          Alcotest.test_case "gauge + histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "percentile boundary regressions" `Quick
            test_percentile_boundaries;
          Alcotest.test_case "snapshot JSON parses" `Quick test_metrics_json_parses;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled span is cheap" `Quick test_disabled_span_is_cheap;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
          Alcotest.test_case "per-domain tracks" `Quick test_per_domain_tracks;
          Alcotest.test_case "pool task spans" `Quick test_pool_task_spans;
        ] );
      ( "report",
        [
          Alcotest.test_case "candy JSON roundtrip" `Quick (test_report_json_roundtrip "candy");
          Alcotest.test_case "yolox JSON roundtrip" `Quick (test_report_json_roundtrip "yolox");
          Alcotest.test_case "candidate space follows the window" `Quick
            test_candidate_space_window;
          Alcotest.test_case "segment solver span args" `Quick test_solver_span_args;
          Alcotest.test_case "tracing does not change the plan" `Quick
            test_tracing_does_not_change_plan;
          Alcotest.test_case "settled-state budget binds to greedy" `Quick
            test_settled_budget_binds_to_greedy;
        ] );
    ]
