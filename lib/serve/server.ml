(** The korch_serve daemon (see the interface for the serving contract). *)

open Ir

type config = {
  socket_path : string;
  cache_dir : string;
  jobs : int;
  queue_limit : int;
  orch : Korch.Orchestrator.config;
  metrics_out : string option;
  verbose : bool;
}

let default_config =
  let tmp = Filename.get_temp_dir_name () in
  {
    socket_path = Filename.concat tmp "korch_serve.sock";
    cache_dir = Filename.concat tmp "korch-plan-cache";
    jobs = 2;
    queue_limit = 16;
    orch = Korch.Orchestrator.default_config;
    metrics_out = None;
    verbose = false;
  }

type t = {
  cfg : config;
  cache : Plan_cache.t;
  start_s : float;
  draining : bool Atomic.t;
  in_flight : int Atomic.t;  (** heavy (optimize/run) requests being handled *)
  peak_in_flight : int Atomic.t;
  graph_hashes : (string * bool * int, string) Plan_cache.Memo.t;
      (** (model, small, batch) of a named zoo request -> its graph hash *)
}

(* Zoo requests whose graph hash is remembered. *)
let graph_hash_capacity = 64

(* ------------------------------ metrics ------------------------------- *)

(* Latency buckets from a cached-hit floor (~100 us) to a worst-case
   orchestration (tens of seconds), finer than the decade defaults so
   p50/p99 interpolation is meaningful. *)
let latency_bounds =
  [|
    100.0; 250.0; 500.0; 1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6; 2.5e6;
    5e6; 1e7; 2.5e7; 5e7;
  |]

let h_optimize = Obs.Metrics.histogram ~bounds:latency_bounds "serve.latency_us.optimize"
let h_run = Obs.Metrics.histogram ~bounds:latency_bounds "serve.latency_us.run"
let h_table = Obs.Metrics.histogram ~bounds:latency_bounds "serve.latency_us.table"
let h_admin = Obs.Metrics.histogram ~bounds:latency_bounds "serve.latency_us.admin"
let g_queue_depth = Obs.Metrics.gauge "serve.queue.depth"
let g_queue_peak = Obs.Metrics.gauge "serve.queue.peak"
let m_requests = Obs.Metrics.counter "serve.requests.total"
let m_overloaded = Obs.Metrics.counter "serve.overloaded"
let m_errors = Obs.Metrics.counter "serve.errors"
let m_admission_degraded = Obs.Metrics.counter "serve.admission_degraded"
let m_tier_cached = Obs.Metrics.counter "serve.tier.cached"
let m_tier_orchestrated = Obs.Metrics.counter "serve.tier.orchestrated"
let m_tier_floor = Obs.Metrics.counter "serve.tier.floor"
let m_degraded = Obs.Metrics.counter "serve.degraded"

let create (cfg : config) : t =
  {
    cfg;
    cache = Plan_cache.create ~dir:cfg.cache_dir ();
    start_s = Obs.Clock.now_s ();
    draining = Atomic.make false;
    in_flight = Atomic.make 0;
    peak_in_flight = Atomic.make 0;
    graph_hashes = Plan_cache.Memo.create graph_hash_capacity;
  }

let cache t = t.cache

let log t fmt =
  Printf.ksprintf
    (fun s ->
      if t.cfg.verbose then begin
        print_string ("korch_serve: " ^ s ^ "\n");
        flush stdout
      end)
    fmt

(* ------------------------- workload resolution ------------------------ *)

exception Client_error of string

let client_fail fmt = Printf.ksprintf (fun s -> raise (Client_error s)) fmt

(* Resolve the request to a BN-folded operator graph (what the plan-cache
   key hashes) + label. Raises [Client_error] on unknown models and on
   inline documents that do not parse or fail the operator-graph check
   (the only failures a request can legitimately be blamed for) and lets
   [Faults.Injected] from the onnx_parse seam escape to the retry path.
   Zoo builds are trusted and not checked. *)
let resolve_workload (r : Protocol.request) : Opgraph.t * string =
  let raw, label =
    match (r.Protocol.model, r.Protocol.graph_doc) with
    | Some name, _ -> (
      match Models.Registry.find name with
      | None -> client_fail "unknown model %S" name
      | Some e ->
        ( (if r.Protocol.small then e.Models.Registry.build_small ()
           else e.Models.Registry.build ~batch:r.Protocol.batch ()),
          name ))
    | None, Some doc -> (
      match Onnx.Graph_doc.opgraph_of_string doc with
      | g ->
        let report = Verify.opgraph_check g in
        if Verify.Diagnostics.has_errors report then
          client_fail "invalid graph document: %s" (Verify.Diagnostics.error_summary report);
        (g, "inline")
      | exception Onnx.Graph_doc.Format_error msg ->
        client_fail "unparsable graph document: %s" msg)
    | None, None -> client_fail "request names neither \"model\" nor \"graph\""
  in
  (Fission.Canonicalize.fold_batch_norms raw, label)

let spec_of_request t (r : Protocol.request) : Gpu.Spec.t =
  match r.Protocol.gpu with
  | None -> t.cfg.orch.Korch.Orchestrator.spec
  | Some name -> (
    match Gpu.Spec.by_name name with
    | Some s -> s
    | None -> client_fail "unknown GPU %S" name)

let precision_of_request t (r : Protocol.request) : Gpu.Precision.t =
  match r.Protocol.precision with
  | None -> t.cfg.orch.Korch.Orchestrator.precision
  | Some name -> (
    match Gpu.Precision.of_string name with
    | Some p -> p
    | None -> client_fail "unknown precision %S" name)

(* --------------------------- the plan ladder --------------------------- *)

(* The synthetic floor: fission the graph and launch one kernel per
   primitive. No profiler, no solver, no fault seams — constructible even
   when every instrumented stage is forced to fail. Latencies are zero
   (nothing priced them); the tier label carries the caveat. *)
let floor_plan (g : Opgraph.t) : Primgraph.t * Runtime.Plan.t =
  let pg, _mapping = Fission.Engine.run g in
  let kernels =
    List.map
      (fun id ->
        Runtime.Plan.{ prims = [ id ]; outputs = [ id ]; latency_us = 0.0; backend = "unfused" })
      (Primgraph.non_source_nodes pg)
  in
  (pg, Runtime.Plan.make kernels)

type served_plan = {
  sp_graph : Primgraph.t;
  sp_plan : Runtime.Plan.t;
  sp_tier : string;  (** cached | orchestrated | floor *)
  sp_cache : string;  (** hit | miss | bypass *)
  sp_degraded : bool;
  sp_detail : string option;  (** what pushed the request down the ladder *)
}

(* Produce an executable plan for the request, walking the serving
   ladder: cache hit -> deadline-constrained orchestration -> synthetic
   floor. Never raises except [Client_error] (before any plan could
   exist) and the truly fatal ([Out_of_memory] & co). *)
let plan_for t (r : Protocol.request) : served_plan =
  let spec = spec_of_request t r in
  let precision = precision_of_request t r in
  let gpu = spec.Gpu.Spec.name and precision_name = Gpu.Precision.to_string precision in
  let batch = r.Protocol.batch in
  (* Built only when the request needs the graph itself: to key a request
     the memo cannot, to orchestrate, or to fall back to the floor. *)
  let graph = lazy (fst (resolve_workload r)) in
  let fresh_key () =
    Plan_cache.key ~graph:(Lazy.force graph) ~gpu ~precision:precision_name ~batch
  in
  let key =
    match r.Protocol.model with
    | None -> fresh_key ()
    | Some name -> (
      (* Zoo builds are deterministic (warm restarts rely on it too), so
         a named model's graph hash is a function of the request; a
         failed build raises before anything is remembered. *)
      let k = (name, r.Protocol.small, batch) in
      match Plan_cache.Memo.find t.graph_hashes k with
      | Some graph_hash -> { Plan_cache.graph_hash; gpu; precision = precision_name; batch }
      | None ->
        let key = fresh_key () in
        Plan_cache.Memo.replace t.graph_hashes k key.Plan_cache.graph_hash;
        key)
  in
  let cached = if r.Protocol.no_cache then None else Plan_cache.lookup t.cache key in
  let serve_cached (e : Plan_cache.entry) =
    Obs.Metrics.incr m_tier_cached;
    {
      sp_graph = e.Plan_cache.graph;
      sp_plan = e.Plan_cache.plan;
      sp_tier = "cached";
      sp_cache = "hit";
      sp_degraded = false;
      sp_detail =
        (match e.Plan_cache.status with
        | Plan_cache.Final -> None
        | Plan_cache.Incumbent -> Some "cached incumbent (produced under deadline pressure)");
    }
  in
  let orchestrate ~cache_state =
    let ocfg =
      {
        t.cfg.orch with
        Korch.Orchestrator.spec;
        precision;
        deadline =
          Option.map
            (fun ms -> Korch.Orchestrator.deadline_in (ms /. 1000.0))
            r.Protocol.deadline_ms;
      }
    in
    let graph = Lazy.force graph in
    match Korch.Orchestrator.run ocfg graph with
    | res ->
      let degraded = res.Korch.Orchestrator.degraded_segments <> [] in
      let pressured = r.Protocol.deadline_ms <> None in
      (* Only unconstrained, undegraded plans are final; anything touched
         by a deadline or the ladder is an incumbent a later healthy
         request will overwrite. *)
      let status =
        if (not pressured) && not degraded then Plan_cache.Final else Plan_cache.Incumbent
      in
      let report =
        Korch.Report.json_string
          ~meta:
            [
              ("gpu", Obs.Jsonw.Str gpu);
              ("precision", Obs.Jsonw.Str precision_name);
              ("batch", Obs.Jsonw.Int batch);
            ]
          res
      in
      Plan_cache.store t.cache key ~status ~graph:res.Korch.Orchestrator.graph
        ~plan:res.Korch.Orchestrator.plan ~report;
      Obs.Metrics.incr m_tier_orchestrated;
      if degraded then Obs.Metrics.incr m_degraded;
      {
        sp_graph = res.Korch.Orchestrator.graph;
        sp_plan = res.Korch.Orchestrator.plan;
        sp_tier = "orchestrated";
        sp_cache = cache_state;
        sp_degraded = degraded;
        sp_detail =
          (match
             List.filter_map
               (fun (s : Korch.Orchestrator.segment_result) ->
                 s.Korch.Orchestrator.outcome.Korch.Orchestrator.fallback_reason)
               res.Korch.Orchestrator.segments
           with
          | [] -> None
          | reason :: _ -> Some reason);
      }
    | exception ((Out_of_memory | Stack_overflow | Assert_failure _) as e) -> raise e
    | exception e ->
      (* Orchestration itself blew up (beyond what its internal ladder
         absorbs): the request still gets an executable plan. *)
      let pg, plan = floor_plan graph in
      Obs.Metrics.incr m_tier_floor;
      Obs.Metrics.incr m_degraded;
      {
        sp_graph = pg;
        sp_plan = plan;
        sp_tier = "floor";
        sp_cache = cache_state;
        sp_degraded = true;
        sp_detail = Some (Printexc.to_string e);
      }
  in
  match cached with
  | Some e -> (
    match (e.Plan_cache.status, r.Protocol.deadline_ms) with
    | Plan_cache.Incumbent, None ->
      (* A deadline-free request is the upgrade opportunity: orchestrate
         unconstrained and overwrite the incumbent with a final entry. *)
      orchestrate ~cache_state:"upgrade"
    | _ -> serve_cached e)
  | None -> orchestrate ~cache_state:(if r.Protocol.no_cache then "bypass" else "miss")

(* ----------------------------- plan tables ---------------------------- *)

(* Summary response for a plan table: per-range batch intervals, anchor
   plans' kernel counts/latencies and the crossover batches. The full
   document (graphs + plans) lives in the durable cache, not on the wire —
   a table over a real model is megabytes of JSON. *)
let table_response (tab : Korch.Plan_table.t) ~(tier : string) ~(cache_state : string) :
    Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("status", Obs.Jsonw.Str "ok");
      ("tier", Obs.Jsonw.Str tier);
      ("cache", Obs.Jsonw.Str cache_state);
      ("model", Obs.Jsonw.Str tab.Korch.Plan_table.model);
      ("gpu", Obs.Jsonw.Str tab.Korch.Plan_table.gpu);
      ("precision", Obs.Jsonw.Str tab.Korch.Plan_table.precision);
      ("lo", Obs.Jsonw.Int tab.Korch.Plan_table.lo);
      ("hi", Obs.Jsonw.Int tab.Korch.Plan_table.hi);
      ( "crossovers",
        Obs.Jsonw.List
          (List.map (fun b -> Obs.Jsonw.Int b) tab.Korch.Plan_table.crossovers) );
      ( "ranges",
        Obs.Jsonw.List
          (List.map
             (fun (r : Korch.Plan_table.range) ->
               Obs.Jsonw.Obj
                 [
                   ("lo", Obs.Jsonw.Int r.Korch.Plan_table.lo);
                   ("hi", Obs.Jsonw.Int r.Korch.Plan_table.hi);
                   ("anchor", Obs.Jsonw.Int r.Korch.Plan_table.anchor);
                   ( "probes",
                     Obs.Jsonw.List
                       (List.map (fun b -> Obs.Jsonw.Int b) r.Korch.Plan_table.probes) );
                   ( "kernels",
                     Obs.Jsonw.Int (Runtime.Plan.kernel_count r.Korch.Plan_table.plan) );
                   ( "plan_latency_us",
                     Obs.Jsonw.Float
                       r.Korch.Plan_table.plan.Runtime.Plan.total_latency_us );
                   ("refined", Obs.Jsonw.Bool r.Korch.Plan_table.refined);
                 ])
             tab.Korch.Plan_table.ranges) );
    ]

(* Serve a [table] request: a batch-range sweep over a named zoo model.
   Inline graph documents are rejected — a table must rebuild the graph
   at every probe batch, which only a registered builder can do. Tables
   are always the product of an unconstrained sweep (a per-request
   deadline is ignored): a deadline-pressured probe would make the
   stored table wall-clock dependent. *)
let table_for t (r : Protocol.request) : Obs.Jsonw.t =
  let spec = spec_of_request t r in
  let precision = precision_of_request t r in
  let name, entry =
    match r.Protocol.model with
    | None ->
      client_fail
        "table requests name a zoo model (inline graphs cannot be rebuilt per batch)"
    | Some name -> (
      match Models.Registry.find name with
      | None -> client_fail "unknown model %S" name
      | Some e -> (name, e))
  in
  let lo = Option.value r.Protocol.batch_lo ~default:1 in
  let hi =
    match r.Protocol.batch_hi with
    | Some h -> h
    | None -> client_fail "table requests need \"batch_hi\""
  in
  if lo < 1 || hi < lo then client_fail "invalid batch range [%d, %d]" lo hi;
  let build ~batch =
    Fission.Canonicalize.fold_batch_norms
      (if r.Protocol.small then entry.Models.Registry.build_small ~batch ()
       else entry.Models.Registry.build ~batch ())
  in
  let key =
    Plan_cache.table_key ~graph:(build ~batch:lo) ~gpu:spec.Gpu.Spec.name
      ~precision:(Gpu.Precision.to_string precision) ~lo ~hi
  in
  let cached = if r.Protocol.no_cache then None else Plan_cache.lookup_table t.cache key in
  match cached with
  | Some tab ->
    Obs.Metrics.incr m_tier_cached;
    table_response tab ~tier:"cached" ~cache_state:"hit"
  | None ->
    let ocfg = { t.cfg.orch with Korch.Orchestrator.spec; precision; deadline = None } in
    let tab = Korch.Plan_table.build ocfg ~model:name ~build ~lo ~hi in
    Plan_cache.store_table t.cache key tab;
    Obs.Metrics.incr m_tier_orchestrated;
    table_response tab ~tier:"orchestrated"
      ~cache_state:(if r.Protocol.no_cache then "bypass" else "miss")

(* ------------------------------ execution ----------------------------- *)

let checksum (nd : Tensor.Nd.t) : float =
  let n = Tensor.Nd.numel nd in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Tensor.Nd.get_linear nd i
  done;
  !acc

let execute_plan (r : Protocol.request) (sp : served_plan) : Obs.Jsonw.t list =
  let backend =
    Option.map
      (fun name ->
        match Runtime.Backend.of_string name with
        | Some b -> b
        | None -> client_fail "unknown backend %S" name)
      r.Protocol.backend
  in
  let inputs =
    Array.to_list sp.sp_graph.Graph.nodes
    |> List.filter_map (fun (nd : _ Graph.node) ->
           match nd.Graph.op with
           | Primitive.Input name ->
             Some (name, Tensor.Nd.randn (Tensor.Rng.create 7) nd.Graph.shape)
           | _ -> None)
  in
  let outs = Runtime.Executor.run ?backend sp.sp_graph sp.sp_plan ~inputs in
  List.map
    (fun nd ->
      Obs.Jsonw.Obj
        [
          ( "shape",
            Obs.Jsonw.List
              (Array.to_list (Array.map (fun d -> Obs.Jsonw.Int d) nd.Tensor.Nd.shape)) );
          ("checksum", Obs.Jsonw.Float (checksum nd));
        ])
    outs

(* ------------------------------ responses ----------------------------- *)

let plan_response ?(extra = []) (sp : served_plan) ~(admission : string) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    ([
       ("status", Obs.Jsonw.Str (if sp.sp_degraded then "degraded" else "ok"));
       ("tier", Obs.Jsonw.Str sp.sp_tier);
       ("cache", Obs.Jsonw.Str sp.sp_cache);
       ("admission", Obs.Jsonw.Str admission);
       ("kernels", Obs.Jsonw.Int (Runtime.Plan.kernel_count sp.sp_plan));
       ("plan_latency_us", Obs.Jsonw.Float sp.sp_plan.Runtime.Plan.total_latency_us);
       ("plan", Korch.Report.plan_to_json sp.sp_plan);
     ]
    @ (match sp.sp_detail with
      | Some d -> [ ("detail", Obs.Jsonw.Str d) ]
      | None -> [])
    @ extra)

let health_response t : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("status", Obs.Jsonw.Str "ok");
      ("uptime_s", Obs.Jsonw.Float (Obs.Clock.now_s () -. t.start_s));
      ("draining", Obs.Jsonw.Bool (Atomic.get t.draining));
      ("in_flight", Obs.Jsonw.Int (Atomic.get t.in_flight));
    ]

let percentile_obj (snap : Obs.Metrics.snapshot) (name : string) : Obs.Jsonw.t =
  match List.assoc_opt name snap.Obs.Metrics.histograms with
  | None -> Obs.Jsonw.Obj [ ("count", Obs.Jsonw.Int 0) ]
  | Some h ->
    Obs.Jsonw.Obj
      [
        ("count", Obs.Jsonw.Int h.Obs.Metrics.total);
        ("p50_us", Obs.Jsonw.Float (Obs.Metrics.percentile h 0.5));
        ("p99_us", Obs.Jsonw.Float (Obs.Metrics.percentile h 0.99));
        ( "mean_us",
          Obs.Jsonw.Float
            (if h.Obs.Metrics.total = 0 then 0.0
             else h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.total) );
      ]

let stats_response t : Obs.Jsonw.t =
  let snap = Obs.Metrics.snapshot () in
  let count m = Obs.Jsonw.Int (Obs.Metrics.count m) in
  Obs.Jsonw.Obj
    [
      ("status", Obs.Jsonw.Str "ok");
      ("uptime_s", Obs.Jsonw.Float (Obs.Clock.now_s () -. t.start_s));
      ("draining", Obs.Jsonw.Bool (Atomic.get t.draining));
      ("requests", count m_requests);
      ( "latency_us",
        Obs.Jsonw.Obj
          [
            ("optimize", percentile_obj snap "serve.latency_us.optimize");
            ("run", percentile_obj snap "serve.latency_us.run");
            ("table", percentile_obj snap "serve.latency_us.table");
            ("admin", percentile_obj snap "serve.latency_us.admin");
          ] );
      ( "queue",
        Obs.Jsonw.Obj
          [
            ("depth", Obs.Jsonw.Int (Atomic.get t.in_flight));
            ("peak", Obs.Jsonw.Int (Atomic.get t.peak_in_flight));
            ("limit", Obs.Jsonw.Int t.cfg.queue_limit);
            ("overloaded", count m_overloaded);
          ] );
      ("cache", Plan_cache.stats_to_json t.cache);
      ( "tiers",
        Obs.Jsonw.Obj
          [
            ("cached", count m_tier_cached);
            ("orchestrated", count m_tier_orchestrated);
            ("floor", count m_tier_floor);
            ("degraded", count m_degraded);
          ] );
      ("admission_degraded", count m_admission_degraded);
      ("errors", count m_errors);
      ("metrics", Obs.Metrics.snapshot_to_json snap);
    ]

(* ------------------------------- handler ------------------------------ *)

(* Process one request end to end. The catch-alls here are the serving
   contract: after workload resolution succeeds, every failure path still
   produces a plan (ladder) or an explicitly retryable status — a request
   is never answered with a raw exception. *)
let handle t (j : Onnx.Json.t) : Obs.Jsonw.t =
  Obs.Metrics.incr m_requests;
  let t0 = Obs.Clock.now_s () in
  let finish hist resp =
    Obs.Metrics.observe hist ((Obs.Clock.now_s () -. t0) *. 1e6);
    resp
  in
  match Onnx.Codec.decode Protocol.request_codec j with
  | Error msg ->
    Obs.Metrics.incr m_errors;
    finish h_admin (Protocol.error_response ~status:"error" msg)
  | Ok req -> (
    let hist =
      match req.Protocol.verb with
      | "optimize" -> h_optimize
      | "run" -> h_run
      | "table" -> h_table
      | _ -> h_admin
    in
    (* [guarded f ok] answers [ok (f ())]. A client error answers "error"
       (counted in serve.errors) and a fatal runtime error escapes;
       anything else (an injected fault, a solver blow-up mid-sweep, a
       backend failure mid-execution) is transient and answers "retry". *)
    let guarded f ok =
      match f () with
      | v -> ok v
      | exception Client_error msg ->
        Obs.Metrics.incr m_errors;
        finish hist (Protocol.error_response ~status:"error" msg)
      | exception ((Out_of_memory | Stack_overflow | Assert_failure _) as e) -> raise e
      | exception e -> finish hist (Protocol.error_response ~status:"retry" (Printexc.to_string e))
    in
    match req.Protocol.verb with
    | "health" -> finish hist (health_response t)
    | "stats" -> finish hist (stats_response t)
    | "drain" ->
      Atomic.set t.draining true;
      log t "drain requested (%d in flight)" (Atomic.get t.in_flight);
      finish hist
        (Obs.Jsonw.Obj
           [
             ("status", Obs.Jsonw.Str "draining");
             ("in_flight", Obs.Jsonw.Int (Atomic.get t.in_flight));
           ])
    | "table" ->
      guarded (fun () -> table_for t req) (fun resp ->
          log t "table %s lo=%d hi=%d"
            (match req.Protocol.model with Some m -> m | None -> "<inline>")
            (Option.value req.Protocol.batch_lo ~default:1)
            (Option.value req.Protocol.batch_hi ~default:0);
          finish hist resp)
    | "optimize" | "run" ->
      (* Admission seam: an injected serve_accept fault degrades the
         admission path (recorded in the response) — the request is still
         served, the daemon never dies. *)
      let admission =
        match Faults.check Faults.Serve_accept with
        | () -> "ok"
        | exception Faults.Injected _ ->
          Obs.Metrics.incr m_admission_degraded;
          "degraded"
      in
      guarded (fun () -> plan_for t req) (fun sp ->
          log t "%s %s tier=%s cache=%s kernels=%d" req.Protocol.verb
            (match req.Protocol.model with Some m -> m | None -> "<inline>")
            sp.sp_tier sp.sp_cache
            (Runtime.Plan.kernel_count sp.sp_plan);
          if req.Protocol.verb = "optimize" then finish hist (plan_response sp ~admission)
          else
            guarded (fun () -> execute_plan req sp) (fun outputs ->
                finish hist
                  (plan_response sp ~admission ~extra:[ ("outputs", Obs.Jsonw.List outputs) ])))
    | verb ->
      Obs.Metrics.incr m_errors;
      finish hist (Protocol.error_response ~status:"error" ("unknown verb " ^ verb)))

(* ----------------------------- socket loop ---------------------------- *)

(* Publish the metrics snapshot, so the file is current and whole even
   if the daemon is killed -9 a moment later. *)
let publish_metrics t =
  Option.iter
    (fun path -> try Store.publish path (Obs.Jsonw.to_string (stats_response t)) with _ -> ())
    t.cfg.metrics_out

(* Bind the listening socket, recovering a stale path: if something is
   bound there, probe-connect it. A refused/ENOENT probe means the
   previous daemon died without unlinking (kill -9) and the path is safe
   to reclaim. A probe that connects is ambiguous for a short window — a
   supervisor restarting us immediately after `kill -9` can race the
   kernel tearing the old socket down — so an accepted probe is retried
   for ~2 s before concluding a live daemon owns the path. *)
let bind_socket (path : string) : Unix.file_descr =
  let rec check attempts =
    match Unix.stat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
        Unix.close probe;
        if attempts > 0 then begin
          Unix.sleepf 0.1;
          check (attempts - 1)
        end
        else failwith (Printf.sprintf "another daemon is already serving on %s" path)
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Unix.close probe;
        (try Sys.remove path with Sys_error _ -> ())
      | exception e ->
        Unix.close probe;
        raise e)
    | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  in
  check 20;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

(* Serve one already-read heavy request on [conn], then close it. Runs on
   a pool worker (or inline); must never raise. *)
let serve_heavy t (conn : Unix.file_descr) (j : Onnx.Json.t) : unit =
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr t.in_flight;
      Obs.Metrics.set g_queue_depth (float_of_int (Atomic.get t.in_flight));
      publish_metrics t;
      try Unix.close conn with _ -> ())
    (fun () ->
      let resp =
        match handle t j with
        | r -> r
        | exception e -> Protocol.error_response ~status:"retry" (Printexc.to_string e)
      in
      try Protocol.write_frame conn resp with _ -> ())

let run (cfg : config) : unit =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t = create cfg in
  let listen = bind_socket cfg.socket_path in
  let pool =
    if cfg.jobs > 1 then Some (Parallel.Domain_pool.create ~jobs:cfg.jobs) else None
  in
  log t "listening on %s (cache %s, %d worker(s), queue limit %d)" cfg.socket_path
    cfg.cache_dir cfg.jobs cfg.queue_limit;
  publish_metrics t;
  let accept_one conn =
    (* Read the request frame on the accept loop (bounded by the receive
       timeout), answer admin verbs inline so health/stats stay
       responsive under load, and dispatch heavy verbs to the pool behind
       admission control. *)
    (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 30.0 with _ -> ());
    (try Unix.setsockopt_float conn Unix.SO_SNDTIMEO 30.0 with _ -> ());
    match Protocol.read_frame conn with
    | None -> ( try Unix.close conn with _ -> ())
    | Some j -> (
      let verb =
        match Onnx.Json.member "verb" j with Some (Onnx.Json.Str v) -> v | _ -> ""
      in
      match verb with
      | "optimize" | "run" | "table" ->
        if Atomic.get t.draining then begin
          (try Protocol.write_frame conn (Protocol.error_response ~status:"draining" "daemon is draining") with _ -> ());
          try Unix.close conn with _ -> ()
        end
        else if Atomic.get t.in_flight >= cfg.queue_limit then begin
          (* Admission control: shed immediately; the client's seeded
             backoff re-offers the request. *)
          Obs.Metrics.incr m_overloaded;
          (try
             Protocol.write_frame conn
               (Obs.Jsonw.Obj
                  [
                    ("status", Obs.Jsonw.Str "overloaded");
                    ("in_flight", Obs.Jsonw.Int (Atomic.get t.in_flight));
                    ("limit", Obs.Jsonw.Int cfg.queue_limit);
                  ])
           with _ -> ());
          try Unix.close conn with _ -> ()
        end
        else begin
          Atomic.incr t.in_flight;
          let d = Atomic.get t.in_flight in
          if d > Atomic.get t.peak_in_flight then Atomic.set t.peak_in_flight d;
          Obs.Metrics.set g_queue_depth (float_of_int d);
          Obs.Metrics.set g_queue_peak (float_of_int (Atomic.get t.peak_in_flight));
          match pool with
          | None -> serve_heavy t conn j
          | Some p -> Parallel.Domain_pool.submit p (fun () -> serve_heavy t conn j)
        end
      | _ ->
        (* Admin verbs: inline, fast, never blocked behind the pool. *)
        let resp =
          match handle t j with
          | r -> r
          | exception e -> Protocol.error_response ~status:"retry" (Printexc.to_string e)
        in
        (try Protocol.write_frame conn resp with _ -> ());
        publish_metrics t;
        (try Unix.close conn with _ -> ()))
  in
  let rec loop () =
    if Atomic.get t.draining && Atomic.get t.in_flight = 0 then ()
    else begin
      (match Unix.select [ listen ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept listen with
        | conn, _ -> (
          match accept_one conn with
          | () -> ()
          | exception Protocol.Frame_error _ -> ( try Unix.close conn with _ -> ())
          | exception Unix.Unix_error _ -> ( try Unix.close conn with _ -> ()))
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (match pool with Some p -> Parallel.Domain_pool.shutdown p | None -> ());
  publish_metrics t;
  (try Unix.close listen with _ -> ());
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  log t "drained; socket unlinked"
