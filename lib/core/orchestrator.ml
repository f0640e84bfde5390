(** End-to-end Korch pipeline (Figure 1):

    computation graph -> operator fission -> partition -> per-segment
    {primitive-graph transformations -> kernel identification -> kernel
    profiling -> exact segment solve} -> stitched executable plan.

    Each segment is solved exactly by {!Segment_solver}: the cheapest path
    over sets of published primitives, which is the optimum of §4.2's
    Eqs. 2–4 over the selections that also admit a deadlock-free order.
    A path is a schedule, so no cut loop is needed.

    Robustness: no single segment may kill an orchestration. Each segment
    walks a degradation ladder — the exact path ([Optimal]) → greedy
    fusion from the all-singletons start ([Greedy]) → one kernel per
    primitive ([Unfused]) — so a profiler crash, a solver that exhausts
    its settled-state budget or a worker-domain death degrades that one
    segment instead of aborting the run. The unfused strategy is always
    constructible and always schedulable (each kernel waits only on graph
    predecessors), so the ladder has a guaranteed floor. *)

open Ir

(** Structured orchestration errors: which segment, which pipeline stage,
    what happened — replacing the old stringly-typed failure. *)
module Error = struct
  type site =
    | Schedule
    | Stitch
    | Verify

  let site_to_string = function
    | Schedule -> "schedule"
    | Stitch -> "stitch"
    | Verify -> "verify"

  type t = {
    segment : int option;  (** segment index, when the failure is local *)
    site : site;
    detail : string;
  }

  let to_string { segment; site; detail } =
    match segment with
    | Some i -> Printf.sprintf "[segment %d/%s] %s" i (site_to_string site) detail
    | None -> Printf.sprintf "[%s] %s" (site_to_string site) detail
end

exception Orchestration_failed of Error.t

let () =
  Printexc.register_printer (function
    | Orchestration_failed e -> Some ("Orchestration_failed: " ^ Error.to_string e)
    | _ -> None)

let orch_fail ?segment (site : Error.site) fmt =
  Printf.ksprintf
    (fun detail -> raise (Orchestration_failed { Error.segment; site; detail }))
    fmt

(** Degradation-ladder tier a segment's final plan came from. *)
type tier =
  | Optimal  (** the segment solver's exact cheapest path *)
  | Greedy  (** solver failed; greedy fusion from the all-singletons start *)
  | Unfused  (** ladder floor: one kernel per primitive *)

let tier_to_string = function
  | Optimal -> "optimal"
  | Greedy -> "greedy"
  | Unfused -> "unfused"

let tier_is_degraded t = t <> Optimal

type outcome = {
  tier : tier;
  retries : int;  (** worker-domain failures retried on the main domain *)
  fallback_reason : string option;
      (** first failure that pushed the segment down the ladder *)
  transform_degraded : bool;
      (** transformation search failed; its starting point
          ({!Transform.Optimizer.clean}), or the raw segment, was used
          instead *)
}

(** A per-request deadline, propagated from the serving layer. [at_s] is
    an absolute {!Obs.Clock.now_s} instant; [total_s] the full budget the
    request started with, so pressure = remaining / total is well defined
    however late orchestration starts. *)
type deadline = { at_s : float; total_s : float }

let deadline_in total_s = { at_s = Obs.Clock.now_s () +. total_s; total_s }

(** Per-segment solver budget as a count of settled search states — a
    deterministic measure of solver work, unlike CPU time, so a segment
    that exhausts it does so for every [jobs] value and on every run. It
    sits far above what the default 12-primitive window needs (at most
    430 states on a paper-scale zoo segment at batch 1, 873 without
    redundancy). A request deadline scales it down ([config.deadline]). *)
let settled_state_limit = 100_000

type config = {
  spec : Gpu.Spec.t;
  precision : Gpu.Precision.t;
  max_tvm_prims : int;  (** kernel cap: primitives per generated kernel *)
  partition_max_prims : int;
  use_transform : bool;
  allow_redundancy : bool;
      (** §4.2's relaxation: primitives may execute in several kernels.
          Disable for the ablation (prior-work-style disjoint partitions) *)
  check_invariants : bool;
      (** run the {!Verify} static analyses at every pipeline boundary:
          the fissioned graph, each transformed segment, and the stitched
          graph + plan. A violation raises {!Orchestration_failed} with
          the full diagnostic report instead of corrupting downstream
          stages silently *)
  jobs : int;
      (** worker domains used to solve independent partition segments
          concurrently (transform search → kernel identification →
          profiling → segment solve). [1] (the default) is fully
          sequential and spawns no domains; any value produces plans
          bit-identical to [jobs = 1] because segment results are merged
          in segment order, the profile cache resolves each distinct
          kernel exactly once, and the segment solver is a pure function
          of its candidates with a budget counted in settled states. CLI
          and bench entry points default to
          {!Parallel.Domain_pool.default_jobs} instead *)
  deadline : deadline option;
      (** per-request wall-clock deadline ([None] = unconstrained, the
          default). As the deadline approaches, each segment scales
          [settled_state_limit] down by the fraction of budget remaining; a
          segment starting past the deadline skips search entirely and
          takes the unfused floor. Deadline-pressured plans depend on
          wall-clock, so they are {e not} reproducible across runs — the
          serving layer only caches plans from unconstrained runs as
          final, treating pressured ones as incumbents *)
}

let default_config =
  {
    spec = Gpu.Spec.v100;
    precision = Gpu.Precision.FP32;
    max_tvm_prims = Gpu.Profiler.max_tvm_prims;
    partition_max_prims = 12;
    use_transform = true;
    allow_redundancy = true;
    check_invariants = true;
    jobs = 1;
    deadline = None;
  }

(** How the static-analysis hazard cross-check of the stitched plan's
    memory planning fared. An analyzer {e crash} (or injected [Analysis]
    fault) degrades to [Analysis_skipped] — the analysis is an auditor,
    not a load-bearing stage — while a {e finding} above warning always
    raises: a failed cross-check means reuse would corrupt tensors. *)
type analysis_outcome =
  | Analysis_checked of Verify.Diagnostics.report
      (** cross-check ran; errors (none, or {!Orchestration_failed} was
          raised), warnings and infos are all retained *)
  | Analysis_skipped of string  (** analyzer crashed; reason recorded *)
  | Analysis_off  (** [check_invariants] disabled *)

let analysis_outcome_to_string = function
  | Analysis_checked r ->
    let e, w, i = Verify.Diagnostics.count_severity r in
    Printf.sprintf "checked (%d error(s), %d warning(s), %d info(s))" e w i
  | Analysis_skipped reason -> Printf.sprintf "skipped: %s" reason
  | Analysis_off -> "off"

type segment_result = {
  seg : Partition.segment;
  seg_index : int;
  transformed : Primgraph.t;
  candidates : Candidate.t array;
  id_stats : Kernel_identifier.stats;
  selected : int list;  (** scheduled order of candidate indices *)
  latency_us : float;
  settled_states : int;  (** states the segment solver settled (0 when it did not run) *)
  outcome : outcome;
  phase_us : (string * float) list;
      (** wall-clock per pipeline phase: [transform], [identify], [solve] *)
}

(** The fixed cuts that shape the candidate set an [Optimal] segment is
    exact over. *)
type candidate_space = {
  window : int;
  kernel_cap : int;
  output_subset_limit : int;
  state_guard : int;
  settled_budget : int;
}

type result = {
  graph : Primgraph.t;  (** stitched post-transformation primitive graph *)
  plan : Runtime.Plan.t;  (** kernels reference [graph] node ids *)
  segments : segment_result list;
  total_candidates : int;
  total_states : int;
  prim_nodes : int;  (** executable primitives after fission+transform *)
  tuning_time_s : float;  (** simulated profiling cost (Table 2) *)
  degraded_segments : int list;
      (** indices of segments that fell to [Greedy] or [Unfused] *)
  time_limit_hits : int;
      (** always 0: no solver reads a clock. Kept until the benchmark
          that reads it changes *)
  candidate_space : candidate_space;
  truncated_segments : int list;
      (** indices of segments whose state enumeration was truncated *)
  memory : Runtime.Memplan.stats;
      (** static memory plan of the stitched plan (device-precision bytes) *)
  analysis : analysis_outcome;
      (** hazard cross-check of the memory plan (see {!analysis_outcome}) *)
  phase_us : (string * float) list;
      (** wall-clock per run-level phase: [fission] (from {!run} only),
          [partition], [segments], [stitch], [verify], [total] *)
}

(* Raise a structured [Verify]-site error if a verification report
   contains errors. *)
let enforce ?segment ~what (report : Verify.Diagnostics.report) =
  if Verify.Diagnostics.has_errors report then
    orch_fail ?segment Error.Verify "%s failed verification: %s" what
      (Verify.Diagnostics.error_summary report)

(* ------------------------------------------------------------------ *)
(* Ladder floor: singleton candidates for every executable primitive.  *)

(* Ensure every non-source primitive has a full singleton candidate
   ([outputs = [id]]), synthesizing the missing ones. The profiler can
   reject or crash on a synthesized singleton too, so as a last resort the
   cost model prices it as an opaque framework call — mirroring the
   baselines' "the framework always has *some* kernel for one primitive".
   Existing candidate indices are preserved (synthesized ones are
   appended), so solver/schedule results computed before the call stay valid.
   Returns the extended array plus [singleton.(id)] = index of the
   cheapest full singleton for primitive [id] (-1 on source nodes). *)
let ensure_singletons (cfg : config) ~(cache : Gpu.Profile_cache.t) (g : Primgraph.t)
    (candidates : Candidate.t array) : Candidate.t array * int array =
  let n = Graph.length g in
  let singleton = Array.make n (-1) in
  let latency_of i = candidates.(i).Candidate.latency_us in
  Array.iteri
    (fun i (c : Candidate.t) ->
      match Bitset.elements c.Candidate.members with
      | [ id ] when c.Candidate.outputs = [ id ] ->
        if singleton.(id) < 0 || latency_of i < latency_of singleton.(id) then
          singleton.(id) <- i
      | _ -> ())
    candidates;
  let extra = ref [] in
  let next = ref (Array.length candidates) in
  List.iter
    (fun id ->
      if singleton.(id) < 0 then begin
        let members = Bitset.add (Bitset.empty n) id in
        let outputs = [ id ] in
        let fallback_price () =
          ( Gpu.Cost_model.latency_us ~spec:cfg.spec ~precision:cfg.precision
              ~backend:Gpu.Cost_model.OpaqueExec g
              (Gpu.Stats.kernel_stats g members ~outputs),
            Gpu.Cost_model.OpaqueExec )
        in
        let latency_us, backend =
          match
            Gpu.Profile_cache.profile cache ~max_tvm_prims:cfg.max_tvm_prims ~spec:cfg.spec
              ~precision:cfg.precision g members ~outputs
          with
          | Some r -> (r.Gpu.Profiler.latency_us, r.Gpu.Profiler.backend)
          | None -> fallback_price ()
          | exception Faults.Injected _ -> fallback_price ()
        in
        extra :=
          Candidate.
            {
              members;
              outputs;
              ext_inputs = Graph.external_inputs g members;
              latency_us;
              backend;
            }
          :: !extra;
        singleton.(id) <- !next;
        incr next
      end)
    (Primgraph.non_source_nodes g);
  (Array.append candidates (Array.of_list (List.rev !extra)), singleton)

(* The unfused strategy: one kernel per primitive, in schedulable order.
   Always feasible on a DAG — each singleton waits only on its graph
   predecessors — so this is the ladder's guaranteed floor. *)
let unfused_plan ?segment (g : Primgraph.t) (candidates : Candidate.t array)
    (singleton : int array) : int list * float =
  let selected = List.map (fun id -> singleton.(id)) (Primgraph.non_source_nodes g) in
  match Scheduler.schedule g candidates ~selected with
  | Ok order ->
    (order, List.fold_left (fun a i -> a +. candidates.(i).Candidate.latency_us) 0.0 order)
  | Error _ ->
    (* Cannot happen on a DAG; if it does, the graph itself is broken. *)
    orch_fail ?segment Error.Schedule "unfused plan unschedulable — segment graph is cyclic"

(* Greedy fusion from the all-singletons start: repeatedly absorb the
   multi-primitive candidate with the largest latency gain over its
   members' singletons, provided all members are still singleton-owned,
   every member needed outside the candidate is published by it, and the
   resulting selection still schedules (disjoint convex kernels can
   deadlock each other — a quotient-graph cycle — so each absorption is
   re-checked and reverted if stuck). Deterministic: candidates are ranked
   by (gain desc, index asc). *)
let greedy_plan (g : Primgraph.t) (candidates : Candidate.t array) (singleton : int array) :
    (int list * float) option =
  let succs = Graph.succs g in
  let owner = Array.make (Graph.length g) (-1) in
  List.iter (fun id -> owner.(id) <- singleton.(id)) (Primgraph.non_source_nodes g);
  let selection () =
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun i -> if i >= 0 && not (Hashtbl.mem seen i) then Hashtbl.replace seen i ())
      owner;
    List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) seen [])
  in
  let publishes_needed (c : Candidate.t) =
    List.for_all
      (fun id ->
        let needed_outside =
          List.mem id g.Graph.outputs
          || List.exists (fun s -> not (Bitset.mem c.Candidate.members s)) succs.(id)
        in
        (not needed_outside) || List.mem id c.Candidate.outputs)
      (Bitset.elements c.Candidate.members)
  in
  let gains = ref [] in
  Array.iteri
    (fun i (c : Candidate.t) ->
      let members = Bitset.elements c.Candidate.members in
      if List.length members > 1 && publishes_needed c then begin
        let cover =
          List.fold_left
            (fun acc id ->
              match acc with
              | None -> None
              | Some s ->
                if singleton.(id) < 0 then None
                else Some (s +. candidates.(singleton.(id)).Candidate.latency_us))
            (Some 0.0) members
        in
        match cover with
        | Some total when c.Candidate.latency_us < total ->
          gains := (total -. c.Candidate.latency_us, i) :: !gains
        | _ -> ()
      end)
    candidates;
  let ranked =
    List.sort (fun (g1, i1) (g2, i2) -> if g1 <> g2 then compare g2 g1 else compare i1 i2) !gains
  in
  List.iter
    (fun (_gain, i) ->
      let c = candidates.(i) in
      let members = Bitset.elements c.Candidate.members in
      if List.for_all (fun id -> owner.(id) = singleton.(id)) members then begin
        let saved = List.map (fun id -> (id, owner.(id))) members in
        List.iter (fun id -> owner.(id) <- i) members;
        match Scheduler.schedule g candidates ~selected:(selection ()) with
        | Ok _ -> ()
        | Error _ -> List.iter (fun (id, o) -> owner.(id) <- o) saved
      end)
    ranked;
  match Scheduler.schedule g candidates ~selected:(selection ()) with
  | Ok order ->
    Some (order, List.fold_left (fun a i -> a +. candidates.(i).Candidate.latency_us) 0.0 order)
  | Error _ -> None

(* ------------------------------------------------------------------ *)

(* Degradation-tier census across every segment of every run. *)
let m_tier_optimal = Obs.Metrics.counter "orchestrator.tier.optimal"
let m_tier_greedy = Obs.Metrics.counter "orchestrator.tier.greedy"
let m_tier_unfused = Obs.Metrics.counter "orchestrator.tier.unfused"
let m_worker_retries = Obs.Metrics.counter "orchestrator.worker_retries"

(* Memory-planner gauges: set once per orchestration from the stitched
   plan's {!Runtime.Memplan} analysis, next to the latency metrics. *)
let g_mem_peak = Obs.Metrics.gauge "memplan.peak_bytes"
let g_mem_no_reuse = Obs.Metrics.gauge "memplan.no_reuse_bytes"
let g_mem_live_peak = Obs.Metrics.gauge "memplan.live_peak_bytes"
let g_mem_slots = Obs.Metrics.gauge "memplan.slots"
let g_mem_reuse_ratio = Obs.Metrics.gauge "memplan.reuse_ratio"

(* Static-analysis cross-check census. *)
let m_analysis_findings_error = Obs.Metrics.counter "analysis.findings.error"
let m_analysis_findings_warning = Obs.Metrics.counter "analysis.findings.warning"
let m_analysis_skipped = Obs.Metrics.counter "analysis.skipped"

let tier_counter = function
  | Optimal -> m_tier_optimal
  | Greedy -> m_tier_greedy
  | Unfused -> m_tier_unfused

(* Solve one segment: the exact cheapest path, walking the degradation
   ladder on failure. *)
let solve_segment (cfg : config) ~(cache : Gpu.Profile_cache.t) ?(seg_index = 0)
    (seg : Partition.segment) : segment_result =
  Obs.Span.with_ ~name:"segment"
    ~args:
      [
        ("seg", Obs.Jsonw.Int seg_index);
        ( "prims",
          Obs.Jsonw.Int (List.length (Primgraph.non_source_nodes seg.Partition.local)) );
      ]
  @@ fun () ->
  let fallback_reason = ref None in
  (* The first ladder reason wins, labelled with the phase that failed. *)
  let note phase fmt =
    Printf.ksprintf
      (fun detail ->
        if !fallback_reason = None then
          fallback_reason := Some (Printf.sprintf "%s: %s" phase detail))
      fmt
  in
  (* Deadline pressure: fraction of the request's budget still remaining
     when this segment starts. 1.0 = unconstrained or plenty of time,
     0.0 = already past the deadline. Sampled once per segment so one
     segment's decisions are internally consistent. *)
  let deadline_frac =
    match cfg.deadline with
    | None -> 1.0
    | Some d ->
      if d.total_s <= 0.0 then 0.0
      else Float.max 0.0 (Float.min 1.0 ((d.at_s -. Obs.Clock.now_s ()) /. d.total_s))
  in
  let past_deadline = deadline_frac <= 0.0 in
  let settled_budget =
    if deadline_frac >= 1.0 then settled_state_limit
    else Stdlib.max 1 (int_of_float (float_of_int settled_state_limit *. deadline_frac))
  in
  if past_deadline then
    note "solve" "deadline exceeded before segment solve; taking the unfused floor";
  (* Transformation search, degrading to its starting point then the raw
     segment. Past the deadline the search is skipped outright — CSE is
     the only (cheap, deterministic) cleanup still worth paying for. *)
  let transform_attempt () =
    if past_deadline then Transform.Cse.run seg.Partition.local
    else if cfg.use_transform then
      Transform.Optimizer.optimize ~spec:cfg.spec ~precision:cfg.precision seg.Partition.local
    else Transform.Cse.run seg.Partition.local
  in
  let (transformed, transform_degraded), transform_us =
    Obs.Clock.timed_us @@ fun () ->
    Obs.Span.with_ ~name:"transform" @@ fun () ->
    match transform_attempt () with
    | t ->
      if cfg.check_invariants then begin
        match enforce ~segment:seg_index ~what:"transformed segment" (Verify.graph_check t) with
        | () -> (t, false)
        | exception Orchestration_failed e ->
          (* A transformation produced a graph the analyses reject — fall
             back to the untransformed segment rather than execute it. *)
          if !fallback_reason = None then fallback_reason := Some (Error.to_string e);
          (seg.Partition.local, true)
      end
      else (t, false)
    | exception ((Orchestration_failed _ | Stack_overflow | Out_of_memory) as e) -> raise e
    | exception e ->
      (match e with
      | Faults.Injected _ -> note "transform" "%s" (Printexc.to_string e)
      | e -> note "transform" "transformation search failed: %s" (Printexc.to_string e));
      (* CSE + constant folding is the search's own starting point: cheap,
         deterministic, semantics-preserving — and folding matters, since
         an unfolded segment can be exponentially wider to enumerate. If
         even that fails the raw segment is used untouched. *)
      (match Transform.Optimizer.clean seg.Partition.local with
      | t -> (t, true)
      | exception _ -> (seg.Partition.local, true))
  in
  (* Kernel identification. Per-candidate profiler failures are absorbed
     inside [identify]; a failure here is the enumerator itself dying. *)
  let (candidates, id_stats), identify_us =
    Obs.Clock.timed_us @@ fun () ->
    if past_deadline then ([||], Kernel_identifier.empty_stats)
    else
      match
        Kernel_identifier.identify ~max_tvm_prims:cfg.max_tvm_prims ~spec:cfg.spec
          ~precision:cfg.precision ~cache transformed
      with
    | r -> r
    | exception (Faults.Injected _ as e) ->
      note "enumerate" "%s" (Printexc.to_string e);
      ([||], Kernel_identifier.empty_stats)
  in
  (* Ladder floor material: every primitive gets a singleton candidate. *)
  let candidates, singleton = ensure_singletons cfg ~cache transformed candidates in
  let (selected, latency_us, tier, settled_states), solve_us =
    Obs.Clock.timed_us @@ fun () ->
    Obs.Span.with_ ~name:"solve" @@ fun () ->
    if Primgraph.non_source_nodes transformed = [] then ([], 0.0, Optimal, 0)
    else if past_deadline then begin
      (* Ladder entry for an exceeded deadline: the unfused floor is the
         cheapest schedulable plan and costs no solver time at all. *)
      let order, obj = unfused_plan ~segment:seg_index transformed candidates singleton in
      (order, obj, Unfused, 0)
    end
    else begin
      let failed reason settled =
        note "solve" "%s" reason;
        (* Ladder: greedy fusion, then the unfused floor. *)
        match greedy_plan transformed candidates singleton with
        | Some (order, obj) -> (order, obj, Greedy, settled)
        | None ->
          let order, obj = unfused_plan ~segment:seg_index transformed candidates singleton in
          (order, obj, Unfused, settled)
      in
      match
        Segment_solver.solve ~disjoint:(not cfg.allow_redundancy) ~budget:settled_budget
          transformed candidates
      with
      | Ok s -> (s.Segment_solver.order, s.Segment_solver.cost, Optimal, s.Segment_solver.settled)
      | Error (Segment_solver.Budget_exhausted k | Segment_solver.Unreachable k as f) ->
        failed (Segment_solver.failure_to_string f) k
      | exception (Faults.Injected _ as e) -> failed (Printexc.to_string e) 0
    end
  in
  let outcome =
    {
      tier;
      retries = 0;
      fallback_reason = !fallback_reason;
      transform_degraded;
    }
  in
  {
    seg;
    seg_index;
    transformed;
    candidates;
    id_stats;
    selected;
    latency_us;
    settled_states;
    outcome;
    phase_us =
      [ ("transform", transform_us); ("identify", identify_us); ("solve", solve_us) ];
  }

(* Stitch per-segment transformed graphs back into one executable graph,
   translating each segment's plan kernels to stitched node ids. *)
let stitch (original : Primgraph.t) (results : segment_result list) :
    Primgraph.t * Runtime.Plan.kernel list =
  let b = Primgraph.B.create () in
  let interface = Hashtbl.create 64 in
  (* original global producer id -> stitched id *)
  let input_by_name = Hashtbl.create 16 in
  let kernels = ref [] in
  List.iter
    (fun r ->
      let local = r.transformed in
      let map = Array.make (Graph.length local) (-1) in
      List.iter
        (fun lid ->
          let nd = Graph.node local lid in
          let sid =
            match nd.Graph.op with
            | Primitive.Input name -> begin
              match Partition.parse_placeholder name with
              | Some gid -> begin
                match Hashtbl.find_opt interface gid with
                | Some sid -> sid
                | None ->
                  orch_fail ~segment:r.seg_index Error.Stitch
                    "interface tensor %d not yet produced" gid
              end
              | None -> begin
                match Hashtbl.find_opt input_by_name name with
                | Some sid -> sid
                | None ->
                  let sid = Primgraph.B.input b name nd.Graph.shape in
                  Hashtbl.replace input_by_name name sid;
                  sid
              end
            end
            | op ->
              Primgraph.B.add_raw b op
                (List.map (fun i -> map.(i)) nd.Graph.inputs)
                nd.Graph.shape
          in
          map.(lid) <- sid)
        (Graph.topo_order local);
      (* Publish interface tensors. *)
      List.iter2
        (fun lout gid -> Hashtbl.replace interface gid map.(lout))
        local.Graph.outputs r.seg.Partition.out_global;
      (* Translate this segment's kernels. *)
      List.iter
        (fun k ->
          let c = r.candidates.(k) in
          kernels :=
            Runtime.Plan.
              {
                prims = List.map (fun i -> map.(i)) (Bitset.elements c.Candidate.members);
                outputs = List.map (fun i -> map.(i)) c.Candidate.outputs;
                latency_us = c.Candidate.latency_us;
                backend = Gpu.Cost_model.backend_to_string c.Candidate.backend;
              }
            :: !kernels)
        r.selected)
    results;
  (* Stitched graph outputs mirror the original ones. *)
  let outputs =
    List.map
      (fun o ->
        match Hashtbl.find_opt interface o with
        | Some sid -> sid
        | None -> orch_fail Error.Stitch "graph output %d not produced" o)
      original.Graph.outputs
  in
  Primgraph.B.set_outputs b outputs;
  (Primgraph.B.finish b, List.rev !kernels)

(** [run_primgraph cfg g] — orchestrate a primitive graph. *)
let run_primgraph (cfg : config) (g : Primgraph.t) : result =
  let body () =
    Obs.Span.with_ ~name:"orchestrate" ~args:[ ("nodes", Obs.Jsonw.Int (Graph.length g)) ]
    @@ fun () ->
    let cache = Gpu.Profile_cache.create () in
    let segments, partition_us =
      Obs.Clock.timed_us (fun () -> Partition.split g ~max_prims:cfg.partition_max_prims)
    in
    let indexed = List.mapi (fun i s -> (i, s)) segments in
    (* Segments are mutually independent (cross-segment tensors are Input
       placeholders), so they can be solved on a domain pool. Results come
       back in segment order and the profile cache is sharded and locked,
       so the stitched plan is bit-identical to [jobs = 1]. *)
    let jobs = min cfg.jobs (List.length segments) in
    let results, segments_us =
      Obs.Clock.timed_us @@ fun () ->
      if jobs <= 1 then
        List.map (fun (i, s) -> solve_segment cfg ~cache ~seg_index:i s) indexed
      else
        Parallel.Domain_pool.with_pool ~jobs (fun pool ->
            Parallel.Domain_pool.map_result pool
              (fun (i, s) -> solve_segment cfg ~cache ~seg_index:i s)
              indexed)
        |> List.map2
             (fun (i, s) outcome ->
               match outcome with
               | Stdlib.Ok r -> r
               | Stdlib.Error (e, _) ->
                 (* The worker domain died mid-segment (injected fault or
                    real crash): retry the whole segment sequentially on
                    the main domain before degrading further. A failure
                    of the retry itself is genuinely fatal. *)
                 let r = solve_segment cfg ~cache ~seg_index:i s in
                 let reason =
                   Printf.sprintf "worker: retried on main domain after %s"
                     (Printexc.to_string e)
                 in
                 {
                   r with
                   outcome =
                     {
                       r.outcome with
                       retries = r.outcome.retries + 1;
                       fallback_reason =
                         (match r.outcome.fallback_reason with
                         | Some existing -> Some (reason ^ "; " ^ existing)
                         | None -> Some reason);
                     };
                 })
             indexed
    in
    let (graph, kernels), stitch_us =
      Obs.Clock.timed_us (fun () ->
          Obs.Span.with_ ~name:"stitch" (fun () -> stitch g results))
    in
    let plan = Runtime.Plan.make kernels in
    let bytes_per_element = Gpu.Precision.bytes_per_element cfg.precision in
    let memplan = Runtime.Memplan.analyze ~bytes_per_element graph plan in
    let memory = Runtime.Memplan.stats memplan in
    Obs.Metrics.set g_mem_peak (float_of_int memory.Runtime.Memplan.peak_bytes);
    Obs.Metrics.set g_mem_no_reuse (float_of_int memory.Runtime.Memplan.no_reuse_bytes);
    Obs.Metrics.set g_mem_live_peak (float_of_int memory.Runtime.Memplan.live_peak_bytes);
    Obs.Metrics.set g_mem_slots (float_of_int memory.Runtime.Memplan.slots);
    Obs.Metrics.set g_mem_reuse_ratio memory.Runtime.Memplan.reuse_ratio;
    let degraded_segments =
      List.filter_map
        (fun r -> if tier_is_degraded r.outcome.tier then Some r.seg_index else None)
        results
    in
    let analysis, verify_us =
      if not cfg.check_invariants then (Analysis_off, 0.0)
      else
        Obs.Clock.timed_us @@ fun () ->
        Obs.Span.with_ ~name:"verify" @@ fun () ->
        enforce ~what:"stitched graph" (Verify.graph_check graph);
        enforce ~what:"stitched plan" (Verify.plan_check graph plan);
        (* Independent hazard cross-check of the planner's arena packing
           (second implementation, Verify.Hazard). An analyzer crash — or
           an injected [Analysis] fault — degrades to "skipped": the
           cross-check is an auditor, not a load-bearing stage. A
           genuine finding still raises via [enforce]. *)
        match
          Faults.check Faults.Analysis;
          Verify.Hazard.check ~bytes_per_element graph plan memplan
        with
        | report ->
          let e, w, _ = Verify.Diagnostics.count_severity report in
          Obs.Metrics.add m_analysis_findings_error e;
          Obs.Metrics.add m_analysis_findings_warning w;
          enforce ~what:"memory plan (hazard cross-check)" report;
          Analysis_checked report
        | exception (Faults.Injected _ as e) ->
          Obs.Metrics.incr m_analysis_skipped;
          Analysis_skipped (Printexc.to_string e)
        | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
        | exception e ->
          Obs.Metrics.incr m_analysis_skipped;
          Analysis_skipped (Printexc.to_string e)
    in
    List.iter
      (fun r ->
        Obs.Metrics.incr (tier_counter r.outcome.tier);
        if r.outcome.retries > 0 then Obs.Metrics.add m_worker_retries r.outcome.retries)
      results;
    {
      graph;
      plan;
      segments = results;
      total_candidates = List.fold_left (fun a r -> a + Array.length r.candidates) 0 results;
      total_states =
        List.fold_left (fun a r -> a + r.id_stats.Kernel_identifier.states) 0 results;
      prim_nodes =
        List.fold_left
          (fun a r -> a + List.length (Primgraph.non_source_nodes r.transformed))
          0 results;
      tuning_time_s = Gpu.Profile_cache.tuning_time_s cache;
      degraded_segments;
      time_limit_hits = 0;
      candidate_space =
        {
          window = cfg.partition_max_prims;
          kernel_cap = Kernel_identifier.kernel_cap ~max_tvm_prims:cfg.max_tvm_prims;
          output_subset_limit = Kernel_identifier.max_boundary_enum;
          state_guard = Kernel_identifier.max_states;
          settled_budget = settled_state_limit;
        };
      truncated_segments =
        List.filter_map
          (fun r ->
            if r.id_stats.Kernel_identifier.states_truncated then Some r.seg_index else None)
          results;
      memory;
      analysis;
      phase_us =
        [
          ("partition", partition_us);
          ("segments", segments_us);
          ("stitch", stitch_us);
          ("verify", verify_us);
        ];
    }
  in
  let r, total_us = Obs.Clock.timed_us body in
  { r with phase_us = r.phase_us @ [ ("total", total_us) ] }

(** [fission g] — fold BatchNorms, then apply operator fission. *)
let fission (g : Opgraph.t) : Primgraph.t =
  fst (Fission.Engine.run (Fission.Canonicalize.fold_batch_norms g))

(** [run cfg g] — {!fission}, then {!run_primgraph}. *)
let run (cfg : config) (g : Opgraph.t) : result =
  let pg, fission_us =
    Obs.Clock.timed_us (fun () -> Obs.Span.with_ ~name:"fission" (fun () -> fission g))
  in
  if cfg.check_invariants then enforce ~what:"fissioned graph" (Verify.graph_check pg);
  let r = run_primgraph cfg pg in
  {
    r with
    phase_us =
      ("fission", fission_us)
      :: List.map
           (fun (k, v) -> if k = "total" then (k, v +. fission_us) else (k, v))
           r.phase_us;
  }
