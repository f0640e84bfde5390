(** Human-readable orchestration reports. *)

(* Render a byte count with a binary-unit suffix. *)
let pp_bytes (b : int) : string =
  let f = float_of_int b in
  if f >= 1024.0 *. 1024.0 *. 1024.0 then Printf.sprintf "%.2f GiB" (f /. (1024.0 ** 3.0))
  else if f >= 1024.0 *. 1024.0 then Printf.sprintf "%.2f MiB" (f /. (1024.0 ** 2.0))
  else if f >= 1024.0 then Printf.sprintf "%.2f KiB" (f /. 1024.0)
  else Printf.sprintf "%d B" b

let pp_result ppf (r : Orchestrator.result) =
  Format.fprintf ppf "Korch orchestration result@.";
  Format.fprintf ppf "  primitive nodes : %d@." r.Orchestrator.prim_nodes;
  Format.fprintf ppf "  segments        : %d@." (List.length r.Orchestrator.segments);
  Format.fprintf ppf "  execution states: %d@." r.Orchestrator.total_states;
  Format.fprintf ppf "  candidates      : %d@." r.Orchestrator.total_candidates;
  Format.fprintf ppf "  kernels selected: %d@."
    (Runtime.Plan.kernel_count r.Orchestrator.plan);
  Format.fprintf ppf "  redundancy      : %d extra primitive executions@."
    (Runtime.Plan.redundancy r.Orchestrator.plan);
  Format.fprintf ppf "  est. latency    : %.2f us@."
    r.Orchestrator.plan.Runtime.Plan.total_latency_us;
  Format.fprintf ppf "  sim. tuning time: %.1f s@." r.Orchestrator.tuning_time_s;
  let m = r.Orchestrator.memory in
  Format.fprintf ppf
    "  memory plan     : %d tensors -> %d slots, peak %s (no-reuse %s, %.1f%% reused)@."
    m.Runtime.Memplan.instances m.Runtime.Memplan.slots
    (pp_bytes m.Runtime.Memplan.peak_bytes)
    (pp_bytes m.Runtime.Memplan.no_reuse_bytes)
    (100.0 *. m.Runtime.Memplan.reuse_ratio);
  Format.fprintf ppf "  hazard check    : %s@."
    (Orchestrator.analysis_outcome_to_string r.Orchestrator.analysis);
  (* Degradation-ladder summary: how many segments landed on each tier. *)
  let count t =
    List.length
      (List.filter (fun s -> s.Orchestrator.outcome.Orchestrator.tier = t) r.Orchestrator.segments)
  in
  Format.fprintf ppf "  segment tiers   : %d optimal, %d greedy, %d unfused@."
    (count Orchestrator.Optimal) (count Orchestrator.Greedy) (count Orchestrator.Unfused);
  if r.Orchestrator.degraded_segments <> [] then
    Format.fprintf ppf "  DEGRADED        : segment%s %s fell back below the segment solver@."
      (if List.length r.Orchestrator.degraded_segments > 1 then "s" else "")
      (String.concat ", " (List.map string_of_int r.Orchestrator.degraded_segments));
  if r.Orchestrator.truncated_segments <> [] then
    Format.fprintf ppf
      "  TRUNCATED       : segment%s %s stopped state enumeration at the bound@."
      (if List.length r.Orchestrator.truncated_segments > 1 then "s" else "")
      (String.concat ", " (List.map string_of_int r.Orchestrator.truncated_segments))

(** Per-segment outcome table: one line per segment with its ladder tier,
    retries, and the failure that pushed it down (if any). *)
let pp_segments ppf (r : Orchestrator.result) =
  Format.fprintf ppf "  seg  tier       kernels  retries  notes@.";
  List.iter
    (fun (s : Orchestrator.segment_result) ->
      let o = s.Orchestrator.outcome in
      let notes =
        List.filter_map Fun.id
          [
            o.Orchestrator.fallback_reason;
            (if o.Orchestrator.transform_degraded then Some "transform degraded" else None);
            (if s.Orchestrator.id_stats.Kernel_identifier.states_truncated then
               Some "states truncated"
             else None);
          ]
      in
      Format.fprintf ppf "  %3d  %-9s  %7d  %7d  %s@." s.Orchestrator.seg_index
        (Orchestrator.tier_to_string o.Orchestrator.tier)
        (List.length s.Orchestrator.selected)
        o.Orchestrator.retries
        (match notes with [] -> "-" | l -> String.concat "; " l))
    r.Orchestrator.segments

let summary (r : Orchestrator.result) : string = Format.asprintf "%a" pp_result r

let segment_table (r : Orchestrator.result) : string = Format.asprintf "%a" pp_segments r

(* ----------------------------- JSON report ----------------------------- *)

let phase_obj (phases : (string * float) list) : Obs.Jsonw.t =
  Obs.Jsonw.Obj (List.map (fun (k, v) -> (k, Obs.Jsonw.Float v)) phases)

let segment_to_json (s : Orchestrator.segment_result) : Obs.Jsonw.t =
  let o = s.Orchestrator.outcome in
  let st = s.Orchestrator.id_stats in
  Obs.Jsonw.Obj
    [
      ("seg", Obs.Jsonw.Int s.Orchestrator.seg_index);
      ("tier", Obs.Jsonw.Str (Orchestrator.tier_to_string o.Orchestrator.tier));
      ("kernels", Obs.Jsonw.Int (List.length s.Orchestrator.selected));
      ("candidates", Obs.Jsonw.Int (Array.length s.Orchestrator.candidates));
      ("states", Obs.Jsonw.Int st.Kernel_identifier.states);
      ("states_truncated", Obs.Jsonw.Bool st.Kernel_identifier.states_truncated);
      ("profiled", Obs.Jsonw.Int st.Kernel_identifier.profiled);
      ("latency_us", Obs.Jsonw.Float s.Orchestrator.latency_us);
      ("settled_states", Obs.Jsonw.Int s.Orchestrator.settled_states);
      ("retries", Obs.Jsonw.Int o.Orchestrator.retries);
      ("transform_degraded", Obs.Jsonw.Bool o.Orchestrator.transform_degraded);
      ( "fallback_reason",
        match o.Orchestrator.fallback_reason with
        | Some s -> Obs.Jsonw.Str s
        | None -> Obs.Jsonw.Null );
      ("phase_us", phase_obj s.Orchestrator.phase_us);
    ]

(** [execution_to_json ~backend stats] — the ["execution"] block of a
    korch-report/1 document: which backend ran the plan and the native
    backend's per-kernel accounting (kernels run natively vs. on the
    interpreter, per-kernel fallbacks with their reasons, and measured
    per-kernel wall-clocks). *)
let execution_to_json ~(backend : Runtime.Backend.t)
    (s : Runtime.Backend.exec_stats) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("backend", Obs.Jsonw.Str (Runtime.Backend.to_string backend));
      ("native_kernels", Obs.Jsonw.Int s.Runtime.Backend.native_kernels);
      ("interp_kernels", Obs.Jsonw.Int s.Runtime.Backend.interp_kernels);
      ( "fallbacks",
        Obs.Jsonw.List
          (List.map
             (fun (ki, reason) ->
               Obs.Jsonw.Obj
                 [ ("kernel", Obs.Jsonw.Int ki); ("reason", Obs.Jsonw.Str reason) ])
             (List.sort compare s.Runtime.Backend.fallbacks)) );
      ( "kernel_times_us",
        Obs.Jsonw.List
          (List.map
             (fun (ki, us) ->
               Obs.Jsonw.Obj
                 [ ("kernel", Obs.Jsonw.Int ki); ("us", Obs.Jsonw.Float us) ])
             (List.sort compare s.Runtime.Backend.kernel_times_us)) );
    ]

(** [to_json ?meta ?execution r] — the machine-readable orchestration
    report (schema [korch-report/1]). *)
let to_json ?(meta : (string * Obs.Jsonw.t) list = [])
    ?(execution : Obs.Jsonw.t option) (r : Orchestrator.result) :
    Obs.Jsonw.t =
  let count t =
    List.length
      (List.filter (fun s -> s.Orchestrator.outcome.Orchestrator.tier = t) r.Orchestrator.segments)
  in
  let ints l = Obs.Jsonw.List (List.map (fun i -> Obs.Jsonw.Int i) l) in
  Obs.Jsonw.Obj
    ([ ("schema", Obs.Jsonw.Str "korch-report/1") ]
    @ (if meta = [] then [] else [ ("meta", Obs.Jsonw.Obj meta) ])
    @ [
        ("prim_nodes", Obs.Jsonw.Int r.Orchestrator.prim_nodes);
        ("segments", Obs.Jsonw.Int (List.length r.Orchestrator.segments));
        ("total_states", Obs.Jsonw.Int r.Orchestrator.total_states);
        ("total_candidates", Obs.Jsonw.Int r.Orchestrator.total_candidates);
        ("kernels", Obs.Jsonw.Int (Runtime.Plan.kernel_count r.Orchestrator.plan));
        ("redundancy", Obs.Jsonw.Int (Runtime.Plan.redundancy r.Orchestrator.plan));
        ( "plan_latency_us",
          Obs.Jsonw.Float r.Orchestrator.plan.Runtime.Plan.total_latency_us );
        ("tuning_time_s", Obs.Jsonw.Float r.Orchestrator.tuning_time_s);
        ( "tiers",
          Obs.Jsonw.Obj
            [
              ("optimal", Obs.Jsonw.Int (count Orchestrator.Optimal));
              ("greedy", Obs.Jsonw.Int (count Orchestrator.Greedy));
              ("unfused", Obs.Jsonw.Int (count Orchestrator.Unfused));
            ] );
        ("degraded_segments", ints r.Orchestrator.degraded_segments);
        ("truncated_segments", ints r.Orchestrator.truncated_segments);
        (* New in this revision; optional for korch-report/1 readers. *)
        ( "memory",
          let m = r.Orchestrator.memory in
          Obs.Jsonw.Obj
            [
              ("instances", Obs.Jsonw.Int m.Runtime.Memplan.instances);
              ("steps", Obs.Jsonw.Int m.Runtime.Memplan.steps);
              ("slots", Obs.Jsonw.Int m.Runtime.Memplan.slots);
              ("no_reuse_bytes", Obs.Jsonw.Int m.Runtime.Memplan.no_reuse_bytes);
              ("peak_bytes", Obs.Jsonw.Int m.Runtime.Memplan.peak_bytes);
              ("live_peak_bytes", Obs.Jsonw.Int m.Runtime.Memplan.live_peak_bytes);
              ("reuse_ratio", Obs.Jsonw.Float m.Runtime.Memplan.reuse_ratio);
            ] );
        (* New in this revision; optional for korch-report/1 readers. *)
        ( "analysis",
          match r.Orchestrator.analysis with
          | Orchestrator.Analysis_off -> Obs.Jsonw.Obj [ ("status", Obs.Jsonw.Str "off") ]
          | Orchestrator.Analysis_skipped reason ->
            Obs.Jsonw.Obj
              [ ("status", Obs.Jsonw.Str "skipped"); ("reason", Obs.Jsonw.Str reason) ]
          | Orchestrator.Analysis_checked report ->
            let e, w, i = Verify.Diagnostics.count_severity report in
            Obs.Jsonw.Obj
              [
                ("status", Obs.Jsonw.Str "checked");
                ("errors", Obs.Jsonw.Int e);
                ("warnings", Obs.Jsonw.Int w);
                ("infos", Obs.Jsonw.Int i);
              ] );
        ("time_limit_hits", Obs.Jsonw.Int r.Orchestrator.time_limit_hits);
        (* New in this revision; optional for korch-report/1 readers. *)
        ( "candidate_space",
          let c = r.Orchestrator.candidate_space in
          Obs.Jsonw.Obj
            [
              ("window", Obs.Jsonw.Int c.Orchestrator.window);
              ("kernel_cap", Obs.Jsonw.Int c.Orchestrator.kernel_cap);
              ("output_subset_limit", Obs.Jsonw.Int c.Orchestrator.output_subset_limit);
              ("state_guard", Obs.Jsonw.Int c.Orchestrator.state_guard);
              ("settled_budget", Obs.Jsonw.Int c.Orchestrator.settled_budget);
            ] );
        ("phase_us", phase_obj r.Orchestrator.phase_us);
        ( "per_segment",
          Obs.Jsonw.List (List.map segment_to_json r.Orchestrator.segments) );
      ]
    (* New in this revision; optional for korch-report/1 readers. *)
    @ (match execution with Some e -> [ ("execution", e) ] | None -> [])
    @ [ ("metrics", Obs.Metrics.to_json ()) ])

let json_string ?meta ?execution (r : Orchestrator.result) : string =
  Obs.Jsonw.to_string (to_json ?meta ?execution r)

(* ------------------------ round-trip documents ------------------------ *)

(* The serving layer's durable plan cache stores plans and tables as JSON
   and must read back exactly what it wrote: [Jsonw] prints floats with
   17 significant digits and [Onnx.Json] parses them back bit-identically,
   so write → read → write is a fixpoint. *)

let jsonw_of_json = Onnx.Json.to_jsonw

let kernel_codec : Runtime.Plan.kernel Onnx.Codec.t =
  Onnx.Codec.(
    obj (fun prims outputs latency_us backend ->
        { Runtime.Plan.prims; outputs; latency_us; backend })
    |> field "prims" (list int) (fun k -> k.Runtime.Plan.prims)
    |> field "outputs" (list int) (fun k -> k.Runtime.Plan.outputs)
    |> field "latency_us" float (fun k -> k.Runtime.Plan.latency_us)
    |> field "backend" string (fun k -> k.Runtime.Plan.backend)
    |> finish)

let plan_codec : Runtime.Plan.t Onnx.Codec.t =
  Onnx.Codec.(
    obj (fun declared kernels ->
        let p = Runtime.Plan.make kernels in
        (* [make] recomputes the total from the kernels; a mismatch with
           the stored total means the document was hand-edited or torn. *)
        if
          Float.abs (declared -. p.Runtime.Plan.total_latency_us)
          > 1e-6 *. Float.max 1.0 declared
        then fail "total_latency_us disagrees with kernel latencies";
        p)
    |> field "total_latency_us" float (fun p -> p.Runtime.Plan.total_latency_us)
    |> field "kernels" (list kernel_codec) (fun p -> p.Runtime.Plan.kernels)
    |> finish)

let plan_to_json = Onnx.Codec.encode plan_codec

let range_codec : Plan_table.range Onnx.Codec.t =
  Onnx.Codec.(
    obj (fun lo hi probes anchor graph plan signature refined ->
        { Plan_table.lo; hi; probes; anchor; graph; plan; signature; refined })
    |> field "lo" int (fun (r : Plan_table.range) -> r.Plan_table.lo)
    |> field "hi" int (fun (r : Plan_table.range) -> r.Plan_table.hi)
    |> field "probes" (list int) (fun r -> r.Plan_table.probes)
    |> field "anchor" int (fun r -> r.Plan_table.anchor)
    |> field "graph" Onnx.Graph_doc.primgraph (fun r -> r.Plan_table.graph)
    |> field "plan" plan_codec (fun r -> r.Plan_table.plan)
    |> field "signature" string (fun r -> r.Plan_table.signature)
    |> field "refined" bool (fun r -> r.Plan_table.refined)
    |> finish)

(* The ranges must partition [lo, hi] and agree with the crossover list;
   a violation means a torn or hand-edited document. *)
let check_cover (t : Plan_table.t) =
  let rec go pos = function
    | [] -> if pos <> t.Plan_table.hi + 1 then Onnx.Codec.fail "ranges do not cover [lo, hi]"
    | (r : Plan_table.range) :: rest ->
      if r.Plan_table.lo <> pos then Onnx.Codec.fail "ranges are not contiguous";
      if r.Plan_table.hi < r.Plan_table.lo then Onnx.Codec.fail "empty range";
      go (r.Plan_table.hi + 1) rest
  in
  match t.Plan_table.ranges with
  | [] -> Onnx.Codec.fail "no ranges"
  | _ :: rest ->
    go t.Plan_table.lo t.Plan_table.ranges;
    if t.Plan_table.crossovers <> List.map (fun (r : Plan_table.range) -> r.Plan_table.lo) rest
    then Onnx.Codec.fail "crossovers disagree with range bounds"

let plan_table_codec : Plan_table.t Onnx.Codec.t =
  Onnx.Codec.(
    obj (fun () model gpu precision lo hi crossovers ranges ->
        let t = { Plan_table.model; gpu; precision; lo; hi; ranges; crossovers } in
        check_cover t;
        t)
    |> field "schema" (enum [ ("korch-plan-table/1", ()) ]) (fun _ -> ())
    |> field "model" string (fun t -> t.Plan_table.model)
    |> field "gpu" string (fun t -> t.Plan_table.gpu)
    |> field "precision" string (fun t -> t.Plan_table.precision)
    |> field "lo" int (fun t -> t.Plan_table.lo)
    |> field "hi" int (fun t -> t.Plan_table.hi)
    |> field "crossovers" (list int) (fun t -> t.Plan_table.crossovers)
    |> field "ranges" (list range_codec) (fun t -> t.Plan_table.ranges)
    |> finish)

let plan_table_json_string (t : Plan_table.t) : string =
  Obs.Jsonw.to_string (Onnx.Codec.encode plan_table_codec t)

(* ----------------------------- korch-bench/1 ----------------------------- *)

type bench_entry = {
  experiment : string;
  model : string;
  gpu : string;
  precision : string;
  latency_us : float;
  kernels : int;
  redundancy : int;
  candidates : int;
  states : int;
  peak_mem_bytes : int;
  degraded_segments : int;
}

let bench_entry_codec : bench_entry Onnx.Codec.t =
  Onnx.Codec.(
    obj
      (fun experiment model gpu precision latency_us kernels redundancy candidates states
           peak_mem_bytes degraded_segments ->
        { experiment; model; gpu; precision; latency_us; kernels; redundancy; candidates;
          states; peak_mem_bytes; degraded_segments })
    |> field "experiment" string (fun e -> e.experiment)
    |> field "model" string (fun e -> e.model)
    |> field "gpu" string (fun e -> e.gpu)
    |> field "precision" string (fun e -> e.precision)
    |> field "latency_us" float (fun e -> e.latency_us)
    |> field "kernels" int (fun e -> e.kernels)
    |> field "redundancy" int (fun e -> e.redundancy)
    |> field "candidates" int (fun e -> e.candidates)
    |> field "states" int (fun e -> e.states)
    |> field "peak_mem_bytes" int (fun e -> e.peak_mem_bytes)
    |> field "degraded_segments" int (fun e -> e.degraded_segments)
    |> finish)

let bench_codec : bench_entry list Onnx.Codec.t =
  Onnx.Codec.(
    obj (fun () entries -> entries)
    |> field "schema" (enum [ ("korch-bench/1", ()) ]) (fun _ -> ())
    |> field "entries" (list bench_entry_codec) Fun.id
    |> finish)
