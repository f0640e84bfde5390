(* Shared machinery of the benchmark's workloads: the run context, timing,
   spans, counter diffs, correctness accounting and the work-count record. *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one workload run produced. *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** every end-to-end metric (the untraced run) *)
  layers : metric list;  (** every per-layer metric (the traced run) *)
}

let now_s = Obs.Clock.now_s

let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* ---------------------------- host speed ------------------------------ *)

(* The benchmark runs on shared machines whose speed drifts by a quarter
   or more within a minute, with other guests' load; every piece of code
   slows alike. So each timed unit of work is rescaled to a reference
   speed: a fixed loop of benchmark-only arithmetic is timed next to it,
   and the unit's time is multiplied by [reference_ms] over the loop's
   time. The loop calls no code of the program under test, so a change to
   the program cannot move it. *)

(* The loop's duration at the reference speed: a calm 2.1 GHz Xeon. *)
let reference_ms = 1.35

let calib_buf = Array.make 65536 1.0

(* Time the calibration loop: arithmetic over a 512 KiB float array, with
   no allocation, so the garbage collector never runs in it. The fastest
   of three passes, so a pass the scheduler interrupts does not count. *)
let calibrate_ms () : float =
  let once () =
    let t0 = now_s () in
    let a = calib_buf in
    let acc = ref 0.0 in
    for pass = 1 to 16 do
      for i = 0 to Array.length a - 1 do
        let y = (Array.unsafe_get a i *. 0.5) +. float_of_int ((i + pass) land 7) in
        Array.unsafe_set a i y;
        acc := !acc +. y
      done
    done;
    ignore (Sys.opaque_identity !acc);
    1000.0 *. (now_s () -. t0)
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

let last_calib_ms = ref nan

(* [speed_factor f] runs [f] and returns its value with the factor that
   rescales times measured during it to the reference speed: [reference_ms]
   over the mean of the calibration before it (the one the previous call
   left) and the one after it. *)
let speed_factor (f : unit -> 'a) : 'a * float =
  if Float.is_nan !last_calib_ms then last_calib_ms := calibrate_ms ();
  let before = !last_calib_ms in
  let v = f () in
  let after = calibrate_ms () in
  last_calib_ms := after;
  (v, reference_ms /. ((before +. after) /. 2.0))

(* [f ()] with its wall-clock seconds and those seconds at the reference
   speed. *)
let timed_adjusted (f : unit -> 'a) : 'a * float * float =
  let (v, wall), k = speed_factor (fun () -> timed f) in
  (v, wall, wall *. k)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Human-readable report lines go to stderr; stdout ends with the result. *)
let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------- correctness census -------------------------- *)

let attempted = ref 0
let failed = ref 0

let attempt () = incr attempted

(* Count one failed check (a wrong output, an error, a degraded or
   mismatching plan) and say why. *)
let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      if !failed <= 20 then say "CHECK FAILED: %s" s)
    fmt

let check cond fmt = Printf.ksprintf (fun s -> if not cond then fail "%s" s) fmt

(* ------------------------------- spans --------------------------------- *)

(* A benchmark-side span around one public call. Free when tracing is off;
   [id] ties the spans of one request, sweep or model together. *)
let span ?(id = "") name (f : unit -> 'a) : 'a =
  if not (Obs.Trace.is_enabled ()) then f ()
  else begin
    let t0 = Obs.Clock.now_us () in
    let record () =
      Obs.Trace.record
        {
          Obs.Trace.name;
          cat = "bench";
          ts_us = t0;
          dur_us = Obs.Clock.now_us () -. t0;
          tid = Obs.Trace.self_tid ();
          args = (if id = "" then [] else [ ("id", Obs.Jsonw.Str id) ]);
        }
    in
    match f () with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

(* ------------------------------ counters ------------------------------- *)

let counters () = (Obs.Metrics.snapshot ()).Obs.Metrics.counters

(* [counter_delta before after name] — growth of one process-wide counter. *)
let counter_delta before after name =
  let get l = match List.assoc_opt name l with Some v -> v | None -> 0 in
  get after - get before

let with_counters (f : unit -> 'a) : 'a * (string -> int) =
  let before = counters () in
  let v = f () in
  let after = counters () in
  (v, counter_delta before after)

(* --------------------------- files and places -------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Everything a run writes lives under [state_dir], relative to the
   checkout root the benchmark runs from. *)
let state_dir = ".bench_run"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Peak resident set of a process, in MB (VmHWM of /proc/PID/status). *)
let peak_rss_mb ?(pid = "self") () : float =
  (* /proc files report length 0, so read line by line. *)
  let read_lines path =
    let ic = open_in path in
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> String.concat "\n" (go []))
  in
  match read_lines (Printf.sprintf "/proc/%s/status" pid) with
  | exception _ -> 0.0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)

(* ----------------------------- work counts ----------------------------- *)

(* Deterministic work counts (solver nodes, profiled candidates, compiled
   kernels) for one unit of work. They must not change between two runs on
   the same seed: a difference means something nondeterministic bound, such
   as the ILP's CPU-time safety net. Each run compares against the record
   an earlier run on the same seed left in the checkout, then rewrites it. *)
let record_work (a : args) ~(mode : string) (counts : (string * int) list) : unit =
  let path =
    Filename.concat state_dir
      (Printf.sprintf "work/%s-%s-seed%d.json" a.workload mode a.seed)
  in
  let doc =
    Obs.Jsonw.to_string (Obs.Jsonw.Obj (List.map (fun (k, v) -> (k, Obs.Jsonw.Int v)) counts))
  in
  (match read_file path with
  | exception Sys_error _ -> ()
  | prev -> (
    match Onnx.Json.of_string prev with
    | exception Onnx.Json.Parse_error _ -> ()
    | Onnx.Json.Obj fields ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k fields with
          | Some (Onnx.Json.Num p) when int_of_float p <> v ->
            fail "work count %s = %d differs from %d in an earlier run on seed %d" k v
              (int_of_float p) a.seed
          | _ -> ())
        counts
    | _ -> ()));
  say "work counts: %s"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts));
  write_file path doc

(* ------------------------------ reporting ------------------------------ *)

(* "name = value unit (n=…)" — every percentile is stated with its count. *)
let report_latency ~name ~(samples : float list) =
  let n = List.length samples in
  let q, v = Bstats.tail samples in
  say "%-22s p50 %.3f ms, %s %.3f ms (n=%d)" name (Bstats.median samples)
    (Bstats.quantile_label q) v n

(* Self-time table of a traced run, one row per span name, and the part of
   [total_ms] that no span covers. Returns that remainder. *)
let report_self_times ~(title : string) ~(total_ms : float) (nodes : Selftime.node list) : float =
  let rows = Selftime.self_by_name nodes in
  let pct ms = if total_ms > 0.0 then 100.0 *. ms /. total_ms else 0.0 in
  say "self time per layer, %s (total %.1f ms):" title total_ms;
  List.iter
    (fun (name, us) -> say "  %-28s %10.2f ms %6.1f%%" name (us /. 1000.0) (pct (us /. 1000.0)))
    (List.sort (fun (_, a) (_, b) -> compare b a) rows);
  let rest = total_ms -. (List.fold_left (fun acc (_, us) -> acc +. us) 0.0 rows /. 1000.0) in
  say "  %-28s %10.2f ms %6.1f%%" "(outside any span)" rest (pct rest);
  rest

(* State the tracing overhead: traced time against the mean of an untraced
   round before and one after it, so drift cancels. Returns the ratio. *)
let report_overhead ~(traced_ms : float) ~(before_ms : float) ~(after_ms : float) : float =
  let untraced_ms = (before_ms +. after_ms) /. 2.0 in
  let r = ratio (traced_ms -. untraced_ms) untraced_ms in
  say "tracing overhead: traced %.1f ms vs untraced %.1f ms (%+.2f%%)" traced_ms untraced_ms
    (100.0 *. r);
  r

let seeded (a : args) salt = Random.State.make [| a.seed; salt |]

(* Fisher-Yates shuffle of a list under [rng]. *)
let shuffle rng (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Seeded inputs for every graph input of a primitive graph. *)
let seeded_inputs rng (g : Ir.Primgraph.t) : (string * Tensor.Nd.t) list =
  Array.to_list g.Ir.Graph.nodes
  |> List.filter_map (fun (nd : _ Ir.Graph.node) ->
         match nd.Ir.Graph.op with
         | Ir.Primitive.Input name ->
           Some
             ( name,
               Tensor.Nd.randn (Tensor.Rng.create (Random.State.bits rng lor 1)) nd.Ir.Graph.shape
             )
         | _ -> None)

(* Bitwise equality of two output lists. *)
let same_outputs (a : Tensor.Nd.t list) (b : Tensor.Nd.t list) : bool =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Tensor.Shape.equal (Tensor.Nd.shape x) (Tensor.Nd.shape y)
         &&
         let ok = ref true in
         for i = 0 to Tensor.Nd.numel x - 1 do
           if
             Int64.bits_of_float (Tensor.Nd.get_linear x i)
             <> Int64.bits_of_float (Tensor.Nd.get_linear y i)
           then ok := false
         done;
         !ok)
       a b

(* The orchestration config every workload uses: the defaults with one
   job, for V100/FP32 (the paper's evaluation platform). *)
let orch_config =
  {
    Korch.Orchestrator.default_config with
    Korch.Orchestrator.spec = Gpu.Spec.v100;
    precision = Gpu.Precision.FP32;
    jobs = 1;
  }

(* --------------------------- traced analysis --------------------------- *)

(* Collect the spans recorded by [f] (library spans and benchmark spans)
   and their self times. *)
let traced (f : unit -> 'a) : 'a * Selftime.node list =
  Obs.Trace.start ();
  let v =
    match f () with
    | v ->
      Obs.Trace.stop ();
      v
    | exception e ->
      Obs.Trace.stop ();
      raise e
  in
  (v, Selftime.analyze (Obs.Trace.events ()))

let self_ms nodes name =
  List.fold_left
    (fun acc (n : Selftime.node) ->
      if n.Selftime.ev.Obs.Trace.name = name then acc +. n.Selftime.self_us else acc)
    0.0 nodes
  /. 1000.0

let total_ms nodes name =
  List.fold_left
    (fun acc (n : Selftime.node) ->
      if n.Selftime.ev.Obs.Trace.name = name then acc +. n.Selftime.ev.Obs.Trace.dur_us else acc)
    0.0 nodes
  /. 1000.0

(* Per-layer metrics of the optimizer from the library's own spans
   (orchestrate, segment, transform, identify, solve, ilp.solve, stitch,
   verify, fission, partition.split) and counters, over whatever
   orchestrations [nodes] and [delta] cover. Times are self times in ms. *)
let optimizer_layers ~(nodes : Selftime.node list) ~(delta : string -> int) : metric list =
  let c name = float_of_int (delta name) in
  let orchestrate_ms = total_ms nodes "fission" +. total_ms nodes "orchestrate" in
  let ilp_ms = self_ms nodes "ilp.solve" in
  let profiled = c "profile_cache.hits" +. c "profile_cache.misses" in
  [
    m "fission.ms" "ms" (self_ms nodes "fission");
    m "partition.ms" "ms" (self_ms nodes "partition.split");
    m "partition.segments" "count" (c "partition.segments");
    m "transform.ms" "ms" (self_ms nodes "transform");
    m "identify.ms" "ms" (self_ms nodes "identify");
    m "identify.states" "count" (c "identifier.states");
    m "identify.profiled" "count" profiled;
    m "identify.accept_ratio" "ratio" (ratio (c "identifier.candidates_accepted") profiled);
    m "identify.prefiltered" "count" (c "identifier.candidates_prefiltered");
    m "profile_cache.hit_ratio" "ratio" (ratio (c "profile_cache.hits") profiled);
    m "orchestrator.candidates_pruned" "count" (c "orchestrator.candidates_pruned");
    m "ilp.ms" "ms" ilp_ms;
    m "ilp.share" "ratio" (ratio ilp_ms orchestrate_ms);
    m "ilp.solves" "count" (c "ilp.solves");
    m "ilp.nodes" "count" (c "ilp.nodes");
    m "ilp.nodes_per_s" "1/s" (ratio (c "ilp.nodes") (ilp_ms /. 1000.0));
    m "ilp.useful_ratio" "ratio"
      (ratio (c "orchestrator.tier.optimal" +. c "orchestrator.tier.incumbent") (c "ilp.solves"));
    m "ilp.time_limit_hits" "count" (c "ilp.time_limit_hits");
    m "ilp.formulate_ms" "ms" (self_ms nodes "solve");
    m "tier.optimal" "count" (c "orchestrator.tier.optimal");
    m "tier.incumbent" "count" (c "orchestrator.tier.incumbent");
    m "tier.degraded" "count" (c "orchestrator.tier.greedy" +. c "orchestrator.tier.unfused");
    m "stitch.ms" "ms" (self_ms nodes "stitch");
    m "verify.ms" "ms" (self_ms nodes "verify");
    m "orchestrate.other_ms" "ms" (self_ms nodes "orchestrate" +. self_ms nodes "segment");
    m "orchestrate.ms" "ms" orchestrate_ms;
  ]

(* Write the span export of a traced run next to the run's other state. *)
let export_trace (a : args) (nodes : Selftime.node list) =
  let path =
    Filename.concat state_dir (Printf.sprintf "trace-%s-seed%d.json" a.workload a.seed)
  in
  write_file path (Obs.Jsonw.to_string (Selftime.export nodes));
  say "span export: %s (%d spans; load it in ui.perfetto.dev)" path (List.length nodes)

let build_model ~small name : Ir.Opgraph.t =
  match Models.Registry.find name with
  | None -> failwith ("unknown zoo model " ^ name)
  | Some e ->
    Fission.Canonicalize.fold_batch_norms
      (if small then e.Models.Registry.build_small () else e.Models.Registry.build ~batch:1 ())
