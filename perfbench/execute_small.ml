(* execute-small: executing orchestrated plans on both backends.

   Set-up orchestrates test-scale candy, yolov4 and decode, compiles their
   native kernels into a fresh kernel-cache directory (each kernel is
   checked against the interpreter before first use) and computes
   reference outputs on seeded inputs with the interpreter. The timed part
   is a closed loop of sweeps, each executing every model's plan once in a
   seeded order, a native sweep and an interpreter sweep (reuse off) in
   turn. The optimizer runs only in set-up, so executor, codegen and
   tensor changes show here, and an ILP change should move only setup_s.

   Native outputs must be bit-identical to the reference, with no kernel
   falling back to the interpreter. *)

let models = [ "candy"; "yolov4"; "decode" ]

type model = {
  name : string;
  graph : Ir.Primgraph.t;
  plan : Runtime.Plan.t;
  inputs : (string * Tensor.Nd.t) list;
  reference : Tensor.Nd.t list;
}

type setup = { ms : model list; warmup_ms : float; setup_counts : string -> int }

let setup (a : Bench.args) ~(dir : string) : setup =
  (* A fresh kernel cache: every kernel is compiled and verified again. *)
  Bench.rm_rf dir;
  Codegen.Kernel_cache.default_instance := Some (Codegen.Kernel_cache.create ~dir ());
  Codegen.Native.reset_verdicts ();
  let rng = Bench.seeded a 2 in
  let (ms, warmup_ms), delta =
    Bench.with_counters @@ fun () ->
    let ms =
      List.map
        (fun name ->
          let g =
            Bench.span ~id:name "Models.Registry.build" (fun () -> Bench.build_model ~small:true name)
          in
          let r =
            Bench.span ~id:name "Orchestrator.run" (fun () -> Korch.Orchestrator.run Bench.orch_config g)
          in
          Bench.check (r.Korch.Orchestrator.degraded_segments = []) "%s: degraded segments" name;
          let graph = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
          let inputs = Bench.seeded_inputs rng graph in
          let reference =
            Bench.span ~id:name "Executor.run.interp" (fun () ->
                Runtime.Executor.run ~backend:Runtime.Backend.Interp graph plan ~inputs)
          in
          { name; graph; plan; inputs; reference })
        models
    in
    (* The first native execution compiles and verifies every kernel. *)
    let (), warmup_s =
      Bench.timed (fun () ->
          List.iter
            (fun md ->
              let stats = Runtime.Backend.fresh_exec_stats () in
              let outs =
                Bench.span ~id:md.name "Executor.run.native" (fun () ->
                    Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:stats md.graph
                      md.plan ~inputs:md.inputs)
              in
              Bench.check (stats.Runtime.Backend.fallbacks = []) "%s: %d kernel(s) fell back" md.name
                (List.length stats.Runtime.Backend.fallbacks);
              Bench.check (Bench.same_outputs outs md.reference) "%s: native warm-up output differs"
                md.name)
            ms)
    in
    (ms, 1000.0 *. warmup_s)
  in
  { ms; warmup_ms; setup_counts = delta }

type native_sweep = {
  n_total_ms : float;
  n_kernel_ms : float;
  n_fallbacks : int;
  per_model : (string * float) list;
}

(* One native sweep; checks every output and the fallback count. *)
let native_sweep ~rng ~(sweep : int) (s : setup) : native_sweep =
  let per =
    List.map
      (fun md ->
        Bench.attempt ();
        let stats = Runtime.Backend.fresh_exec_stats () in
        let outs, dt =
          Bench.timed (fun () ->
              Bench.span ~id:(Printf.sprintf "sweep%d.%s" sweep md.name) "Executor.run.native"
                (fun () ->
                  Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:stats md.graph
                    md.plan ~inputs:md.inputs))
        in
        let kernel_us = Bstats.sum (List.map snd stats.Runtime.Backend.kernel_times_us) in
        if stats.Runtime.Backend.fallbacks <> [] then
          Bench.fail "%s: %d kernel(s) fell back to the interpreter" md.name
            (List.length stats.Runtime.Backend.fallbacks)
        else if not (Bench.same_outputs outs md.reference) then
          Bench.fail "%s: native output differs from the reference" md.name;
        (md.name, 1000.0 *. dt, kernel_us /. 1000.0, List.length stats.Runtime.Backend.fallbacks))
      (Bench.shuffle rng s.ms)
  in
  {
    n_total_ms = Bstats.sum (List.map (fun (_, t, _, _) -> t) per);
    n_kernel_ms = Bstats.sum (List.map (fun (_, _, k, _) -> k) per);
    n_fallbacks = List.fold_left (fun acc (_, _, _, f) -> acc + f) 0 per;
    per_model = List.map (fun (n, t, _, _) -> (n, t)) per;
  }

(* One interpreter sweep (reuse off, or on with arena accounting). *)
let interp_sweep ?stats ~rng ~(sweep : int) ~(reuse : bool) (s : setup) : float =
  let name = if reuse then "Executor.run.reuse" else "Executor.run.interp" in
  Bstats.sum
    (List.map
       (fun md ->
         Bench.attempt ();
         let outs, dt =
           Bench.timed (fun () ->
               Bench.span ~id:(Printf.sprintf "sweep%d.%s" sweep md.name) name (fun () ->
                   Runtime.Executor.run ~backend:Runtime.Backend.Interp ~reuse ?stats md.graph md.plan
                     ~inputs:md.inputs))
         in
         if not (Bench.same_outputs outs md.reference) then
           Bench.fail "%s: %s output differs from the reference" md.name name;
         1000.0 *. dt)
       (Bench.shuffle rng s.ms))

(* Sweeps of one kind until [seconds] elapse, at least [min] of them. *)
let sweeps ~seconds ~min (f : int -> 'a) : 'a list =
  let t0 = Bench.now_s () in
  let rec go i acc =
    if i < min || Bench.now_s () -. t0 < seconds then go (i + 1) (f i :: acc) else List.rev acc
  in
  go 0 []

(* The traced run's fixed unit of work: ten native sweeps, three
   interpreter sweeps and three interpreter sweeps with arena reuse. *)
type round = { native : native_sweep list; interp : float list; reuse : float list }

let fixed_round ?stats ~rng ~(base : int) (s : setup) : round =
  let native = List.init 10 (fun i -> native_sweep ~rng ~sweep:(base + i) s) in
  let interp = List.init 3 (fun i -> interp_sweep ~rng ~sweep:(base + 10 + i) ~reuse:false s) in
  let reuse = List.init 3 (fun i -> interp_sweep ?stats ~rng ~sweep:(base + 13 + i) ~reuse:true s) in
  { native; interp; reuse }

let round_ms r =
  Bstats.sum (List.map (fun w -> w.n_total_ms) r.native) +. Bstats.sum r.interp +. Bstats.sum r.reuse

(* Per-layer metrics: the optimizer's from the traced set-up, the
   executor's from one traced round between two untraced ones. *)
let layers (a : Bench.args) (s : setup) ~rng ~(setup_s : float) ~(setup_nodes : Selftime.node list)
    : Bench.metric list =
  let stats = Runtime.Executor.fresh_stats () in
  let before = fixed_round ~rng ~base:0 s in
  let traced, nodes = Bench.traced (fun () -> fixed_round ~stats ~rng ~base:100 s) in
  let after = fixed_round ~rng ~base:200 s in
  let traced_ms = round_ms traced in
  Bench.export_trace a (setup_nodes @ nodes);
  ignore (Bench.report_self_times ~title:"set-up" ~total_ms:(1000.0 *. setup_s) setup_nodes);
  let rest =
    Bench.report_self_times ~title:"10 native + 3 interp + 3 reuse sweeps" ~total_ms:traced_ms nodes
  in
  let overhead =
    Bench.report_overhead ~traced_ms ~before_ms:(round_ms before) ~after_ms:(round_ms after)
  in
  let med f = Bstats.median (List.map f traced.native) in
  let per_model name = med (fun w -> List.assoc name w.per_model) in
  let evals = float_of_int stats.Runtime.Executor.evals in
  let delta = s.setup_counts in
  let count k = Bench.m k "count" (float_of_int (delta k)) in
  Bench.optimizer_layers ~nodes:setup_nodes ~delta
  @ [
      Bench.m "executor.native.kernel_ms" "ms" (med (fun w -> w.n_kernel_ms));
      Bench.m "executor.native.glue_ms" "ms" (med (fun w -> w.n_total_ms -. w.n_kernel_ms));
      Bench.m "executor.native.fallbacks" "count"
        (float_of_int
           (List.fold_left (fun acc w -> acc + w.n_fallbacks) 0
              (before.native @ traced.native @ after.native)));
      Bench.m "executor.interp.ms" "ms" (Bstats.median traced.interp);
      Bench.m "executor.reuse.ms" "ms" (Bstats.median traced.reuse);
      Bench.m "executor.reuse.into_ratio" "ratio"
        (Bench.ratio (float_of_int stats.Runtime.Executor.into_evals) evals);
      Bench.m "executor.reuse.fresh_elems" "count"
        (float_of_int stats.Runtime.Executor.fresh_elems /. float_of_int (List.length traced.reuse));
      Bench.m "infer.candy.native_ms" "ms" (per_model "candy");
      Bench.m "infer.yolov4.native_ms" "ms" (per_model "yolov4");
      Bench.m "infer.decode.native_ms" "ms" (per_model "decode");
      count "codegen.compiles";
      Bench.m "codegen.compile_ms" "ms" s.warmup_ms;
      count "codegen.verify.passed";
      count "codegen.verify.rejected";
      Bench.m "trace.overhead_ratio" "ratio" overhead;
      Bench.m "trace.unaccounted_ms" "ms" rest;
    ]

let run (a : Bench.args) : Bench.outcome =
  let dir = Filename.concat Bench.state_dir (Printf.sprintf "kernels-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> Bench.rm_rf dir) @@ fun () ->
  let run_setup () = Bench.timed_adjusted (fun () -> setup a ~dir) in
  let (s, setup_s, setup_ref_s), setup_nodes =
    if a.Bench.trace then Bench.traced run_setup else (run_setup (), [])
  in
  Bench.say "set-up %.2f s, %.2f s at the reference speed (kernel compile and verify %.0f ms)" setup_s
    setup_ref_s s.warmup_ms;
  Bench.record_work a ~mode:"setup"
    (List.map
       (fun k -> (k, s.setup_counts k))
       [ "ilp.nodes"; "ilp.solves"; "codegen.compiles"; "codegen.verify.passed" ]);
  let rng = Bench.seeded a 3 in
  if a.Bench.trace then
    let layers = layers a s ~rng ~setup_s ~setup_nodes in
    { Bench.attempted = !Bench.attempted; failed = !Bench.failed; e2e = []; layers }
  else begin
    (* A native sweep and an interpreter sweep alternate, so a change of
       host speed during the run reaches both metrics alike; each pair is
       rescaled to the reference speed. *)
    let rounds =
      sweeps ~seconds:a.Bench.seconds ~min:10 (fun i ->
          Bench.speed_factor (fun () ->
              let n = native_sweep ~rng ~sweep:i s in
              (n, interp_sweep ~rng ~sweep:i ~reuse:false s)))
    in
    let native_ms = List.map (fun ((w, _), k) -> w.n_total_ms *. k) rounds in
    let interp = List.map (fun ((_, t), k) -> t *. k) rounds in
    Bench.report_latency ~name:"native sweep" ~samples:native_ms;
    Bench.report_latency ~name:"native sweep, wall-clock"
      ~samples:(List.map (fun ((w, _), _) -> w.n_total_ms) rounds);
    Bench.report_latency ~name:"interp sweep" ~samples:interp;
    Bench.report_latency ~name:"interp sweep, wall-clock" ~samples:(List.map (fun ((_, t), _) -> t) rounds);
    {
      Bench.attempted = !Bench.attempted;
      failed = !Bench.failed;
      e2e =
        [
          Bench.m "setup_s" "s" setup_ref_s;
          Bench.m "op_p50_ms" "ms" (Bstats.median native_ms);
          Bench.m "op_tail_ms" "ms" (snd (Bstats.tail native_ms));
          Bench.m "alt_p50_ms" "ms" (Bstats.median interp);
          Bench.m "peak_rss_mb" "MB" (Bench.peak_rss_mb ());
        ];
      layers = [];
    }
  end
