(* Interpreter vs. native C backend (extension experiment).

   Orchestrates every zoo model at test scale, executes the stitched plan
   on both executor backends, and reports measured wall-clocks side by
   side. Three properties are checked while measuring:

   - outputs are bit-identical between the backends (the differential
     gate that lets the native numbers be trusted at all);
   - every kernel actually ran natively (no silent fallbacks);
   - the measured per-kernel timings land in the profile database
     ({!Gpu.Profile_cache.measured_entries}) keyed by the same canonical
     signatures the cost model profiles under — the first real
     calibration data against the modelled roofline.

   Skipped entirely (with a note) when no C compiler is on PATH. *)

let bits_equal a b =
  Tensor.Shape.equal (Tensor.Nd.shape a) (Tensor.Nd.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Tensor.Nd.data b.Tensor.Nd.data

let inputs_of (g : Ir.Opgraph.t) =
  Array.to_list g.Ir.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Ir.Graph.op with
         | Ir.Optype.Input name ->
           Some (name, Tensor.Nd.randn (Tensor.Rng.create 11) nd.Ir.Graph.shape)
         | _ -> None)

let run () =
  Bench_common.section "interpreter vs native C backend (extension)";
  if not (Codegen.Kernel_cache.available ()) then
    print_endline "  skipped: no C compiler on PATH"
  else begin
    Bench_common.row "  %-12s %12s %12s %12s %8s  %s\n" "model" "interp" "cold" "native"
      "speedup" "kernels";
    List.iter
      (fun (e : Models.Registry.entry) ->
        let g = e.Models.Registry.build_small () in
        let r = Bench_common.run_korch Bench_common.v100_fp32 g in
        let inputs = inputs_of g in
        let time f =
          let t0 = Bench_common.wall_clock () in
          let v = f () in
          (v, (Bench_common.wall_clock () -. t0) *. 1e3)
        in
        let interp_out, interp_ms =
          time (fun () ->
              Runtime.Executor.run ~backend:Runtime.Backend.Interp
                r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs)
        in
        (* The first native run pays compile and verify (the "cold"
           column); the warm second run, with its own stats, is what
           repeated inference costs. *)
        let exec_native stats () =
          Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:stats
            r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan ~inputs
        in
        let (_ : Tensor.Nd.t list), cold_ms =
          time (exec_native (Runtime.Backend.fresh_exec_stats ()))
        in
        let stats = Runtime.Backend.fresh_exec_stats () in
        let native_out, native_ms = time (exec_native stats) in
        if not (List.for_all2 bits_equal interp_out native_out) then
          failwith (Printf.sprintf "exp_native: %s outputs differ between backends" e.Models.Registry.name);
        if stats.Runtime.Backend.fallbacks <> [] then
          failwith (Printf.sprintf "exp_native: %s had native fallbacks" e.Models.Registry.name);
        let recorded =
          Korch.Calibrate.record ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32
            r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan stats
        in
        Bench_common.row "  %-12s %10.2f ms %10.2f ms %10.2f ms %7.1fx  %d native, %d timings\n"
          e.Models.Registry.name interp_ms cold_ms native_ms
          (interp_ms /. Float.max native_ms 1e-9)
          stats.Runtime.Backend.native_kernels recorded)
      Models.Registry.all;
    let entries = Gpu.Profile_cache.measured_entries () in
    Printf.printf "  profile cache now holds measured timings for %d distinct kernels\n"
      (List.length entries)
  end
