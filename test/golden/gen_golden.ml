(* Renders every round-tripped JSON document for fixed inputs, one file
   each; test/golden/dune compares each file with its committed copy byte
   for byte. *)

let write name doc =
  Out_channel.with_open_bin name (fun oc ->
      output_string oc doc;
      output_char oc '\n')

let cfg = Korch.Orchestrator.default_config

let small (e : Models.Registry.entry) ~batch = e.Models.Registry.build_small ~batch ()

(* Replays [Orchestrator.run_primgraph] at one job, segment by segment,
   and renders one JSON line per segment: the path the segment solver
   chose, its cost and the states it settled. Any change to the search
   (its state space, tie-breaking or pruning) shows here even when the
   plan survives it. *)
let path_search (model, g) =
  let pg, _ = Fission.Engine.run g in
  let cache = Gpu.Profile_cache.create () in
  let segment i seg =
    let r = Korch.Orchestrator.solve_segment cfg ~cache ~seg_index:i seg in
    Obs.Jsonw.to_string
      (Obs.Jsonw.Obj
         [
           ("model", Obs.Jsonw.Str model);
           ("seg", Obs.Jsonw.Int i);
           ( "selected",
             Obs.Jsonw.List (List.map (fun c -> Obs.Jsonw.Int c) r.Korch.Orchestrator.selected) );
           ("latency_us", Obs.Jsonw.Str (Printf.sprintf "%h" r.Korch.Orchestrator.latency_us));
           ("settled", Obs.Jsonw.Int r.Korch.Orchestrator.settled_states);
         ])
  in
  List.mapi segment (Korch.Partition.split pg ~max_prims:cfg.Korch.Orchestrator.partition_max_prims)

(* One operator graph and one primitive graph holding every constructor,
   every unary, binary and aggregator and every constant fill, one node
   each over a single input; shapes are not inferred. Zoo round trips
   cannot catch a mistyped tag, because a codec reads what it writes. *)
let graph_docs () =
  let open Ir in
  let s = [| 2; 2 |] in
  let consts =
    Const.
      [ zeros s; ones s; value s 0.25; randn s 7; randn_scaled s 11 0.125;
        of_nd (Tensor.Nd.of_array s [| 1.5; -2.25; 0.0; 1e-7 |]);
        apply s (Primitive.Binary Add) [ randn s 7; apply s (Primitive.Unary Neg) [ ones s ] ] ]
  in
  let graph input constant ops =
    let b = Graph.Builder.create () in
    let x = Graph.Builder.add b input [] [| 1; 4 |] in
    let cs = List.map (fun c -> Graph.Builder.add b (constant c) [] c.Const.shape) consts in
    let os = List.map (fun op -> Graph.Builder.add b op [ x ] [| 1; 4 |]) ops in
    Graph.Builder.set_outputs b (cs @ os);
    Graph.Builder.finish b
  in
  let pool = ((3, 3), (2, 2), (1, 0)) in
  let opgraph : Opgraph.t =
    let kernel, stride, padding = pool in
    graph (Optype.Input "x") (fun c -> Optype.Constant c)
      Optype.
        [ Relu; LeakyRelu 0.1; Sigmoid; Silu; Mish; Tanh; Gelu; Erf; Exp; Log; Sqrt; Neg; Square;
          Add; Sub; Mul; Div; Pow; Softmax (-1); InstanceNorm 1e-5; LayerNorm 1e-6;
          BatchNormInference 1e-3; ReduceSum { axis = 1; keepdims = true };
          ReduceMean { axis = 0; keepdims = false }; ReduceMax { axis = -1; keepdims = true };
          MaxPool { kernel; stride; padding }; AvgPool { kernel; stride; padding }; GlobalAvgPool;
          Transpose [| 1; 0 |]; Reshape [| 4; 1 |];
          Pad { before = [| 0; 1 |]; after = [| 2; 0 |]; value = -0.5 };
          Slice { starts = [| 0; 1 |]; stops = [| 1; 3 |] }; Concat 1; MatMul;
          Conv { stride = (1, 2); padding = (0, 1); bias = true };
          Conv { stride = (1, 1); padding = (0, 0); bias = false }; Upsample 2; TopK 3 ]
  in
  let primgraph : Primgraph.t =
    let kernel, stride, padding = pool in
    let unaries =
      Primitive.
        [ Exp; Log; Sqrt; Rsqrt; Neg; Abs; Square; Reciprocal; Relu; LeakyRelu 0.2; Sigmoid; Silu;
          Mish; Tanh; Erf; Gelu; AddConst 1.5; MulConst (-3.0); PowConst 0.5; Clip (-1.0, 6.0) ]
    in
    let aggs = Primitive.[ Sum; Mean; Max; Min; Prod ] in
    graph (Primitive.Input "x") (fun c -> Primitive.Constant c)
      (List.map (fun u -> Primitive.Unary u) unaries
      @ List.map (fun b -> Primitive.Binary b) Primitive.[ Add; Sub; Mul; Div; Max; Min; Pow ]
      @ List.map (fun a -> Primitive.Reduce (a, 1)) aggs
      @ List.map (fun agg -> Primitive.Pool { agg; kernel; stride; padding }) aggs
      @ Primitive.
          [ Broadcast (2, 3); Transpose [| 1; 0 |]; Reshape [| 4; 1 |];
            Pad { before = [| 0; 1 |]; after = [| 2; 0 |]; value = 0.75 };
            Slice { starts = [| 0; 1 |]; stops = [| 1; 3 |] }; Concat 0; Matmul;
            Conv { stride = (2, 1); padding = (1, 0) }; Upsample 3; Opaque "TopK" ])
  in
  (* Each line is a document read back and written again, so the file
     pins the reader as well as the writer. *)
  [ Onnx.Graph_doc.opgraph_to_string
      (Onnx.Graph_doc.opgraph_of_string (Onnx.Graph_doc.opgraph_to_string opgraph));
    Onnx.Graph_doc.primgraph_to_string
      (Onnx.Graph_doc.primgraph_of_string (Onnx.Graph_doc.primgraph_to_string primgraph)) ]

let () =
  write "graph_docs.out" (String.concat "\n" (graph_docs ()));
  let candy = small Models.Registry.candy ~batch:1 in
  let r = Korch.Orchestrator.run cfg candy in
  let plan = r.Korch.Orchestrator.plan in
  write "candy_plan.out" (Obs.Jsonw.to_string (Korch.Report.plan_to_json plan));
  let table =
    Korch.Plan_table.build cfg ~model:"decode" ~build:(small Models.Registry.decode) ~lo:1 ~hi:2
  in
  write "decode_table.out" (Korch.Report.plan_table_json_string table);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "korch-golden-%d" (Unix.getpid ()))
  in
  let cache = Serve.Plan_cache.create ~dir () in
  let key = Serve.Plan_cache.key ~graph:candy ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final ~graph:r.Korch.Orchestrator.graph
    ~plan ~report:{|{"schema":"korch-report/1","kernels":61,"plan_latency_us":3084.8214378656335,"meta":{"model":"candy \"small\""}}|};
  let tkey =
    Serve.Plan_cache.table_key ~graph:(small Models.Registry.decode ~batch:1) ~gpu:"V100"
      ~precision:"fp32" ~lo:1 ~hi:2
  in
  Serve.Plan_cache.store_table cache tkey table;
  let read path = In_channel.with_open_bin path In_channel.input_all in
  write "cache_plan_entry.out" (read (Serve.Plan_cache.entry_path cache key));
  write "cache_table_entry.out" (read (Serve.Plan_cache.table_path cache tkey));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  write "path_search.out"
    (String.concat "\n"
       (List.concat_map path_search
          [ ("candy", candy); ("decode", small Models.Registry.decode ~batch:1) ]));
  write "request.out"
    (Obs.Jsonw.to_string
       (Serve.Protocol.request_to_json
          {
            Serve.Protocol.verb = "run";
            model = Some "candy";
            graph_doc = Some {|{"format":"korch-onnx-json","kind":"operator"}|};
            small = true;
            batch = 4;
            gpu = Some "A100";
            precision = Some "tf32";
            deadline_ms = Some 7.5;
            backend = Some "native";
            no_cache = true;
            batch_lo = Some 1;
            batch_hi = Some 16;
          }));
  write "bench.out"
    (Obs.Jsonw.to_string
       (Onnx.Codec.encode Korch.Report.bench_codec
          [
            {
              Korch.Report.experiment = "smoke";
              model = "candy";
              gpu = Gpu.Spec.v100.Gpu.Spec.name;
              precision = Gpu.Precision.to_string Gpu.Precision.FP32;
              latency_us = plan.Runtime.Plan.total_latency_us;
              kernels = Runtime.Plan.kernel_count plan;
              redundancy = Runtime.Plan.redundancy plan;
              candidates = r.Korch.Orchestrator.total_candidates;
              states = r.Korch.Orchestrator.total_states;
              peak_mem_bytes = r.Korch.Orchestrator.memory.Runtime.Memplan.peak_bytes;
              degraded_segments = List.length r.Korch.Orchestrator.degraded_segments;
            };
          ]))
