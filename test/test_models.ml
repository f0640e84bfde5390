(* Tests for the model zoo: structural validity at evaluation scale,
   expected operator mix per architecture, builder helpers, determinism. *)

open Ir

let ops_of (g : Opgraph.t) = Array.to_list (Array.map (fun nd -> nd.Graph.op) g.Graph.nodes)

let count p g = List.length (List.filter p (ops_of g))

let has p g = count p g > 0

(* ---------------- registry ---------------- *)

let test_registry_complete () =
  Alcotest.(check int) "five paper workloads (§6.1) + decode" 6
    (List.length Models.Registry.all);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Models.Registry.find name <> None))
    [ "candy"; "yolov4"; "yolox"; "segformer"; "efficientvit"; "decode" ];
  Alcotest.(check bool) "unknown rejected" true (Models.Registry.find "resnet" = None)

(* Regression: builders silently accepted batch <= 0; the registry
   boundary must reject it for every model, naming the model. *)
let test_batch_validation () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let expect_reject (build : ?batch:int -> unit -> Opgraph.t) batch =
        match build ~batch () with
        | (_ : Opgraph.t) ->
          Alcotest.fail (Printf.sprintf "%s accepted batch %d" e.Models.Registry.name batch)
        | exception Invalid_argument m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s error names the model" e.Models.Registry.name)
            true
            (let sub = Printf.sprintf "%S" e.Models.Registry.name in
             let rec contains i =
               i + String.length sub <= String.length m
               && (String.sub m i (String.length sub) = sub || contains (i + 1))
             in
             contains 0)
      in
      expect_reject e.Models.Registry.build 0;
      expect_reject e.Models.Registry.build (-3);
      expect_reject e.Models.Registry.build_small 0)
    Models.Registry.all

let test_paper_scale_graphs_valid () =
  (* Building at evaluation scale must produce valid graphs. The vision
     workloads take a single image input of the paper's resolution;
     decode takes the four serving inputs and its "resolution" is the
     attention context length (cache + the new token). *)
  List.iter
    (fun e ->
      let g = e.Models.Registry.build () in
      Graph.validate g;
      let inputs =
        List.filter_map
          (fun op -> match op with Optype.Input n -> Some n | _ -> None)
          (ops_of g)
      in
      if e.Models.Registry.name = "decode" then begin
        Alcotest.(check (list string)) "decode serving inputs"
          [ "hidden"; "past_k"; "past_v"; "len_mask" ]
          inputs;
        let mask =
          Array.to_list g.Graph.nodes
          |> List.find (fun nd -> nd.Graph.op = Optype.Input "len_mask")
        in
        Alcotest.(check int) "decode context length" e.Models.Registry.paper_resolution
          mask.Graph.shape.(3)
      end
      else begin
        Alcotest.(check (list string)) (e.Models.Registry.name ^ " single input")
          [ "input" ] inputs;
        let input_node =
          Array.to_list g.Graph.nodes
          |> List.find (fun nd -> match nd.Graph.op with Optype.Input _ -> true | _ -> false)
        in
        Alcotest.(check int)
          (e.Models.Registry.name ^ " resolution")
          e.Models.Registry.paper_resolution
          input_node.Graph.shape.(2)
      end)
    Models.Registry.all

let test_batch_parameter () =
  let g = Models.Registry.segformer.Models.Registry.build ~batch:4 () in
  let input =
    Array.to_list g.Graph.nodes
    |> List.find (fun nd -> match nd.Graph.op with Optype.Input _ -> true | _ -> false)
  in
  Alcotest.(check int) "batch dim" 4 input.Graph.shape.(0)

(* ---------------- decode workload ---------------- *)

let test_decode_structure () =
  let g = Models.Registry.decode.Models.Registry.build_small ~batch:2 () in
  Alcotest.(check bool) "KV-cache append (Concat)" true
    (has (function Optype.Concat _ -> true | _ -> false) g);
  Alcotest.(check bool) "GELU MLP" true (has (( = ) Optype.Gelu) g);
  Alcotest.(check bool) "masked attention (Softmax)" true
    (has (function Optype.Softmax _ -> true | _ -> false) g);
  Alcotest.(check int) "hidden + appended K/V published" 3 (List.length g.Graph.outputs)

(* The ragged-batch mask convention: a cache position whose len_mask
   entry is the large-negative sentinel must not influence the hidden
   output — its K/V values can be arbitrary garbage. The appended-cache
   outputs DO carry the garbage through; only attention is masked. *)
let test_decode_mask_property () =
  let batch = 2 and heads = 2 and head_dim = 4 and past_len = 3 in
  let d = heads * head_dim in
  let g = Models.Decode.build ~batch ~heads ~head_dim ~past_len ~mlp_ratio:2 () in
  let rng = Tensor.Rng.create 42 in
  let hidden = Tensor.Nd.randn rng [| batch; 1; d |] in
  let past_k = Tensor.Nd.randn rng [| batch; heads; past_len; head_dim |] in
  let past_v = Tensor.Nd.randn rng [| batch; heads; past_len; head_dim |] in
  (* Disable cache position 1 for every sequence. *)
  let len_mask =
    Tensor.Nd.create [| batch; 1; 1; past_len + 1 |] (fun k ->
        if k mod (past_len + 1) = 1 then -1e9 else 0.0)
  in
  let run ~k ~v =
    Runtime.Interp.run g
      ~inputs:[ ("hidden", hidden); ("past_k", k); ("past_v", v); ("len_mask", len_mask) ]
  in
  let scramble t =
    let t' = Tensor.Nd.copy t in
    for b = 0 to batch - 1 do
      for h = 0 to heads - 1 do
        for j = 0 to head_dim - 1 do
          Tensor.Nd.set t' [| b; h; 1; j |] (1e6 +. float_of_int ((b * 100) + (h * 10) + j))
        done
      done
    done;
    t'
  in
  match (run ~k:past_k ~v:past_v, run ~k:(scramble past_k) ~v:(scramble past_v)) with
  | [ out1; k1; _v1 ], [ out2; k2; _v2 ] ->
    Alcotest.(check bool) "masked position cannot affect the hidden output" true
      (Tensor.Nd.equal out1 out2);
    Alcotest.(check bool) "appended cache does carry the scrambled values" false
      (Tensor.Nd.equal k1 k2)
  | _ -> Alcotest.fail "decode must publish exactly three outputs"

let test_decode_interp_runs () =
  let g = Models.Registry.decode.Models.Registry.build_small ~batch:3 () in
  let heads = 2 and head_dim = 8 and past_len = 7 in
  let d = heads * head_dim in
  let rng = Tensor.Rng.create 7 in
  let inputs =
    [
      ("hidden", Tensor.Nd.randn rng [| 3; 1; d |]);
      ("past_k", Tensor.Nd.randn rng [| 3; heads; past_len; head_dim |]);
      ("past_v", Tensor.Nd.randn rng [| 3; heads; past_len; head_dim |]);
      ("len_mask", Tensor.Nd.zeros [| 3; 1; 1; past_len + 1 |]);
    ]
  in
  match Runtime.Interp.run g ~inputs with
  | [ out; new_k; new_v ] ->
    Alcotest.(check bool) "hidden shape preserved" true
      (Tensor.Shape.equal (Tensor.Nd.shape out) [| 3; 1; d |]);
    Alcotest.(check bool) "cache grew by one position" true
      (Tensor.Shape.equal (Tensor.Nd.shape new_k) [| 3; heads; past_len + 1; head_dim |]
      && Tensor.Shape.equal (Tensor.Nd.shape new_v) [| 3; heads; past_len + 1; head_dim |]);
    List.iter
      (fun t ->
        Array.iter
          (fun v ->
            if not (Float.is_finite v) then Alcotest.fail "non-finite decode output")
          t.Tensor.Nd.data)
      [ out; new_k; new_v ]
  | _ -> Alcotest.fail "decode must publish exactly three outputs"

let test_determinism () =
  let a = Onnx.Graph_doc.opgraph_to_string (Models.Registry.candy.Models.Registry.build ()) in
  let b = Onnx.Graph_doc.opgraph_to_string (Models.Registry.candy.Models.Registry.build ()) in
  Alcotest.(check bool) "identical rebuilds" true (a = b)

(* ---------------- architecture fingerprints ---------------- *)

let test_candy_structure () =
  let g = Models.Registry.candy.Models.Registry.build () in
  Alcotest.(check bool) "instance norms" true
    (has (function Optype.InstanceNorm _ -> true | _ -> false) g);
  Alcotest.(check bool) "upsampling decoder" true
    (has (function Optype.Upsample _ -> true | _ -> false) g);
  Alcotest.(check bool) "tanh output" true (has (( = ) Optype.Tanh) g);
  Alcotest.(check bool) "reflection-style pads" true
    (has (function Optype.Pad _ -> true | _ -> false) g)

let test_yolov4_structure () =
  let g = Models.Registry.yolov4.Models.Registry.build () in
  Alcotest.(check bool) "mish backbone" true (has (( = ) Optype.Mish) g);
  Alcotest.(check bool) "leaky relu neck" true
    (has (function Optype.LeakyRelu _ -> true | _ -> false) g);
  (* SPP: three max-pools with kernels 5, 9, 13 *)
  let pools =
    List.filter_map
      (fun op -> match op with Optype.MaxPool { kernel = k, _; _ } -> Some k | _ -> None)
      (ops_of g)
  in
  Alcotest.(check (list int)) "spp pools" [ 5; 9; 13 ] (List.sort compare pools);
  Alcotest.(check int) "three detection heads" 3 (List.length g.Graph.outputs)

let test_yolox_structure () =
  let g = Models.Registry.yolox.Models.Registry.build () in
  Alcotest.(check bool) "silu activations" true (has (( = ) Optype.Silu) g);
  (* Focus stem: four slices *)
  Alcotest.(check bool) "focus slices" true
    (count (function Optype.Slice _ -> true | _ -> false) g >= 4);
  Alcotest.(check int) "three heads" 3 (List.length g.Graph.outputs)

let test_segformer_structure () =
  let g = Models.Registry.segformer.Models.Registry.build () in
  Alcotest.(check int) "four stages -> four softmaxes" 4
    (count (function Optype.Softmax _ -> true | _ -> false) g);
  Alcotest.(check bool) "layer norms" true
    (has (function Optype.LayerNorm _ -> true | _ -> false) g);
  Alcotest.(check bool) "gelu mix-ffn" true (has (( = ) Optype.Gelu) g)

let test_efficientvit_structure () =
  let g = Models.Registry.efficientvit.Models.Registry.build () in
  (* ReLU linear attention: no softmax anywhere *)
  Alcotest.(check int) "no softmax" 0 (count (function Optype.Softmax _ -> true | _ -> false) g);
  Alcotest.(check bool) "reduce-sum normalizer" true
    (has (function Optype.ReduceSum _ -> true | _ -> false) g);
  Alcotest.(check bool) "global pool head" true (has (( = ) Optype.GlobalAvgPool) g)

(* ---------------- blocks ---------------- *)

let test_blocks_attention_shapes () =
  let ctx = Models.Blocks.create () in
  let q = Opgraph.B.input ctx.Models.Blocks.b "q" [| 2; 8; 16 |] in
  let k = Opgraph.B.input ctx.Models.Blocks.b "k" [| 2; 8; 16 |] in
  let v = Opgraph.B.input ctx.Models.Blocks.b "v" [| 2; 8; 16 |] in
  let o = Models.Blocks.softmax_attention ctx q k v in
  Alcotest.(check (array int)) "softmax attention keeps shape" [| 2; 8; 16 |]
    (Opgraph.B.shape_of ctx.Models.Blocks.b o);
  let o2 = Models.Blocks.relu_linear_attention ctx q k v in
  Alcotest.(check (array int)) "linear attention keeps shape" [| 2; 8; 16 |]
    (Opgraph.B.shape_of ctx.Models.Blocks.b o2)

let test_blocks_flatten_roundtrip () =
  let open Tensor in
  let ctx = Models.Blocks.create () in
  let x = Opgraph.B.input ctx.Models.Blocks.b "x" [| 1; 3; 4; 5 |] in
  let t = Models.Blocks.flatten_spatial ctx x in
  Alcotest.(check (array int)) "tokens" [| 1; 20; 3 |]
    (Opgraph.B.shape_of ctx.Models.Blocks.b t);
  let back = Models.Blocks.unflatten_spatial ctx t ~h:4 ~w:5 in
  Opgraph.B.set_outputs ctx.Models.Blocks.b [ back ];
  let g = Opgraph.B.finish ctx.Models.Blocks.b in
  let v = Nd.randn (Rng.create 2) [| 1; 3; 4; 5 |] in
  match Runtime.Interp.run g ~inputs:[ ("x", v) ] with
  | [ out ] -> Alcotest.(check bool) "roundtrip identity" true (Nd.equal out v)
  | _ -> Alcotest.fail "arity"

let test_weight_scaling () =
  let open Tensor in
  (* conv weights are scaled by 1/sqrt(fan-in): their sample variance is
     close to 1/fan_in. *)
  let ctx = Models.Blocks.create () in
  let w = Models.Blocks.weight ctx [| 8; 16; 3; 3 |] in
  let g =
    let b = ctx.Models.Blocks.b in
    Opgraph.B.set_outputs b [ w ];
    Opgraph.B.finish b
  in
  match Runtime.Interp.run g ~inputs:[] with
  | [ t ] ->
    let n = float_of_int (Nd.numel t) in
    let var = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 t.Nd.data /. n in
    let expected = 1.0 /. (16.0 *. 9.0) in
    Alcotest.(check bool) "variance ~ 1/fan_in" true
      (var > expected /. 2.0 && var < expected *. 2.0)
  | _ -> Alcotest.fail "arity"

let () =
  Alcotest.run "models"
    [
      ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "paper scale valid" `Quick test_paper_scale_graphs_valid;
          Alcotest.test_case "batch parameter" `Quick test_batch_parameter;
          Alcotest.test_case "batch <= 0 rejected zoo-wide" `Quick test_batch_validation;
          Alcotest.test_case "deterministic" `Quick test_determinism ] );
      ( "decode",
        [ Alcotest.test_case "structure" `Quick test_decode_structure;
          Alcotest.test_case "mask hides cache positions" `Quick test_decode_mask_property;
          Alcotest.test_case "interpreter run" `Quick test_decode_interp_runs ] );
      ( "architectures",
        [ Alcotest.test_case "candy" `Quick test_candy_structure;
          Alcotest.test_case "yolov4" `Quick test_yolov4_structure;
          Alcotest.test_case "yolox" `Quick test_yolox_structure;
          Alcotest.test_case "segformer" `Quick test_segformer_structure;
          Alcotest.test_case "efficientvit" `Quick test_efficientvit_structure ] );
      ( "blocks",
        [ Alcotest.test_case "attention shapes" `Quick test_blocks_attention_shapes;
          Alcotest.test_case "flatten roundtrip" `Quick test_blocks_flatten_roundtrip;
          Alcotest.test_case "weight scaling" `Quick test_weight_scaling ] );
    ]
