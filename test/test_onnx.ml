(* Tests for the ONNX-JSON interchange: JSON parser/printer round trips,
   operator and primitive graph round trips, error handling. *)

open Ir

(* ---------------- JSON ---------------- *)

let test_json_parse_basic () =
  let j = Onnx.Json.of_string {| {"a": 1, "b": [true, null, "x\ny"], "c": -2.5e1} |} in
  (match Onnx.Json.member "a" j with
  | Some (Onnx.Json.Num f) -> Alcotest.(check (float 0.)) "int" 1.0 f
  | _ -> Alcotest.fail "a");
  (match Onnx.Json.member "b" j with
  | Some (Onnx.Json.List [ Onnx.Json.Bool true; Onnx.Json.Null; Onnx.Json.Str s ]) ->
    Alcotest.(check string) "escape" "x\ny" s
  | _ -> Alcotest.fail "b");
  match Onnx.Json.member "c" j with
  | Some (Onnx.Json.Num f) -> Alcotest.(check (float 0.)) "sci" (-25.0) f
  | _ -> Alcotest.fail "c"

let test_json_errors () =
  let fails s =
    match Onnx.Json.of_string s with
    | _ -> Alcotest.failf "expected parse error on %s" s
    | exception Onnx.Json.Parse_error _ -> ()
  in
  fails "{";
  fails "[1,]";
  fails "{\"a\" 1}";
  fails "tru";
  fails "1 2"

let rec gen_json depth : Onnx.Json.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ return Onnx.Json.Null;
        map (fun b -> Onnx.Json.Bool b) bool;
        map (fun f -> Onnx.Json.Num (Float.round (f *. 1e6) /. 1e6)) (float_range (-1e6) 1e6);
        map (fun f -> Onnx.Json.Num f) (oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
        map (fun s -> Onnx.Json.Str s) (string_size ~gen:printable (int_range 0 10)) ]
  in
  if depth = 0 then leaf
  else
    oneof
      [ leaf;
        map (fun l -> Onnx.Json.List l) (list_size (int_range 0 4) (gen_json (depth - 1)));
        map
          (fun kvs -> Onnx.Json.Obj kvs)
          (list_size (int_range 0 4)
             (pair (string_size ~gen:printable (int_range 1 6)) (gen_json (depth - 1)))) ]

let rec json_equal (a : Onnx.Json.t) (b : Onnx.Json.t) =
  match (a, b) with
  | Onnx.Json.Num x, Onnx.Json.Num y -> Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x)
  | Onnx.Json.Num x, Onnx.Json.Null -> not (Float.is_finite x)  (* printed as null *)
  | List x, List y -> List.length x = List.length y && List.for_all2 json_equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) x y
  | x, y -> x = y

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"json print/parse roundtrip" ~count:300 (gen_json 3) (fun j ->
      json_equal j (Onnx.Json.of_string (Onnx.Json.to_string j)))

(* ---------------- graph round trips ---------------- *)

let graph_equal (type op) (g1 : op Graph.t) (g2 : op Graph.t) =
  Graph.length g1 = Graph.length g2
  && g1.Graph.outputs = g2.Graph.outputs
  && Array.for_all2
       (fun (a : op Graph.node) (b : op Graph.node) ->
         a.Graph.op = b.Graph.op && a.Graph.inputs = b.Graph.inputs
         && a.Graph.shape = b.Graph.shape)
       g1.Graph.nodes g2.Graph.nodes

let test_opgraph_roundtrip_models () =
  List.iter
    (fun e ->
      let g = e.Models.Registry.build_small () in
      let s = Onnx.Graph_doc.opgraph_to_string g in
      let g' = Onnx.Graph_doc.opgraph_of_string s in
      (* Structural equality up to Const payloads (Data consts compare by
         tensor equality inside Optype equality via (=)? use serialized
         form instead). *)
      let s' = Onnx.Graph_doc.opgraph_to_string g' in
      Alcotest.(check bool) (e.Models.Registry.name ^ " roundtrip") true (s = s'))
    Models.Registry.all

let test_primgraph_roundtrip () =
  let g = Models.Registry.segformer.Models.Registry.build_small () in
  let pg, _ = Fission.Engine.run g in
  let s = Onnx.Graph_doc.primgraph_to_string pg in
  let pg' = Onnx.Graph_doc.primgraph_of_string s in
  Alcotest.(check bool) "structural roundtrip" true (graph_equal pg pg');
  Alcotest.(check int) "same node count" (Graph.length pg) (Graph.length pg')

let test_roundtrip_preserves_semantics () =
  let open Tensor in
  let g = Models.Registry.candy.Models.Registry.build_small () in
  let g' = Onnx.Graph_doc.opgraph_of_string (Onnx.Graph_doc.opgraph_to_string g) in
  let inputs = [ ("input", Nd.randn (Rng.create 9) [| 1; 3; 32; 32 |]) ] in
  let a = Runtime.Interp.run g ~inputs and b = Runtime.Interp.run g' ~inputs in
  List.iter2
    (fun x y -> Alcotest.(check bool) "same outputs" true (Nd.allclose ~rtol:1e-9 x y))
    a b

let test_kind_mismatch_rejected () =
  let g = Models.Registry.candy.Models.Registry.build_small () in
  let s = Onnx.Graph_doc.opgraph_to_string g in
  match Onnx.Graph_doc.primgraph_of_string s with
  | _ -> Alcotest.fail "expected kind mismatch"
  | exception Onnx.Graph_doc.Format_error _ -> ()

let test_garbage_rejected () =
  (match Onnx.Graph_doc.opgraph_of_string "{}" with
  | _ -> Alcotest.fail "expected format error"
  | exception Onnx.Graph_doc.Format_error _ -> ());
  match Onnx.Graph_doc.opgraph_of_string "[1, 2]" with
  | _ -> Alcotest.fail "expected format error"
  | exception Onnx.Graph_doc.Format_error _ -> ()

(* ------------- malformed-document hardening ------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Expect a [Format_error] whose message names the offending node/field. *)
let expect_format_error ~doc ~needles label =
  match Onnx.Graph_doc.opgraph_of_string doc with
  | _ -> Alcotest.failf "%s: expected Format_error" label
  | exception Onnx.Graph_doc.Format_error m ->
    List.iter
      (fun needle ->
        if not (contains ~needle m) then
          Alcotest.failf "%s: error %S does not mention %S" label m needle)
      needles

let valid_doc_with ~op_kind ~inputs ~shape =
  Printf.sprintf
    {|{"format":"korch-onnx-json","kind":"operator","nodes":[
       {"op":{"kind":"Input","name":"x"},"inputs":[],"shape":[1,4]},
       {"op":%s,"inputs":%s,"shape":%s}],
       "outputs":[1]}|}
    op_kind inputs shape

let test_truncated_json () =
  let g = Models.Registry.candy.Models.Registry.build_small () in
  let s = Onnx.Graph_doc.opgraph_to_string g in
  let doc = String.sub s 0 (String.length s / 2) in
  expect_format_error ~doc ~needles:[ "malformed JSON at byte" ] "truncated";
  (* Truncation that ends exactly at end-of-input also mentions the hint. *)
  expect_format_error ~doc:{|{"format":"korch-onnx-json","kind":|}
    ~needles:[ "malformed JSON at byte"; "truncated" ] "eof"

let test_unknown_op () =
  expect_format_error
    ~doc:(valid_doc_with ~op_kind:{|{"kind":"Frobnicate"}|} ~inputs:"[0]" ~shape:"[1,4]")
    ~needles:[ "nodes[1]"; "Frobnicate" ] "unknown op"

let test_bad_shape () =
  expect_format_error
    ~doc:(valid_doc_with ~op_kind:{|{"kind":"Relu"}|} ~inputs:"[0]" ~shape:"[1,0]")
    ~needles:[ "node 1"; "dimension" ] "bad shape"

(* Shape inference refuses a reshape to negative dimensions, even where
   their product is the element count; the reader refuses it too, with
   every stored shape valid. *)
let test_negative_reshape () =
  expect_format_error
    ~doc:
      {|{"format":"korch-onnx-json","kind":"operator","nodes":[
         {"op":{"kind":"Input","name":"x"},"inputs":[],"shape":[2,3]},
         {"op":{"kind":"Reshape","shape":[-3,-2]},"inputs":[0],"shape":[3,2]}],
         "outputs":[1]}|}
    ~needles:[ "nodes[1]"; "negative dimension" ] "negative reshape"

let test_dangling_edge () =
  expect_format_error
    ~doc:(valid_doc_with ~op_kind:{|{"kind":"Relu"}|} ~inputs:"[5]" ~shape:"[1,4]")
    ~needles:[ "node 1"; "5" ] "dangling edge";
  (* A forward reference (self-edge) is just as dangling. *)
  expect_format_error
    ~doc:(valid_doc_with ~op_kind:{|{"kind":"Relu"}|} ~inputs:"[1]" ~shape:"[1,4]")
    ~needles:[ "node 1" ] "self edge";
  (* Out-of-range graph outputs are caught too. *)
  expect_format_error
    ~doc:
      {|{"format":"korch-onnx-json","kind":"operator","nodes":[
         {"op":{"kind":"Input","name":"x"},"inputs":[],"shape":[1,4]}],
         "outputs":[3]}|}
    ~needles:[ "outputs"; "3" ] "output range"

let test_const_payload_roundtrip () =
  let open Tensor in
  let b = Graph.Builder.create () in
  let c = Const.of_nd (Nd.of_array [| 2; 2 |] [| 1.5; -2.25; 0.0; 1e-7 |]) in
  let id = Graph.Builder.add b (Primitive.Constant c) [] c.Const.shape in
  Graph.Builder.set_outputs b [ id ];
  let g : Primgraph.t = Graph.Builder.finish b in
  let g' = Onnx.Graph_doc.primgraph_of_string (Onnx.Graph_doc.primgraph_to_string g) in
  match Graph.op g' 0 with
  | Primitive.Constant c' ->
    Alcotest.(check bool) "payload" true (Nd.equal (Runtime.Prim_interp.materialize c) (Runtime.Prim_interp.materialize c'))
  | _ -> Alcotest.fail "lost constant"

(* A fold reads back as its expression; one whose declared shape is not
   the shape its primitive infers, or that applies a source, is refused
   at load. *)
let test_fold_documents () =
  let fold op shape =
    Printf.sprintf
      {|{"kind":"Constant","const":{"shape":%s,"fill":"apply","op":%s,"args":[{"shape":[2,2],"fill":"randn","seed":3}]}}|}
      shape op
  in
  let transpose = {|{"kind":"Transpose","perm":[1,0]}|} in
  let doc = valid_doc_with ~op_kind:(fold transpose "[2,2]") ~inputs:"[]" ~shape:"[2,2]" in
  (match Onnx.Graph_doc.opgraph_of_string doc with
  | g -> (
    match Graph.op g 1 with
    | Optype.Constant { Const.fill = Const.Apply (Primitive.Transpose _, [ _ ]); _ } -> ()
    | _ -> Alcotest.fail "fold not read back")
  | exception Onnx.Graph_doc.Format_error m -> Alcotest.failf "valid fold refused: %s" m);
  expect_format_error ~needles:[ "fold of shape [2x2], declared [4x1]" ] "fold shape"
    ~doc:(valid_doc_with ~op_kind:(fold transpose "[4,1]") ~inputs:"[]" ~shape:"[4,1]");
  expect_format_error ~needles:[ "source" ] "fold of a source"
    ~doc:(valid_doc_with ~op_kind:(fold {|{"kind":"Input","name":"x"}|} "[2,2]") ~inputs:"[]" ~shape:"[2,2]")

(* JSON has no infinities or NaN: the document writes them as strings and
   reads them back bit for bit, in an attribute and in a constant fill. *)
let test_non_finite_roundtrip () =
  let specials = [ Float.infinity; Float.neg_infinity; Float.nan ] in
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 1; 4 |] in
  let ids =
    List.concat_map
      (fun v ->
        [ Opgraph.B.add b (Optype.LeakyRelu v) [ x ];
          Opgraph.B.const b (Const.value [| 1; 4 |] v) ])
      specials
  in
  Opgraph.B.set_outputs b ids;
  let g = Opgraph.B.finish b in
  let g' = Onnx.Graph_doc.opgraph_of_string (Onnx.Graph_doc.opgraph_to_string g) in
  let bits id =
    match Graph.op g' id with
    | Optype.LeakyRelu v | Optype.Constant { Const.fill = Const.Value v; _ } ->
      Int64.bits_of_float v
    | op -> Alcotest.failf "node %d read back as %s" id (Optype.to_string op)
  in
  List.iteri
    (fun i v ->
      List.iter
        (fun id ->
          Alcotest.(check int64)
            (Printf.sprintf "%g at node %d" v id)
            (Int64.bits_of_float v) (bits id))
        [ List.nth ids (2 * i); List.nth ids ((2 * i) + 1) ])
    specials

let () =
  Alcotest.run "onnx"
    [
      ( "json",
        [ Alcotest.test_case "parse basic" `Quick test_json_parse_basic;
          Alcotest.test_case "errors" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip ] );
      ( "graphs",
        [ Alcotest.test_case "opgraph models" `Quick test_opgraph_roundtrip_models;
          Alcotest.test_case "primgraph" `Quick test_primgraph_roundtrip;
          Alcotest.test_case "semantics" `Quick test_roundtrip_preserves_semantics;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "garbage" `Quick test_garbage_rejected;
          Alcotest.test_case "truncated JSON" `Quick test_truncated_json;
          Alcotest.test_case "unknown op" `Quick test_unknown_op;
          Alcotest.test_case "bad shape" `Quick test_bad_shape;
          Alcotest.test_case "negative reshape" `Quick test_negative_reshape;
          Alcotest.test_case "dangling edge" `Quick test_dangling_edge;
          Alcotest.test_case "const payload" `Quick test_const_payload_roundtrip;
          Alcotest.test_case "fold documents" `Quick test_fold_documents;
          Alcotest.test_case "non-finite numbers" `Quick test_non_finite_roundtrip ] );
    ]
