(* ONNX-JSON interchange example: export a model, re-import it, fission it
   and export the primitive graph — the §5.1 workflow where both the
   fission engine's input and output live in the interchange format.
   [Onnx.Graph_doc] declares the document once; its codecs also embed a
   graph in larger documents (plan-cache entries, plan tables).

   Run with: dune exec examples/onnx_roundtrip.exe *)

let () =
  let g = Models.Registry.segformer.Models.Registry.build_small () in
  let doc = Onnx.Graph_doc.opgraph_to_string g in
  Printf.printf "serialized operator graph: %d bytes of JSON\n" (String.length doc);

  let g' = Onnx.Graph_doc.opgraph_of_string doc in
  Printf.printf "re-imported %d nodes, %d outputs\n" (Ir.Graph.length g')
    (List.length g'.Ir.Graph.outputs);

  (* The fission engine consumes and produces the interchange format. *)
  let pg, _ = Fission.Engine.run g' in
  let prim_doc = Onnx.Graph_doc.primgraph_to_string pg in
  Printf.printf "fissioned primitive graph: %d primitives, %d bytes of JSON\n"
    (List.length (Ir.Primgraph.non_source_nodes pg))
    (String.length prim_doc);
  let pg' = Onnx.Graph_doc.primgraph_of_string prim_doc in

  (* Round-tripped graphs behave identically. *)
  let x = Tensor.Nd.randn (Tensor.Rng.create 13) [| 1; 3; 32; 32 |] in
  let a = Runtime.Interp.run g ~inputs:[ ("input", x) ] in
  let b = Runtime.Prim_interp.run pg' ~inputs:[ ("input", x) ] in
  List.iter2
    (fun e g -> Printf.printf "round-trip max |diff|: %g\n" (Tensor.Nd.max_abs_diff e g))
    a b;

  (* A malformed document is one [Format_error] naming where it broke. *)
  (match
     Onnx.Graph_doc.opgraph_of_string
       {|{"format":"korch-onnx-json","kind":"operator",
           "nodes":[{"op":{"kind":"Frobnicate"},"inputs":[],"shape":[1]}],"outputs":[0]}|}
   with
  | _ -> print_endline "unexpectedly parsed"
  | exception Onnx.Graph_doc.Format_error m -> Printf.printf "rejected: %s\n" m);

  (* Files work too. *)
  let path = Filename.temp_file "korch" ".json" in
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote %s\n" path
