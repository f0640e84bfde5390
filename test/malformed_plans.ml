(* One table of malformed plans. Every row is fed to each entry point that
   decides plan validity — Executor.validate, Executor.run on the
   interpreter and native backends, a plan-cache lookup of a stored entry,
   and Verify.plan_check — and all five must reject it with the same first
   error, since they share Runtime.Plan.check. The rows are registered in
   the suites that own the behaviour (test_runtime's "executor" group,
   test_verify's "plan_check" group). *)

open Ir
open Tensor

let kernel ?(latency = 1.0) prims outputs =
  { Runtime.Plan.prims; outputs; latency_us = latency; backend = "tvm" }

(* x -> relu f -> {exp g1, neg g2} -> add k *)
let diamond () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let f = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let g1 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ f ] in
  let g2 = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ f ] in
  let k = Primgraph.B.add b (Primitive.Binary Primitive.Add) [ g1; g2 ] in
  Primgraph.B.set_outputs b [ k ];
  (Primgraph.B.finish b, f, g1, g2, k)

(* A well-formed 5-node softmax-style primitive graph:
   x -> exp -> sum -> broadcast -> div. *)
let softmax_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 4 |] in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let s = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ e ] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, 4)) [ s ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ e; bc ] in
  Primgraph.B.set_outputs b [ d ];
  (Primgraph.B.finish b, x, e, s, bc, d)

type row = {
  group : string;  (** the suite group the row is registered under *)
  name : string;
  graph : Primgraph.t;
  plan : Runtime.Plan.t;
  expect : string list;
      (** substrings Verify.plan_check must report as errors; the first
          one must be in the first error *)
}

let rows : row list Lazy.t =
  lazy
    (let g, f, g1, g2, k = diamond () in
     let x = 0 (* the graph input *) in
     let executor name kernels expect =
       { group = "executor"; name; graph = g; plan = Runtime.Plan.make kernels; expect }
     in
     let sg, _, e, s, bc, d = softmax_graph () in
     let plan_check name kernels expect =
       { group = "plan_check"; name; graph = sg; plan = Runtime.Plan.make kernels; expect }
     in
     [
       (* f is never published and not recomputed. *)
       executor "missing dependency"
         [ kernel [ g1 ] [ g1 ]; kernel [ g2 ] [ g2 ]; kernel [ k ] [ k ] ]
         [ "consumes node"; "no earlier kernel published" ];
       executor "missing output"
         [ kernel [ f ] [ f ]; kernel [ g1 ] [ g1 ]; kernel [ g2 ] [ g2 ] ]
         [ "graph output"; "not published by any kernel" ];
       (* {f, k} skips the middle nodes. *)
       executor "non-convex kernel" [ kernel [ f; k ] [ k ] ] [ "not a convex subgraph" ];
       executor "foreign output"
         [ kernel [ f ] [ f; g1 ]; kernel [ g2 ] [ g2 ]; kernel [ g1; k ] [ k ] ]
         [ "published output"; "not a member primitive" ];
       executor "out-of-range id"
         [ kernel [ f; 99 ] [ f ]; kernel [ g1; g2; k ] [ k ] ]
         [ "primitive id 99 out of range" ];
       (* 99 appears only among the published outputs. *)
       executor "out-of-range output"
         [ kernel [ f ] [ f; 99 ]; kernel [ g1; g2; k ] [ k ] ]
         [ "published output 99 is not a member primitive" ];
       executor "source node"
         [ kernel [ x; f ] [ f ]; kernel [ g1; g2; k ] [ k ] ]
         [ "kernel executes source node 0" ];
       executor "duplicate member"
         [ kernel [ f; f ] [ f ]; kernel [ g1; g2; k ] [ k ] ]
         [ "primitive 1 listed more than once" ];
       executor "empty kernel"
         [ kernel [] []; kernel [ f; g1; g2; k ] [ k ] ]
         [ "kernel executes no primitives" ];
       executor "negative latency"
         [ kernel ~latency:(-1.0) [ f ] [ f ]; kernel [ g1; g2; k ] [ k ] ]
         [ "latency -1 us is negative" ];
       plan_check "skipped output" [ kernel [ e ] [ e ] ] [ "not published by any kernel" ];
       (* {exp, broadcast} has the path exp -> sum -> broadcast with sum
          outside. *)
       plan_check "non-convex kernel"
         [ kernel [ e; bc ] [ e; bc ]; kernel [ s ] [ s ]; kernel [ d ] [ d ] ]
         [ "not a convex subgraph" ];
       plan_check "foreign output" [ kernel [ e ] [ s ] ] [ "not a member primitive" ];
       (* div runs first, before exp/broadcast are published. *)
       plan_check "bad kernel order"
         [ kernel [ d ] [ d ]; kernel [ e; s; bc ] [ e; bc ] ]
         [ "no earlier kernel published" ];
       plan_check "bad latency"
         [ kernel ~latency:(-3.0) [ e; s; bc ] [ e; bc ]; kernel ~latency:Float.nan [ d ] [ d ] ]
         [ "is negative"; "not finite" ];
     ])

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let cache_root =
  lazy
    (let d =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "korch-test-malformed-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

let inputs_for (g : Primgraph.t) =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Primitive.Input name -> Some (name, Nd.zeros nd.Graph.shape)
         | _ -> None)

let check_row (r : row) () =
  let first =
    match Runtime.Executor.validate r.graph r.plan with
    | Ok () -> Alcotest.fail "Executor.validate accepted the plan"
    | Error m -> m
  in
  if not (contains ~sub:(List.hd r.expect) first) then
    Alcotest.failf "first error %S lacks %S" first (List.hd r.expect);
  List.iter
    (fun (label, backend) ->
      match Runtime.Executor.run ~backend r.graph r.plan ~inputs:(inputs_for r.graph) with
      | _ -> Alcotest.failf "Executor.run (%s) accepted the plan" label
      | exception Runtime.Executor.Invalid_plan m ->
        Alcotest.(check string) ("Executor.run raises the first error: " ^ label) first m)
    [ ("interp", Runtime.Backend.Interp); ("native", Runtime.Backend.Native) ];
  let slug = String.map (function ' ' -> '_' | c -> c) (r.group ^ "-" ^ r.name) in
  let cache = Serve.Plan_cache.create ~dir:(Filename.concat (Lazy.force cache_root) slug) () in
  let key =
    { Serve.Plan_cache.graph_hash = Digest.to_hex (Digest.string slug); gpu = "V100";
      precision = "fp32"; batch = 1 }
  in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final ~graph:r.graph ~plan:r.plan
    ~report:"";
  Alcotest.(check bool) "plan-cache lookup misses" true (Serve.Plan_cache.lookup cache key = None);
  Alcotest.(check int) "counted as corrupt" 1
    (Serve.Plan_cache.stats cache).Serve.Plan_cache.corrupt;
  Alcotest.(check bool) "entry deleted" false
    (Sys.file_exists (Serve.Plan_cache.entry_path cache key));
  match Verify.Diagnostics.errors (Verify.plan_check r.graph r.plan) with
  | [] -> Alcotest.fail "Verify.plan_check found no error"
  | d :: _ as errs ->
    Alcotest.(check string) "plan_check's first error" first
      (Verify.Diagnostics.location_to_string d.Verify.Diagnostics.loc ^ ": "
     ^ d.Verify.Diagnostics.message);
    List.iter
      (fun sub ->
        if not (List.exists (fun d -> contains ~sub d.Verify.Diagnostics.message) errs) then
          Alcotest.failf "plan_check reports no error containing %S" sub)
      r.expect

(* The table's rows for one suite group, as Alcotest cases. *)
let cases group =
  List.filter_map
    (fun r ->
      if r.group = group then Some (Alcotest.test_case r.name `Quick (check_row r)) else None)
    (Lazy.force rows)
