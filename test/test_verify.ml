(* Tests for the static analysis subsystem: the graph verifier and plan
   validator on deliberately broken inputs (each must produce its expected
   diagnostic), plus the rewrite-rule linter and the orchestrator's
   [check_invariants] integration. *)

open Ir
open Verify

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let has_error sub (r : Diagnostics.report) =
  List.exists
    (fun (d : Diagnostics.diag) ->
      d.Diagnostics.severity = Diagnostics.Error && contains d.Diagnostics.message sub)
    r

let has_warning sub (r : Diagnostics.report) =
  List.exists
    (fun (d : Diagnostics.diag) ->
      d.Diagnostics.severity = Diagnostics.Warning && contains d.Diagnostics.message sub)
    r

let check_error msg sub r =
  if not (has_error sub r) then
    Alcotest.failf "%s: expected an error containing %S, got:\n%s" msg sub
      (Diagnostics.to_string r)

let softmax_graph = Malformed_plans.softmax_graph

(* Hand-build a node (the builders refuse to construct broken graphs). *)
let nd id op inputs shape = { Graph.id; op; inputs; shape }

(* ---------------- graph verifier ---------------- *)

let test_valid_graph_clean () =
  let g, _, _, _, _, _ = softmax_graph () in
  let r = Verify.graph_check g in
  Alcotest.(check bool) "no errors" false (Diagnostics.has_errors r);
  Alcotest.(check bool) "no warnings" true (Diagnostics.warnings r = [])

let test_cyclic_graph () =
  (* 0 -> 1 -> 2 -> 1: node 1 consumes node 2. *)
  let g =
    {
      Graph.nodes =
        [| nd 0 (Primitive.Input "x") [] [| 2; 2 |];
           nd 1 (Primitive.Unary Primitive.Exp) [ 2 ] [| 2; 2 |];
           nd 2 (Primitive.Unary Primitive.Neg) [ 1 ] [| 2; 2 |] |];
      outputs = [ 2 ];
    }
  in
  let r = Verify.graph_check g in
  check_error "cycle" "cycle detected" r;
  (* The same defect also violates topological id order. *)
  check_error "forward ref" "not an earlier node" r

let test_dangling_edge () =
  let g =
    {
      Graph.nodes =
        [| nd 0 (Primitive.Input "x") [] [| 2; 2 |];
           nd 1 (Primitive.Unary Primitive.Exp) [ 7 ] [| 2; 2 |] |];
      outputs = [ 1 ];
    }
  in
  check_error "dangling edge" "dangling input reference 7" (Verify.graph_check g)

let test_dangling_output () =
  let g =
    { Graph.nodes = [| nd 0 (Primitive.Input "x") [] [| 2; 2 |] |]; outputs = [ 3 ] }
  in
  check_error "dangling output" "dangling output reference 3" (Verify.graph_check g)

let test_shape_mismatch () =
  (* Stored shape of the reduce is wrong: Sum along axis 1 of [4;4] is [4]. *)
  let g =
    {
      Graph.nodes =
        [| nd 0 (Primitive.Input "x") [] [| 4; 4 |];
           nd 1 (Primitive.Reduce (Primitive.Sum, 1)) [ 0 ] [| 4; 4 |] |];
      outputs = [ 1 ];
    }
  in
  check_error "shape mismatch" "shape inference gives [4]" (Verify.graph_check g)

let test_bad_arity_and_source () =
  let g =
    {
      Graph.nodes =
        [| nd 0 (Primitive.Input "x") [] [| 2; 2 |];
           (* Binary with a single argument. *)
           nd 1 (Primitive.Binary Primitive.Add) [ 0 ] [| 2; 2 |];
           (* Source with a predecessor. *)
           nd 2 (Primitive.Input "y") [ 0 ] [| 2; 2 |] |];
      outputs = [ 1 ];
    }
  in
  let r = Verify.graph_check g in
  check_error "arity" "expects 2 input(s), has 1" r;
  check_error "source" "must have no predecessors" r

let test_dead_node_warning () =
  let g =
    {
      Graph.nodes =
        [| nd 0 (Primitive.Input "x") [] [| 2; 2 |];
           nd 1 (Primitive.Unary Primitive.Exp) [ 0 ] [| 2; 2 |];
           nd 2 (Primitive.Unary Primitive.Neg) [ 0 ] [| 2; 2 |] |];
      outputs = [ 1 ];
    }
  in
  let r = Verify.graph_check g in
  Alcotest.(check bool) "no errors" false (Diagnostics.has_errors r);
  Alcotest.(check bool) "dead node flagged" true (has_warning "dead node" r)

let test_opgraph_check () =
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 2; 8 |] in
  let y = Opgraph.B.add b (Optype.Softmax 1) [ x ] in
  Opgraph.B.set_outputs b [ y ];
  let g = Opgraph.B.finish b in
  Alcotest.(check bool) "operator graph clean" false
    (Diagnostics.has_errors (Verify.opgraph_check g));
  (* Conv declared with bias but only two inputs. *)
  let broken =
    {
      Graph.nodes =
        [| nd 0 (Optype.Input "x") [] [| 1; 3; 8; 8 |];
           nd 1 (Optype.Constant (Const.randn [| 4; 3; 3; 3 |] 1)) [] [| 4; 3; 3; 3 |];
           nd 2
             (Optype.Conv { stride = (1, 1); padding = (1, 1); bias = true })
             [ 0; 1 ] [| 1; 4; 8; 8 |] |];
      outputs = [ 2 ];
    }
  in
  check_error "conv bias arity" "expects 3 input(s), has 2" (Verify.opgraph_check broken)

(* ---------------- plan validator ---------------- *)

let kernel prims outputs =
  { Runtime.Plan.prims; outputs; latency_us = 1.0; backend = "tvm" }

let test_valid_plan_clean () =
  let g, _, e, s, bc, d = softmax_graph () in
  let plan = Runtime.Plan.make [ kernel [ e; s; bc ] [ e; bc ]; kernel [ d ] [ d ] ] in
  let r = Verify.plan_check g plan in
  Alcotest.(check bool) "no errors" false (Diagnostics.has_errors r)

let test_plan_stats () =
  let g, _, e, s, bc, d = softmax_graph () in
  (* The second kernel redundantly re-executes the whole softmax chain to
     publish div without consuming any intermediate tensor (§4.2). *)
  let plan =
    Runtime.Plan.make [ kernel [ e; s; bc ] [ bc ]; kernel [ e; s; bc; d ] [ d ] ]
  in
  let stats = Plan_check.compute_stats plan in
  Alcotest.(check int) "kernels" 2 stats.Plan_check.kernels;
  Alcotest.(check int) "executed" 7 stats.Plan_check.executed;
  Alcotest.(check int) "distinct" 4 stats.Plan_check.distinct;
  Alcotest.(check int) "redundancy" 3 stats.Plan_check.redundancy;
  Alcotest.(check bool) "redundant plan is valid" false
    (Diagnostics.has_errors (Verify.plan_check g plan))

(* ---------------- rule linter ---------------- *)

let test_rule_linter_clean () =
  let r = Rule_check.lint_all ~seed:42 ~count:2 () in
  (match Diagnostics.errors r with
  | [] -> ()
  | errs ->
    Alcotest.failf "rule lint found errors:\n%s" (Diagnostics.to_string errs));
  (* Every registered rule family must be exercised. *)
  Alcotest.(check bool) "covers fission rules" true
    (List.length Rule_check.fission_rule_names >= 30);
  Alcotest.(check bool) "covers transform rules" true
    (List.length Rule_check.transform_rule_names
    >= List.length Transform.Optimizer.all_rules)

(* ---------------- orchestrator integration ---------------- *)

let test_orchestrator_checks_invariants () =
  let b = Opgraph.B.create () in
  let x = Opgraph.B.input b "x" [| 2; 16 |] in
  let y = Opgraph.B.add b (Optype.Softmax 1) [ x ] in
  Opgraph.B.set_outputs b [ y ];
  let g = Opgraph.B.finish b in
  let cfg = Korch.Orchestrator.default_config in
  Alcotest.(check bool) "invariant checking on by default" true
    cfg.Korch.Orchestrator.check_invariants;
  let r = Korch.Orchestrator.run cfg g in
  (* The stitched result re-validates cleanly. *)
  Alcotest.(check bool) "stitched graph clean" false
    (Diagnostics.has_errors (Verify.graph_check r.Korch.Orchestrator.graph));
  Alcotest.(check bool) "plan clean" false
    (Diagnostics.has_errors
       (Verify.plan_check r.Korch.Orchestrator.graph r.Korch.Orchestrator.plan))

let () =
  Alcotest.run "verify"
    [
      ( "graph_check",
        [ Alcotest.test_case "valid graph clean" `Quick test_valid_graph_clean;
          Alcotest.test_case "cyclic graph" `Quick test_cyclic_graph;
          Alcotest.test_case "dangling edge" `Quick test_dangling_edge;
          Alcotest.test_case "dangling output" `Quick test_dangling_output;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "arity and source" `Quick test_bad_arity_and_source;
          Alcotest.test_case "dead node warning" `Quick test_dead_node_warning;
          Alcotest.test_case "operator graphs" `Quick test_opgraph_check ] );
      ( "plan_check",
        [ Alcotest.test_case "valid plan clean" `Quick test_valid_plan_clean;
          Alcotest.test_case "redundancy stats" `Quick test_plan_stats ]
        @ Malformed_plans.cases "plan_check" );
      ( "rule_check",
        [ Alcotest.test_case "all rules lint clean" `Quick test_rule_linter_clean ] );
      ( "orchestrator",
        [ Alcotest.test_case "check_invariants integration" `Quick
            test_orchestrator_checks_invariants ] );
    ]
