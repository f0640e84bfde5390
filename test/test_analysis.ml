(* Tests for the semantic passes of lib/verify: per-primitive-class
   value-range transfer functions, seeded broken graphs that must be
   flagged, dead-code findings of the fissioned-graph checks, the
   memory-planner hazard cross-check (clean pass + injected corruptions
   rejected), the korch-lint/1 serializer, and the orchestrator
   integration (clean zoo models, analysis fault degradation). *)

open Ir
module V = Verify.Vrange
module D = Verify.Diagnostics
module Hazard = Verify.Hazard

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_sev sev sub (r : D.report) =
  List.exists
    (fun (d : D.diag) -> d.D.severity = sev && contains d.D.message sub)
    r

let check_error msg sub r =
  if not (find_sev D.Error sub r) then
    Alcotest.failf "%s: expected an error containing %S, got:\n%s" msg sub (D.to_string r)

let check_no_errors msg (r : D.report) =
  if D.has_errors r then
    Alcotest.failf "%s: expected no errors, got:\n%s" msg (D.error_summary r)

let feq msg a b = Alcotest.(check (float 1e-9)) msg a b

(* x -> exp -> sum -> broadcast -> div (softmax), as in test_verify. *)
let softmax_graph () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4; 4 |] in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let s = Primgraph.B.add b (Primitive.Reduce (Primitive.Sum, 1)) [ e ] in
  let bc = Primgraph.B.add b (Primitive.Broadcast (1, 4)) [ s ] in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ e; bc ] in
  Primgraph.B.set_outputs b [ d ];
  Primgraph.B.finish b

(* One kernel per executable primitive, everything published. *)
let singleton_plan (g : Primgraph.t) : Runtime.Plan.t =
  Runtime.Plan.make
    (List.map
       (fun id ->
         { Runtime.Plan.prims = [ id ]; outputs = [ id ]; latency_us = 1.0; backend = "test" })
       (Primgraph.non_source_nodes g))

(* A unary chain [input -> u1 -> u2 -> ...], returning graph + node ids. *)
let chain_graph (us : Primitive.unary list) =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 2 |] in
  let last =
    List.fold_left (fun prev u -> Primgraph.B.add b (Primitive.Unary u) [ prev ]) x us
  in
  Primgraph.B.set_outputs b [ last ];
  Primgraph.B.finish b

(* ---------------- value-range transfer functions ---------------- *)

let test_const_facts () =
  let f = V.of_const (Const.zeros [| 2 |]) in
  feq "zeros lo" 0.0 f.V.lo;
  feq "zeros hi" 0.0 f.V.hi;
  Alcotest.(check bool) "zeros not nonzero" false f.V.nonzero;
  let f = V.of_const (Const.value [| 2 |] 3.5) in
  feq "value lo" 3.5 f.V.lo;
  Alcotest.(check bool) "value nonzero" true f.V.nonzero;
  let f = V.of_const (Const.of_nd (Tensor.Nd.of_array [| 3 |] [| -1.0; 2.0; 5.0 |])) in
  feq "data lo" (-1.0) f.V.lo;
  feq "data hi" 5.0 f.V.hi;
  Alcotest.(check bool) "data nonzero" true f.V.nonzero

let test_elementwise_transfers () =
  (* exp of arbitrary finite input: (0, inf], nonzero, may be infinite. *)
  let e = V.unary_v Primitive.Exp V.input_fact in
  feq "exp lo" 0.0 e.V.lo;
  Alcotest.(check bool) "exp hi inf" true (e.V.hi = infinity);
  Alcotest.(check bool) "exp not nonzero (underflow)" false e.V.nonzero;
  (* ... but exp of a bounded range is strictly positive and finite. *)
  let b = V.unary_v Primitive.Exp (V.mk (-10.0) 10.0) in
  Alcotest.(check bool) "bounded exp nonzero" true b.V.nonzero;
  Alcotest.(check bool) "bounded exp finite" true b.V.finite;
  (* relu clamps below. *)
  let r = V.unary_v Primitive.Relu (V.mk (-5.0) 3.0) in
  feq "relu lo" 0.0 r.V.lo;
  feq "relu hi" 3.0 r.V.hi;
  (* clip produces exactly the clip interval on a wider range. *)
  let c = V.unary_v (Primitive.Clip (-1.0, 1.0)) V.input_fact in
  feq "clip lo" (-1.0) c.V.lo;
  feq "clip hi" 1.0 c.V.hi;
  Alcotest.(check bool) "clip finite" true c.V.finite;
  (* sigmoid lands in [0, 1]. *)
  let s = V.unary_v Primitive.Sigmoid V.input_fact in
  Alcotest.(check bool) "sigmoid in [0,1]" true (s.V.lo >= 0.0 && s.V.hi <= 1.0);
  (* add_const with eps makes a nonnegative range provably nonzero. *)
  let a = V.unary_v (Primitive.AddConst 1e-5) (V.mk 0.0 4.0) in
  Alcotest.(check bool) "x+eps positive" true (a.V.lo > 0.0)

let test_binary_transfers () =
  let x = V.mk (-2.0) 3.0 and y = V.mk 1.0 2.0 in
  let m = V.binary_v Primitive.Mul x y in
  feq "mul lo" (-4.0) m.V.lo;
  feq "mul hi" 6.0 m.V.hi;
  (* division by a strictly positive range stays bounded. *)
  let d = V.binary_v Primitive.Div x y in
  feq "div lo" (-2.0) d.V.lo;
  feq "div hi" 3.0 d.V.hi;
  (* division by a zero-straddling range explodes. *)
  let d0 = V.binary_v Primitive.Div x (V.mk (-1.0) 1.0) in
  Alcotest.(check bool) "div unbounded" true (d0.V.lo = neg_infinity && d0.V.hi = infinity);
  let mx = V.binary_v Primitive.Max x y in
  feq "max lo" 1.0 mx.V.lo;
  feq "max hi" 3.0 mx.V.hi

let test_reduce_broadcast_layout_transfers () =
  (* Sum over axis 1 (size 4) scales bounds by 4. *)
  let g = softmax_graph () in
  let facts = V.solve g in
  let s = facts.(2) in
  (* exp outputs are >= 0; the sum stays >= 0 too. *)
  Alcotest.(check bool) "sum of exp >= 0" true (s.V.lo >= 0.0);
  (* Direct check of the scaling on a bounded interval. *)
  let sum4 = V.reduce_v Primitive.Sum ~k:4 (V.mk 1.0 2.0) in
  feq "sum lo" 1.0 sum4.V.lo;
  feq "sum hi" 8.0 sum4.V.hi;
  Alcotest.(check bool) "sum of positives nonzero" true
    (V.reduce_v Primitive.Sum ~k:4 (V.mk ~nonzero:true 1.0 2.0)).V.nonzero;
  (* Max-reduce keeps bounds. *)
  let mr = V.reduce_v Primitive.Max ~k:9 (V.mk (-1.0) 2.0) in
  feq "max-reduce lo" (-1.0) mr.V.lo;
  feq "max-reduce hi" 2.0 mr.V.hi;
  (* Broadcast and transpose are identities on the value set. *)
  Alcotest.(check bool) "broadcast id" true (facts.(3) = facts.(2))

let test_linear_transfers () =
  (* matmul of [0,1] x [0,1] over inner dim k=4: [0, 4]. *)
  let k = 4 in
  let p = V.dot_v ~k (V.mk 0.0 1.0) (V.mk 0.0 1.0) in
  feq "dot lo" 0.0 p.V.lo;
  feq "dot hi" (float_of_int k) p.V.hi;
  Alcotest.(check bool) "dot finite" true p.V.finite

(* ---------------- seeded broken graphs ---------------- *)

let test_div_by_zero_flagged () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 2 |] in
  let z = Primgraph.B.const b (Const.zeros [| 2; 2 |]) in
  let d = Primgraph.B.add b (Primitive.Binary Primitive.Div) [ x; z ] in
  Primgraph.B.set_outputs b [ d ];
  let g = Primgraph.B.finish b in
  check_error "div by const zero" "always zero" (V.check g)

let test_log_of_negative_flagged () =
  let b = Primgraph.B.create () in
  let c = Primgraph.B.const b (Const.value [| 2 |] (-2.0)) in
  let l = Primgraph.B.add b (Primitive.Unary Primitive.Log) [ c ] in
  Primgraph.B.set_outputs b [ l ];
  let g = Primgraph.B.finish b in
  check_error "log of negative const" "always-negative" (V.check g);
  (* sqrt of the same range is equally doomed. *)
  let b = Primgraph.B.create () in
  let c = Primgraph.B.const b (Const.value [| 2 |] (-2.0)) in
  let s = Primgraph.B.add b (Primitive.Unary Primitive.Sqrt) [ c ] in
  Primgraph.B.set_outputs b [ s ];
  check_error "sqrt of negative const" "always-negative" (V.check (Primgraph.B.finish b));
  (* A graph input holds arbitrary finite data, so the bad region lies
     strictly inside its range: exactly one warning, at the op's node. *)
  let input_fed msg sub build =
    let b = Primgraph.B.create () in
    let x = Primgraph.B.input b "x" [| 2 |] in
    let y = build b x in
    Primgraph.B.set_outputs b [ y ];
    let r = V.check (Primgraph.B.finish b) in
    check_no_errors msg r;
    match D.warnings r with
    | [ w ] when w.D.loc = D.Node y && contains w.D.message sub -> ()
    | ws ->
      Alcotest.failf "%s: expected one warning containing %S at node %d, got:\n%s" msg sub y
        (D.to_string ws)
  in
  let unary u b x = Primgraph.B.add b (Primitive.Unary u) [ x ] in
  input_fed "log of an input" "log argument may be negative" (unary Primitive.Log);
  input_fed "sqrt of an input" "sqrt argument may be negative" (unary Primitive.Sqrt);
  input_fed "div by an input" "denominator range" (fun b x ->
      let one = Primgraph.B.const b (Const.value [| 2 |] 1.0) in
      Primgraph.B.add b (Primitive.Binary Primitive.Div) [ one; x ])

let test_exp_overflow_flagged () =
  let b = Primgraph.B.create () in
  let c = Primgraph.B.const b (Const.value [| 2 |] 800.0) in
  let e = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ c ] in
  Primgraph.B.set_outputs b [ e ];
  check_error "exp overflow" "always overflows" (V.check (Primgraph.B.finish b))

let test_softmax_is_clean () =
  (* The fissioned softmax pattern must NOT trip the division check: the
     denominator is a broadcast sum of exps — nonnegative with only an
     endpoint zero — so at worst an info. *)
  let g = softmax_graph () in
  let r = V.check g in
  check_no_errors "softmax vrange" r;
  Alcotest.(check bool) "no warnings either" true (D.warnings r = [])

let test_dead_subgraph_flagged () =
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2; 2 |] in
  let _unused = Primgraph.B.input b "unused" [| 3 |] in
  let live = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  (* A two-node dead branch. *)
  let d1 = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ x ] in
  let _d2 = Primgraph.B.add b (Primitive.Unary Primitive.Neg) [ d1 ] in
  Primgraph.B.set_outputs b [ live ];
  let g = Primgraph.B.finish b in
  let r = V.check g @ Verify.graph_check g in
  let at sev i =
    List.filter_map
      (fun (d : D.diag) ->
        if d.D.severity = sev && d.D.loc = D.Node i then Some d.D.message else None)
      r
  in
  Alcotest.(check (list string)) "dead exp"
    [ "dead node exp (not reachable from any output; 4 elements wasted)" ] (at D.Warning 3);
  Alcotest.(check (list string)) "dead neg"
    [ "dead node neg (not reachable from any output; 4 elements wasted)" ] (at D.Warning 4);
  Alcotest.(check int) "no other warnings" 2 (List.length (D.warnings r));
  Alcotest.(check (list string)) "unused input is an info" [ "unused source input(unused)" ]
    (at D.Info 1);
  Alcotest.(check (list string)) "live nodes not flagged" [] (at D.Warning 2 @ at D.Info 2)

(* ---------------- hazard cross-check ---------------- *)

let test_hazard_clean_pass () =
  let g = softmax_graph () in
  let plan = singleton_plan g in
  let mp = Runtime.Memplan.analyze g plan in
  check_no_errors "hazard on planner output" (Hazard.check g plan mp)

let mutate_instances (mp : Runtime.Memplan.t) f =
  { mp with Runtime.Memplan.instances = Array.map f mp.Runtime.Memplan.instances }

let test_hazard_rejects_lifetime_overlap () =
  let g = softmax_graph () in
  let plan = singleton_plan g in
  let mp = Runtime.Memplan.analyze g plan in
  let insts = mp.Runtime.Memplan.instances in
  (* Find two instances with overlapping live ranges (they necessarily
     sit in different slots) and force them into the same slot. *)
  let pair = ref None in
  Array.iteri
    (fun i (a : Runtime.Memplan.instance) ->
      Array.iteri
        (fun j (b : Runtime.Memplan.instance) ->
          if !pair = None && i < j && a.Runtime.Memplan.slot <> b.Runtime.Memplan.slot
             && a.Runtime.Memplan.birth <= b.Runtime.Memplan.birth
             && b.Runtime.Memplan.birth < a.Runtime.Memplan.death
          then pair := Some (a, b))
        insts)
    insts;
  match !pair with
  | None -> Alcotest.fail "expected overlapping instances in the softmax plan"
  | Some (a, b) ->
    let bad =
      mutate_instances mp (fun i ->
          if i.Runtime.Memplan.key = b.Runtime.Memplan.key then
            { i with Runtime.Memplan.slot = a.Runtime.Memplan.slot }
          else i)
    in
    check_error "aliasing tenants" "overlapping live ranges" (Hazard.check g plan bad)

let test_hazard_rejects_same_step_reuse () =
  let g = chain_graph [ Primitive.Exp; Primitive.Neg; Primitive.Relu ] in
  let plan = singleton_plan g in
  let mp = Runtime.Memplan.analyze g plan in
  let insts = mp.Runtime.Memplan.instances in
  (* A producer's last read happens at the step its consumer is written:
     putting both in one slot is the same-step read/write hazard. *)
  let pair = ref None in
  Array.iter
    (fun (a : Runtime.Memplan.instance) ->
      Array.iter
        (fun (b : Runtime.Memplan.instance) ->
          if !pair = None && a.Runtime.Memplan.death = b.Runtime.Memplan.birth
             && a.Runtime.Memplan.slot <> b.Runtime.Memplan.slot
          then pair := Some (a, b))
        insts)
    insts;
  match !pair with
  | None -> Alcotest.fail "expected a death=birth adjacency in the chain plan"
  | Some (a, b) ->
    let bad =
      mutate_instances mp (fun i ->
          if i.Runtime.Memplan.key = b.Runtime.Memplan.key then
            { i with Runtime.Memplan.slot = a.Runtime.Memplan.slot }
          else i)
    in
    check_error "same-step reuse" "same-step read/write hazard" (Hazard.check g plan bad)

let test_hazard_rejects_truncated_lifetime () =
  let g = softmax_graph () in
  let plan = singleton_plan g in
  let mp = Runtime.Memplan.analyze g plan in
  (* Shorten the longest-lived instance: the cross-check recomputes the
     true last use and must catch the disagreement. *)
  let victim =
    Array.fold_left
      (fun acc (i : Runtime.Memplan.instance) ->
        match acc with
        | Some (a : Runtime.Memplan.instance)
          when a.Runtime.Memplan.death - a.Runtime.Memplan.birth
               >= i.Runtime.Memplan.death - i.Runtime.Memplan.birth -> acc
        | _ -> Some i)
      None mp.Runtime.Memplan.instances
    |> Option.get
  in
  let bad =
    mutate_instances mp (fun i ->
        if i.Runtime.Memplan.key = victim.Runtime.Memplan.key then
          { i with Runtime.Memplan.death = i.Runtime.Memplan.birth }
        else i)
  in
  check_error "truncated lifetime" "recomputed last use" (Hazard.check g plan bad)

let test_hazard_rejects_lost_instance () =
  let g = softmax_graph () in
  let plan = singleton_plan g in
  let mp = Runtime.Memplan.analyze g plan in
  let n = Array.length mp.Runtime.Memplan.instances in
  let bad =
    { mp with
      Runtime.Memplan.instances = Array.sub mp.Runtime.Memplan.instances 0 (n - 1) }
  in
  check_error "lost instance" "planner lost instance" (Hazard.check g plan bad)

let test_slot_accessors () =
  let g = softmax_graph () in
  let plan = singleton_plan g in
  let mp = Runtime.Memplan.analyze g plan in
  let assignment = Runtime.Memplan.slot_assignment mp in
  Alcotest.(check int) "assignment covers all instances"
    (Array.length mp.Runtime.Memplan.instances)
    (List.length assignment);
  List.iter
    (fun (k, s) ->
      Alcotest.(check (option int)) "slot_of agrees" (Some s) (Runtime.Memplan.slot_of mp k))
    assignment

(* ---------------- lint JSON ---------------- *)

let test_lint_json () =
  let report =
    [
      D.error ~pass:"vrange" ~loc:(D.Node 3) "boom";
      D.info ~pass:"graph" ~loc:D.Whole "fine";
    ]
  in
  Alcotest.(check bool) "gate fails on an error" true (D.has_errors report);
  Alcotest.(check bool) "clean list passes" false (D.has_errors []);
  let doc = D.json_string ~meta:[ ("source", Obs.Jsonw.Str "unit") ] report in
  let j = Onnx.Json.of_string doc in
  let mem k o = Option.get (Onnx.Json.member k o) in
  Alcotest.(check string) "schema" "korch-lint/1" (Onnx.Json.to_string_exn (mem "schema" j));
  let summary = mem "summary" j in
  Alcotest.(check int) "errors" 1 (Onnx.Json.to_int_exn (mem "errors" summary));
  Alcotest.(check int) "infos" 1 (Onnx.Json.to_int_exn (mem "infos" summary));
  Alcotest.(check string) "max severity" "error"
    (Onnx.Json.to_string_exn (mem "max_severity" summary));
  match Onnx.Json.to_list_exn (mem "findings" j) with
  | [ f1; _ ] ->
    Alcotest.(check string) "finding loc" "node 3" (Onnx.Json.to_string_exn (mem "loc" f1))
  | _ -> Alcotest.fail "findings should be a 2-element list"

(* ---------------- orchestrator integration ---------------- *)

let zoo_models = [ "candy"; "yolox"; "yolov4"; "segformer"; "efficientvit"; "decode" ]

let build_zoo name =
  match Models.Registry.find name with
  | Some e -> e.Models.Registry.build_small ~batch:1 ()
  | None -> Alcotest.failf "unknown zoo model %s" name

let test_zoo_clean_pass () =
  List.iter
    (fun name ->
      let g = build_zoo name in
      let pg, _ = Fission.Engine.run g in
      check_no_errors (name ^ " value ranges") (V.check pg);
      check_no_errors (name ^ " fissioned graph") (Verify.graph_check pg);
      (* End to end: orchestrate under check_invariants (the default) —
         the hazard cross-check runs inside and must find nothing. *)
      let cfg =
        { Korch.Orchestrator.default_config with
          Korch.Orchestrator.partition_max_prims = 12 }
      in
      let r = Korch.Orchestrator.run cfg g in
      match r.Korch.Orchestrator.analysis with
      | Korch.Orchestrator.Analysis_checked rep ->
        check_no_errors (name ^ " hazard cross-check") rep
      | o ->
        Alcotest.failf "%s: expected analysis checked, got %s" name
          (Korch.Orchestrator.analysis_outcome_to_string o))
    zoo_models

let test_analysis_fault_degrades () =
  let g = build_zoo "candy" in
  (* The injected analyzer crash must not kill the orchestration... *)
  let r =
    Faults.with_policy ~seed:3
      [ (Faults.Analysis, Faults.Always) ]
      (fun () -> Korch.Orchestrator.run Korch.Orchestrator.default_config g)
  in
  (* ...and the skip is recorded in the result. *)
  match r.Korch.Orchestrator.analysis with
  | Korch.Orchestrator.Analysis_skipped reason ->
    Alcotest.(check bool) "reason mentions injection" true (contains reason "injected")
  | o ->
    Alcotest.failf "expected analysis skipped, got %s"
      (Korch.Orchestrator.analysis_outcome_to_string o)

let test_analysis_off_when_invariants_off () =
  let g = build_zoo "candy" in
  let cfg =
    { Korch.Orchestrator.default_config with Korch.Orchestrator.check_invariants = false }
  in
  let r = Korch.Orchestrator.run cfg g in
  Alcotest.(check bool) "analysis off" true
    (r.Korch.Orchestrator.analysis = Korch.Orchestrator.Analysis_off)

let () =
  Alcotest.run "analysis"
    [
      ( "vrange",
        [ Alcotest.test_case "constants" `Quick test_const_facts;
          Alcotest.test_case "elementwise" `Quick test_elementwise_transfers;
          Alcotest.test_case "binary" `Quick test_binary_transfers;
          Alcotest.test_case "reduce/broadcast/layout" `Quick
            test_reduce_broadcast_layout_transfers;
          Alcotest.test_case "linear" `Quick test_linear_transfers;
          Alcotest.test_case "div by zero flagged" `Quick test_div_by_zero_flagged;
          Alcotest.test_case "log/sqrt of negative flagged" `Quick
            test_log_of_negative_flagged;
          Alcotest.test_case "exp overflow flagged" `Quick test_exp_overflow_flagged;
          Alcotest.test_case "softmax is clean" `Quick test_softmax_is_clean ] );
      ( "liveness",
        [ Alcotest.test_case "dead subgraph flagged" `Quick test_dead_subgraph_flagged ] );
      ( "hazard",
        [ Alcotest.test_case "clean pass" `Quick test_hazard_clean_pass;
          Alcotest.test_case "lifetime overlap rejected" `Quick
            test_hazard_rejects_lifetime_overlap;
          Alcotest.test_case "same-step reuse rejected" `Quick
            test_hazard_rejects_same_step_reuse;
          Alcotest.test_case "truncated lifetime rejected" `Quick
            test_hazard_rejects_truncated_lifetime;
          Alcotest.test_case "lost instance rejected" `Quick
            test_hazard_rejects_lost_instance;
          Alcotest.test_case "slot accessors" `Quick test_slot_accessors ] );
      ("lint", [ Alcotest.test_case "korch-lint/1 JSON" `Quick test_lint_json ]);
      ( "orchestrator",
        [ Alcotest.test_case "zoo clean pass" `Slow test_zoo_clean_pass;
          Alcotest.test_case "analysis fault degrades" `Quick test_analysis_fault_degrades;
          Alcotest.test_case "analysis off" `Quick test_analysis_off_when_invariants_off ] );
    ]
