(* Tests for the benchmark's own helpers: the percentile helper, self-time
   subtraction over nested spans, and metric-name validation. *)

let floats n = List.init n (fun i -> float_of_int (i + 1))

(* ---------------------------- percentiles ------------------------------ *)

let test_median () =
  Alcotest.(check (float 0.0)) "odd count" 2.0 (Bstats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even count averages the middle two" 2.5
    (Bstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Bstats.median [])

let test_percentile () =
  let xs = floats 100 in
  Alcotest.(check (float 0.0)) "p50 nearest rank" 50.0 (Bstats.percentile xs 0.5);
  Alcotest.(check (float 0.0)) "p99 nearest rank" 99.0 (Bstats.percentile xs 0.99);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (Bstats.percentile xs 1.0)

(* The tail is the highest percentile with at least 10 samples beyond it. *)
let test_tail () =
  let q n = fst (Bstats.tail (floats n)) in
  Alcotest.(check (float 0.0)) "1000 samples support p99.9? no: p99" 0.99 (q 1000);
  Alcotest.(check (float 0.0)) "10000 samples support p99.9" 0.999 (q 10000);
  Alcotest.(check (float 0.0)) "999 samples fall back to p95" 0.95 (q 999);
  Alcotest.(check (float 0.0)) "100 samples support p90" 0.9 (q 100);
  Alcotest.(check (float 0.0)) "20 samples support p50" 0.5 (q 20);
  Alcotest.(check (float 0.0)) "19 samples: the maximum" 1.0 (q 19);
  Alcotest.(check (float 0.0)) "maximum value" 19.0 (snd (Bstats.tail (floats 19)));
  Alcotest.(check (float 0.0)) "p90 value of 1..100" 90.0 (snd (Bstats.tail (floats 100)));
  Alcotest.(check string) "label" "p99.9" (Bstats.quantile_label 0.999);
  Alcotest.(check string) "max label" "max" (Bstats.quantile_label 1.0)

(* ----------------------------- self time ------------------------------- *)

let ev ?(tid = 0) ?id name ts dur : Obs.Trace.event =
  {
    Obs.Trace.name;
    cat = "test";
    ts_us = ts;
    dur_us = dur;
    tid;
    args = (match id with Some i -> [ ("id", Obs.Jsonw.Str i) ] | None -> []);
  }

let self_of nodes name =
  match List.find_opt (fun (n : Selftime.node) -> n.Selftime.ev.Obs.Trace.name = name) nodes with
  | Some n -> n.Selftime.self_us
  | None -> Alcotest.fail ("no span " ^ name)

let test_self_time () =
  (* parent [0,100] holds child [10,40] (which holds grand [15,20]) and
     child2 [50,60]; given out of order. *)
  let nodes =
    Selftime.analyze
      [
        ev "grand" 15.0 5.0;
        ev "child2" 50.0 10.0;
        ev ~id:"req1" "parent" 0.0 100.0;
        ev "child" 10.0 30.0;
      ]
  in
  Alcotest.(check (float 1e-9)) "parent minus its direct children" 60.0 (self_of nodes "parent");
  Alcotest.(check (float 1e-9)) "child minus grandchild" 25.0 (self_of nodes "child");
  Alcotest.(check (float 1e-9)) "leaf" 5.0 (self_of nodes "grand");
  Alcotest.(check (float 1e-9)) "second child" 10.0 (self_of nodes "child2");
  let total = List.fold_left (fun a (n : Selftime.node) -> a +. n.Selftime.self_us) 0.0 nodes in
  Alcotest.(check (float 1e-9)) "self times add up to the root" 100.0 total;
  List.iter
    (fun (n : Selftime.node) ->
      Alcotest.(check string) "id inherited from the ancestor" "req1" n.Selftime.id;
      Alcotest.(check string) "root" "parent" n.Selftime.root)
    nodes

let test_self_time_siblings_and_tracks () =
  (* Back-to-back roots do not nest; another track never nests into this
     one even when the intervals overlap. *)
  let nodes =
    Selftime.analyze [ ev "a" 0.0 10.0; ev "b" 10.0 10.0; ev ~tid:1 "c" 2.0 3.0 ]
  in
  Alcotest.(check (float 1e-9)) "a keeps its time" 10.0 (self_of nodes "a");
  Alcotest.(check (float 1e-9)) "b is a root" 10.0 (self_of nodes "b");
  Alcotest.(check (float 1e-9)) "c on its own track" 3.0 (self_of nodes "c");
  let by = Selftime.self_by_name nodes in
  Alcotest.(check (list (pair string (float 1e-9)))) "by name" [ ("a", 10.0); ("b", 10.0); ("c", 3.0) ] by

let test_export_parses () =
  let doc = Obs.Jsonw.to_string (Selftime.export (Selftime.analyze [ ev ~id:"x" "a" 0.0 1.0 ])) in
  let prefix = "{\"traceEvents\":[{\"name\":\"a\"" in
  Alcotest.(check string) "chrome trace document" prefix (String.sub doc 0 (String.length prefix))

(* ------------------------------ names ---------------------------------- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Bstats.valid_name n))
    [ "setup_s"; "ilp.nodes_per_s"; "infer.yolov4.native_ms"; "p99-ms"; "0x" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Bstats.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "a:b"; String.make 65 'a' ]

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest rank" `Quick test_percentile;
          Alcotest.test_case "tail" `Quick test_tail;
        ] );
      ( "self time",
        [
          Alcotest.test_case "nested subtraction" `Quick test_self_time;
          Alcotest.test_case "siblings and tracks" `Quick test_self_time_siblings_and_tracks;
          Alcotest.test_case "export" `Quick test_export_parses;
        ] );
      ("names", [ Alcotest.test_case "metric names" `Quick test_names ]);
    ]
