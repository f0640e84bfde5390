(* Tests for lib/serve: the durable plan cache (atomic publish, corrupt
   recovery, final-over-incumbent), the framed socket protocol, the
   seeded retry policy, latency percentiles, the in-process request
   handler, and — the crash-safety story end to end — a forked daemon
   that is SIGKILL'd mid-request, restarted on the same cache directory,
   and must then serve bit-identical plans from the warm cache with zero
   failed client requests. *)

let tmp_root =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "korch-test-serve-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let fresh_dir name =
  let d = Filename.concat tmp_root name in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* A fast orchestration workload shared by the cache tests. *)
let workload =
  lazy
    (let g = Models.Segformer.attention_subgraph ~batch:1 ~tokens:16 ~channels:8 () in
     let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
     (g, r))

let report_string (r : Korch.Orchestrator.result) = Korch.Report.json_string r

let jsonw_to_json (j : Obs.Jsonw.t) : Onnx.Json.t =
  Onnx.Json.of_string (Obs.Jsonw.to_string j)

let member_str name j =
  match Onnx.Json.member name j with Some (Onnx.Json.Str s) -> Some s | _ -> None

(* ---------------------------- plan cache ---------------------------- *)

let test_cache_roundtrip () =
  let g, r = Lazy.force workload in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir "roundtrip") () in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  Alcotest.(check bool) "cold lookup misses" true (Serve.Plan_cache.lookup cache key = None);
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  (match Serve.Plan_cache.lookup cache key with
  | None -> Alcotest.fail "lookup missed after store"
  | Some e ->
    Alcotest.(check bool) "status is final" true (e.Serve.Plan_cache.status = Serve.Plan_cache.Final);
    let plan_string p = Obs.Jsonw.to_string (Korch.Report.plan_to_json p) in
    Alcotest.(check string) "plan round-trips bit-identically"
      (plan_string r.Korch.Orchestrator.plan) (plan_string e.Serve.Plan_cache.plan);
    Alcotest.(check bool) "report preserved" true (e.Serve.Plan_cache.report <> None));
  let s = Serve.Plan_cache.stats cache in
  Alcotest.(check int) "one hit" 1 s.Serve.Plan_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Serve.Plan_cache.misses;
  Alcotest.(check int) "one store" 1 s.Serve.Plan_cache.stores

let test_cache_key_sensitivity () =
  let g, _ = Lazy.force workload in
  let k b p = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:p ~batch:b in
  Alcotest.(check bool) "same request, same key" true (k 1 "fp32" = k 1 "fp32");
  Alcotest.(check bool) "batch changes the key" true (k 1 "fp32" <> k 2 "fp32");
  Alcotest.(check bool) "precision changes the key" true (k 1 "fp32" <> k 1 "fp16")

(* Keying reads a fold's expression, never its value: folding and keying
   paper-scale yolov4 evaluates no fold. *)
let test_cache_key_evaluates_no_fold () =
  let folds_evaluated = Obs.Metrics.counter "const.folds_evaluated" in
  let e = Option.get (Models.Registry.find "yolov4") in
  let raw = e.Models.Registry.build () in
  let before = Obs.Metrics.count folds_evaluated in
  let g = Fission.Canonicalize.fold_batch_norms raw in
  ignore (Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1);
  Alcotest.(check int) "folds evaluated" 0 (Obs.Metrics.count folds_evaluated - before)

let test_cache_corrupt_recovery () =
  let g, r = Lazy.force workload in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir "corrupt") () in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  let path = Serve.Plan_cache.entry_path cache key in
  (* Simulate a torn write that somehow made it to the entry path. *)
  let oc = open_out_bin path in
  output_string oc "{\"schema\":\"korch-plan-cache/4\", \"trunc";
  close_out oc;
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Serve.Plan_cache.lookup cache key = None);
  Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists path);
  Alcotest.(check int) "corruption counted" 1 (Serve.Plan_cache.stats cache).Serve.Plan_cache.corrupt;
  (* The cache heals: a re-store and lookup work again. *)
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  Alcotest.(check bool) "healed" true (Serve.Plan_cache.lookup cache key <> None);
  (* A fractional prim id is corrupt, not truncated back to a valid id. *)
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let rec find_from i sub =
    if String.sub doc i (String.length sub) = sub then i + String.length sub
    else find_from (i + 1) sub
  in
  let first = find_from (find_from 0 {|"plan":|}) {|"prims":[|} in
  let last = ref first in
  while doc.[!last] >= '0' && doc.[!last] <= '9' do incr last done;
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub doc 0 !last ^ ".25" ^ String.sub doc !last (String.length doc - !last)));
  Alcotest.(check bool) "fractional prim id reads as a miss" true
    (Serve.Plan_cache.lookup cache key = None);
  Alcotest.(check bool) "fractional prim id entry deleted" false (Sys.file_exists path);
  Alcotest.(check int) "fractional prim id counted corrupt" 2
    (Serve.Plan_cache.stats cache).Serve.Plan_cache.corrupt

(* A well-formed entry carrying a FOREIGN schema version (e.g. written
   by an older daemon sharing the cache directory) must degrade to a
   miss without being deleted — only garbage is deleted. *)
let test_cache_version_miss () =
  let g, r = Lazy.force workload in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir "version") () in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  let path = Serve.Plan_cache.entry_path cache key in
  let oc = open_out_bin path in
  output_string oc {|{"schema":"korch-plan-cache/1","status":"final"}|};
  close_out oc;
  Alcotest.(check bool) "foreign version reads as a miss" true
    (Serve.Plan_cache.lookup cache key = None);
  Alcotest.(check bool) "foreign entry NOT deleted" true (Sys.file_exists path);
  let s = Serve.Plan_cache.stats cache in
  Alcotest.(check int) "version miss counted" 1 s.Serve.Plan_cache.version_misses;
  Alcotest.(check int) "not counted as corruption" 0 s.Serve.Plan_cache.corrupt;
  (* A current-version store overwrites the foreign file and serves. *)
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  Alcotest.(check bool) "overwritten entry serves" true
    (Serve.Plan_cache.lookup cache key <> None)

(* Batch-range table entries: store/lookup round-trip, corrupt recovery. *)
let decode_small_build ~batch = Models.Registry.decode.Models.Registry.build_small ~batch ()

let small_table =
  lazy
    (Korch.Plan_table.build Korch.Orchestrator.default_config ~model:"decode"
       ~build:decode_small_build ~lo:1 ~hi:2)

let test_cache_table_roundtrip () =
  let tab = Lazy.force small_table in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir "table") () in
  let key =
    Serve.Plan_cache.table_key ~graph:(decode_small_build ~batch:1) ~gpu:"V100"
      ~precision:"fp32" ~lo:1 ~hi:2
  in
  Alcotest.(check bool) "cold table lookup misses" true
    (Serve.Plan_cache.lookup_table cache key = None);
  Serve.Plan_cache.store_table cache key tab;
  (match Serve.Plan_cache.lookup_table cache key with
  | None -> Alcotest.fail "table lookup missed after store"
  | Some tab' ->
    Alcotest.(check string) "table round-trips bit-identically"
      (Korch.Report.plan_table_json_string tab)
      (Korch.Report.plan_table_json_string tab'));
  (* A torn table file is deleted and served as a miss. *)
  let path = Serve.Plan_cache.table_path cache key in
  let oc = open_out_bin path in
  output_string oc {|{"schema":"korch-plan-cache/4","kind":"table","trunc|};
  close_out oc;
  Alcotest.(check bool) "corrupt table reads as a miss" true
    (Serve.Plan_cache.lookup_table cache key = None);
  Alcotest.(check bool) "corrupt table deleted" false (Sys.file_exists path);
  (* A fixed-batch (kind = "plan") reader must never serve a table file:
     the bumped schema + kind tag keep the namespaces disjoint. *)
  Serve.Plan_cache.store_table cache key tab;
  Alcotest.(check bool) "table file exists again" true
    (Sys.file_exists (Serve.Plan_cache.table_path cache key))

(* A complete entry written under korch-plan-cache/2 holds a plan from the
   node-limited BLP, once labelled final although it may sit above the
   per-segment optimum; a /3 reader cannot decode a fold's "apply" fill.
   Each is a kept version miss, never served. *)
let test_cache_v2_entry_is_version_miss () =
  let g, r = Lazy.force workload in
  List.iter
    (fun old ->
      let cache = Serve.Plan_cache.create ~dir:(fresh_dir ("v" ^ old)) () in
      let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
      Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
        ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
        ~report:(report_string r);
      let path = Serve.Plan_cache.entry_path cache key in
      let doc = In_channel.with_open_bin path In_channel.input_all in
      let current = {|"schema":"korch-plan-cache/4"|} in
      Alcotest.(check string) "entry opens with the current schema" current
        (String.sub doc 1 (String.length current));
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            ({|{"schema":"korch-plan-cache/|} ^ old ^ {|"|}
            ^ String.sub doc (1 + String.length current) (String.length doc - 1 - String.length current)));
      let fresh = Serve.Plan_cache.create ~dir:(Filename.dirname path) () in
      Alcotest.(check bool) ("a /" ^ old ^ " entry reads as a miss") true
        (Serve.Plan_cache.lookup fresh key = None);
      Alcotest.(check bool) ("the /" ^ old ^ " entry is kept") true (Sys.file_exists path);
      let s = Serve.Plan_cache.stats fresh in
      Alcotest.(check int) "version miss counted" 1 s.Serve.Plan_cache.version_misses;
      Alcotest.(check int) "not counted as corruption" 0 s.Serve.Plan_cache.corrupt)
    [ "2"; "3" ]

let test_cache_final_never_downgraded () =
  let g, r = Lazy.force workload in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir "downgrade") () in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  let store status =
    Serve.Plan_cache.store cache key ~status ~graph:r.Korch.Orchestrator.graph
      ~plan:r.Korch.Orchestrator.plan ~report:(report_string r)
  in
  store Serve.Plan_cache.Final;
  store Serve.Plan_cache.Incumbent;
  (match Serve.Plan_cache.lookup cache key with
  | Some e ->
    Alcotest.(check bool) "incumbent does not overwrite final" true
      (e.Serve.Plan_cache.status = Serve.Plan_cache.Final)
  | None -> Alcotest.fail "entry vanished");
  (* The other direction must overwrite. *)
  let cache2 = Serve.Plan_cache.create ~dir:(fresh_dir "upgrade") () in
  Serve.Plan_cache.store cache2 key ~status:Serve.Plan_cache.Incumbent
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  Serve.Plan_cache.store cache2 key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  match Serve.Plan_cache.lookup cache2 key with
  | Some e ->
    Alcotest.(check bool) "final overwrites incumbent" true
      (e.Serve.Plan_cache.status = Serve.Plan_cache.Final)
  | None -> Alcotest.fail "entry vanished"

let test_cache_io_fault_seam () =
  let g, r = Lazy.force workload in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir "io-fault") () in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  Faults.with_policy ~seed:1 [ (Faults.Cache_io, Faults.Always) ] (fun () ->
      Alcotest.(check bool) "faulted lookup is a miss, not an error" true
        (Serve.Plan_cache.lookup cache key = None);
      (* A faulted store is skipped, not raised. *)
      Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
        ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
        ~report:(report_string r));
  Alcotest.(check bool) "entry still served once the fault clears" true
    (Serve.Plan_cache.lookup cache key <> None);
  Alcotest.(check bool) "io faults counted" true
    ((Serve.Plan_cache.stats cache).Serve.Plan_cache.io_faults >= 2)

(* A store remembers the entry it was given; a cache with no memory of
   it decodes the file to a structurally equal graph and plan. *)
let test_cache_store_seeds_memo () =
  let g, r = Lazy.force workload in
  let dir = fresh_dir "seed" in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  let cache = Serve.Plan_cache.create ~dir () in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
    ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
    ~report:(report_string r);
  let hit c = match Serve.Plan_cache.lookup c key with Some e -> e | None -> Alcotest.fail "miss" in
  let seeded = hit cache in
  Alcotest.(check bool) "the first hit serves the stored graph" true
    (seeded.Serve.Plan_cache.graph == r.Korch.Orchestrator.graph);
  Alcotest.(check bool) "the first hit serves the stored plan" true
    (seeded.Serve.Plan_cache.plan == r.Korch.Orchestrator.plan);
  let decoded = hit (Serve.Plan_cache.create ~dir ()) in
  Alcotest.(check bool) "a fresh cache decodes another graph" true
    (decoded.Serve.Plan_cache.graph != seeded.Serve.Plan_cache.graph);
  Alcotest.(check bool) "decoded graph = seeded graph" true
    (decoded.Serve.Plan_cache.graph = seeded.Serve.Plan_cache.graph);
  Alcotest.(check bool) "decoded plan = seeded plan" true
    (decoded.Serve.Plan_cache.plan = seeded.Serve.Plan_cache.plan);
  Alcotest.(check bool) "decoded report = seeded report" true
    (decoded.Serve.Plan_cache.report = seeded.Serve.Plan_cache.report)

(* A repeat lookup of unchanged entry bytes reuses the entry checked the
   first time; any other content at the path gets the full check. *)

let write_file path contents = Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let stored_cache name =
  let g, r = Lazy.force workload in
  let cache = Serve.Plan_cache.create ~dir:(fresh_dir name) () in
  let key = Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1 in
  let store () =
    Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
      ~graph:r.Korch.Orchestrator.graph ~plan:r.Korch.Orchestrator.plan
      ~report:(report_string r)
  in
  store ();
  (cache, key, store)

let validations cache = (Serve.Plan_cache.stats cache).Serve.Plan_cache.validations

(* Store, then hit once so the entry's bytes are remembered. *)
let memoized_hit cache key store =
  store ();
  Alcotest.(check bool) "memoized hit" true (Serve.Plan_cache.lookup cache key <> None)

let test_cache_memo_validates_once () =
  let cache, key, _ = stored_cache "memo-once" in
  for _ = 1 to 10 do
    Alcotest.(check bool) "hit" true (Serve.Plan_cache.lookup cache key <> None)
  done;
  Alcotest.(check int) "ten hits, one validation" 1 (validations cache);
  Alcotest.(check int) "ten hits counted" 10 (Serve.Plan_cache.stats cache).Serve.Plan_cache.hits;
  let stats = jsonw_to_json (Serve.Plan_cache.stats_to_json cache) in
  Alcotest.(check bool) "validations in stats_to_json" true
    (Onnx.Json.member "validations" stats = Some (Onnx.Json.Num 1.0))

let test_cache_memo_rechecks_changed_bytes () =
  let cache, key, store = stored_cache "memo-changed" in
  let path = Serve.Plan_cache.entry_path cache key in
  let stats () = Serve.Plan_cache.stats cache in
  (* Garbage over a memoized entry: deleted and counted corrupt. *)
  memoized_hit cache key store;
  write_file path "{\"schema\":\"korch-plan-cache/4\", \"trunc";
  Alcotest.(check bool) "garbage is a miss" true (Serve.Plan_cache.lookup cache key = None);
  Alcotest.(check bool) "garbage deleted" false (Sys.file_exists path);
  Alcotest.(check int) "garbage counted corrupt" 1 (stats ()).Serve.Plan_cache.corrupt;
  (* A different valid entry over a memoized one is served. *)
  memoized_hit cache key store;
  let _, r = Lazy.force workload in
  let g = r.Korch.Orchestrator.graph in
  let unfused =
    Runtime.Plan.make
      (List.map
         (fun id ->
           { Runtime.Plan.prims = [ id ]; outputs = [ id ]; latency_us = 1.0; backend = "unfused" })
         (Ir.Primgraph.non_source_nodes g))
  in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final ~graph:g ~plan:unfused ~report:"";
  (match Serve.Plan_cache.lookup cache key with
  | Some e ->
    Alcotest.(check int) "the new plan is served" (Runtime.Plan.kernel_count unfused)
      (Runtime.Plan.kernel_count e.Serve.Plan_cache.plan)
  | None -> Alcotest.fail "the new valid entry missed");
  (* A foreign schema version over a memoized entry: a kept version miss. *)
  memoized_hit cache key store;
  write_file path {|{"schema":"korch-plan-cache/1","status":"final"}|};
  Alcotest.(check bool) "foreign version is a miss" true (Serve.Plan_cache.lookup cache key = None);
  Alcotest.(check bool) "foreign version kept" true (Sys.file_exists path);
  Alcotest.(check int) "version miss counted" 1 (stats ()).Serve.Plan_cache.version_misses;
  (* An injected fault is still a miss over a memoized entry. *)
  memoized_hit cache key store;
  let faults = (stats ()).Serve.Plan_cache.io_faults in
  Faults.with_policy ~seed:1 [ (Faults.Cache_io, Faults.Always) ] (fun () ->
      Alcotest.(check bool) "faulted lookup is a miss" true
        (Serve.Plan_cache.lookup cache key = None));
  Alcotest.(check int) "fault counted" (faults + 1) (stats ()).Serve.Plan_cache.io_faults;
  Alcotest.(check bool) "served again once the fault clears" true
    (Serve.Plan_cache.lookup cache key <> None)

(* Every malformed-plans row written over a memoized entry is rejected on
   its first lookup. *)
let test_cache_memo_rejects_malformed () =
  let cache, key, store = stored_cache "memo-malformed" in
  let path = Serve.Plan_cache.entry_path cache key in
  List.iteri
    (fun i (row : Malformed_plans.row) ->
      memoized_hit cache key store;
      Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final
        ~graph:row.Malformed_plans.graph ~plan:row.Malformed_plans.plan ~report:"";
      Alcotest.(check bool) (row.Malformed_plans.name ^ ": a miss") true
        (Serve.Plan_cache.lookup cache key = None);
      Alcotest.(check bool) (row.Malformed_plans.name ^ ": deleted") false (Sys.file_exists path);
      Alcotest.(check int) (row.Malformed_plans.name ^ ": counted corrupt") (i + 1)
        (Serve.Plan_cache.stats cache).Serve.Plan_cache.corrupt)
    (Lazy.force Malformed_plans.rows)

(* Hits share the remembered entry, so running one must not change what
   the next hit runs. *)
let test_cache_memo_entry_not_mutated () =
  let cache, key, _ = stored_cache "memo-shared" in
  let run_hit ~reuse =
    match Serve.Plan_cache.lookup cache key with
    | None -> Alcotest.fail "hit expected"
    | Some e ->
      let g = e.Serve.Plan_cache.graph in
      let inputs =
        Array.to_list g.Ir.Graph.nodes
        |> List.filter_map (fun (nd : _ Ir.Graph.node) ->
               match nd.Ir.Graph.op with
               | Ir.Primitive.Input name ->
                 Some (name, Tensor.Nd.randn (Tensor.Rng.create 7) nd.Ir.Graph.shape)
               | _ -> None)
      in
      Runtime.Executor.run ~reuse g e.Serve.Plan_cache.plan ~inputs
      |> List.map (fun nd ->
             List.init (Tensor.Nd.numel nd) (fun i ->
                 Int64.bits_of_float (Tensor.Nd.get_linear nd i)))
  in
  let first = run_hit ~reuse:true in
  let second = run_hit ~reuse:false in
  let third = run_hit ~reuse:true in
  Alcotest.(check int) "one validation" 1 (validations cache);
  Alcotest.(check bool) "second hit's outputs bit-identical" true (first = second);
  Alcotest.(check bool) "third hit's outputs bit-identical" true (first = third)

(* ----------------------------- protocol ----------------------------- *)

let test_protocol_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let doc =
    Obs.Jsonw.Obj
      [ ("verb", Obs.Jsonw.Str "optimize"); ("model", Obs.Jsonw.Str "candy");
        ("deadline_ms", Obs.Jsonw.Float 12.5) ]
  in
  Serve.Protocol.write_frame a doc;
  Serve.Protocol.write_frame a doc;
  (match Serve.Protocol.read_frame b with
  | Some j -> Alcotest.(check (option string)) "payload survives" (Some "candy") (member_str "model" j)
  | None -> Alcotest.fail "unexpected EOF");
  (match Serve.Protocol.read_frame b with
  | Some _ -> ()
  | None -> Alcotest.fail "second frame lost");
  Unix.close a;
  Alcotest.(check bool) "clean EOF between frames is None" true
    (Serve.Protocol.read_frame b = None);
  Unix.close b

let test_protocol_truncation () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let encoded = Serve.Protocol.encode (Obs.Jsonw.Obj [ ("verb", Obs.Jsonw.Str "health") ]) in
  (* Send the header plus half the payload, then kill the connection. *)
  let cut = 4 + ((String.length encoded - 4) / 2) in
  let _ = Unix.write_substring a encoded 0 cut in
  Unix.close a;
  (match Serve.Protocol.read_frame b with
  | exception Serve.Protocol.Frame_error _ -> ()
  | Some _ -> Alcotest.fail "truncated frame parsed"
  | None -> Alcotest.fail "truncated frame read as clean EOF");
  Unix.close b

let test_protocol_oversize () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Serve.Protocol.header (Serve.Protocol.max_frame_bytes + 1) in
  let _ = Unix.write_substring a hdr 0 4 in
  (match Serve.Protocol.read_frame b with
  | exception Serve.Protocol.Frame_error _ -> ()
  | _ -> Alcotest.fail "oversize frame accepted");
  Unix.close a;
  Unix.close b

(* ------------------------------ retry ------------------------------- *)

let test_retry_deterministic () =
  let p = { Serve.Retry.default with Serve.Retry.attempts = 6 } in
  let delays salt = List.init 6 (fun i -> Serve.Retry.delay_s p ~salt ~attempt:(i + 1)) in
  Alcotest.(check bool) "same policy, same delays" true (delays 3 = delays 3);
  Alcotest.(check bool) "salt moves the jitter" true (delays 3 <> delays 4);
  List.iteri
    (fun i d ->
      let base =
        Float.min p.Serve.Retry.max_delay_s
          (p.Serve.Retry.base_delay_s *. (p.Serve.Retry.multiplier ** float_of_int i))
      in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within jitter band" (i + 1))
        true
        (d >= base *. (1.0 -. p.Serve.Retry.jitter) -. 1e-9
        && d <= base *. (1.0 +. p.Serve.Retry.jitter) +. 1e-9))
    (delays 3)

let test_retry_gives_up () =
  let p =
    { Serve.Retry.default with Serve.Retry.attempts = 3; base_delay_s = 0.001; max_delay_s = 0.002 }
  in
  let calls = ref 0 in
  (match
     Serve.Retry.with_retries ~policy:p
       ~retryable:(fun _ -> true)
       (fun () ->
         incr calls;
         failwith "nope")
   with
  | _ -> Alcotest.fail "should have raised"
  | exception Failure _ -> ());
  Alcotest.(check int) "every attempt consumed" 3 !calls;
  (* Non-retryable exceptions escape on the first attempt. *)
  let calls = ref 0 in
  (match
     Serve.Retry.with_retries ~policy:p
       ~retryable:(fun _ -> false)
       (fun () ->
         incr calls;
         failwith "fatal")
   with
  | _ -> Alcotest.fail "should have raised"
  | exception Failure _ -> ());
  Alcotest.(check int) "no retry on non-retryable" 1 !calls

(* ---------------------------- percentile ---------------------------- *)

let test_percentile () =
  let h = Obs.Metrics.histogram ~bounds:[| 1.0; 10.0; 100.0 |] "test.serve.percentile" in
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0
    (Obs.Metrics.percentile
       (List.assoc "test.serve.percentile" (Obs.Metrics.snapshot ()).Obs.Metrics.histograms)
       0.5);
  for _ = 1 to 50 do
    Obs.Metrics.observe h 0.5
  done;
  for _ = 1 to 50 do
    Obs.Metrics.observe h 50.0
  done;
  let snap =
    List.assoc "test.serve.percentile" (Obs.Metrics.snapshot ()).Obs.Metrics.histograms
  in
  let p25 = Obs.Metrics.percentile snap 0.25 in
  let p99 = Obs.Metrics.percentile snap 0.99 in
  Alcotest.(check bool) "p25 in the low bucket" true (p25 <= 1.0);
  Alcotest.(check bool) "p99 in the high bucket" true (p99 > 10.0 && p99 <= 100.0);
  Alcotest.(check bool) "percentiles are monotone" true (p25 <= p99)

(* ------------------------- in-process server ------------------------- *)

let handle_server t req = jsonw_to_json (Serve.Server.handle t req)

let make_server name =
  Serve.Server.create
    {
      Serve.Server.default_config with
      Serve.Server.cache_dir = fresh_dir name;
      socket_path = Filename.concat (fresh_dir name) "unused.sock";
      jobs = 1;
    }

let request ?model ?deadline_ms ?(small = true) ?(no_cache = false) ?batch_lo ?batch_hi
    verb =
  jsonw_to_json
    (Serve.Protocol.request_to_json
       { Serve.Protocol.default_request with Serve.Protocol.verb; model; small; deadline_ms;
         no_cache; batch_lo; batch_hi })

let test_handle_ladder () =
  let t = make_server "handler" in
  let cold = handle_server t (request ~model:"candy" "optimize") in
  Alcotest.(check (option string)) "cold is a miss" (Some "miss") (member_str "cache" cold);
  let warm = handle_server t (request ~model:"candy" "optimize") in
  Alcotest.(check (option string)) "warm is a hit" (Some "hit") (member_str "cache" warm);
  Alcotest.(check bool) "cold and warm plans bit-identical" true
    (Option.map Onnx.Json.to_string (Onnx.Json.member "plan" cold)
    = Option.map Onnx.Json.to_string (Onnx.Json.member "plan" warm));
  let ran = handle_server t (request ~model:"candy" "run") in
  Alcotest.(check (option string)) "run succeeds" (Some "ok") (member_str "status" ran);
  Alcotest.(check bool) "run returns outputs" true (Onnx.Json.member "outputs" ran <> None)

(* A new key's miss and its first hit run one plan object: the executor
   prepares it once. *)
let test_handle_miss_then_hit_prepares_once () =
  let prepared = Obs.Metrics.counter "executor.plans_prepared" in
  let t = make_server "prepare-once" in
  let before = Obs.Metrics.count prepared in
  let miss = handle_server t (request ~model:"decode" "run") in
  Alcotest.(check (option string)) "first run misses" (Some "miss") (member_str "cache" miss);
  let hit = handle_server t (request ~model:"decode" "run") in
  Alcotest.(check (option string)) "second run hits" (Some "hit") (member_str "cache" hit);
  Alcotest.(check int) "prepared once" 1 (Obs.Metrics.count prepared - before);
  Alcotest.(check bool) "same outputs" true
    (Onnx.Json.member "outputs" miss = Onnx.Json.member "outputs" hit)

(* An entry whose first kernel executes the graph's Input node parses
   but fails Runtime.Plan.check: the lookup must count it corrupt and
   delete it, and the request re-orchestrates and re-publishes the cold
   plan instead of serving a plan that cannot run. *)
let test_handle_source_node_entry () =
  let t = make_server "source-node-entry" in
  let cold = handle_server t (request ~model:"candy" "optimize") in
  let cache = Serve.Server.cache t in
  let graph =
    match Models.Registry.find "candy" with
    | Some e -> Fission.Canonicalize.fold_batch_norms (e.Models.Registry.build_small ())
    | None -> Alcotest.fail "candy not in the zoo"
  in
  let key =
    Serve.Plan_cache.key ~graph ~gpu:Gpu.Spec.v100.Gpu.Spec.name
      ~precision:(Gpu.Precision.to_string Gpu.Precision.FP32) ~batch:1
  in
  let e =
    match Serve.Plan_cache.lookup cache key with
    | Some e -> e
    | None -> Alcotest.fail "cold optimize did not publish"
  in
  let g = e.Serve.Plan_cache.graph in
  let src =
    List.find
      (fun i -> Ir.Primitive.is_source (Ir.Graph.op g i))
      (List.init (Ir.Graph.length g) Fun.id)
  in
  let bad =
    match e.Serve.Plan_cache.plan.Runtime.Plan.kernels with
    | k :: rest -> Runtime.Plan.make ({ k with Runtime.Plan.prims = src :: k.Runtime.Plan.prims } :: rest)
    | [] -> Alcotest.fail "empty plan"
  in
  Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final ~graph:g ~plan:bad ~report:"";
  let corrupt () = (Serve.Plan_cache.stats cache).Serve.Plan_cache.corrupt in
  let before = corrupt () in
  let repaired = handle_server t (request ~model:"candy" "optimize") in
  Alcotest.(check (option string)) "bad entry is a miss" (Some "miss") (member_str "cache" repaired);
  Alcotest.(check int) "counted as corrupt" (before + 1) (corrupt ());
  Alcotest.(check bool) "re-orchestrated plan equals the cold plan" true
    (Option.map Onnx.Json.to_string (Onnx.Json.member "plan" cold)
    = Option.map Onnx.Json.to_string (Onnx.Json.member "plan" repaired));
  let warm = handle_server t (request ~model:"candy" "optimize") in
  Alcotest.(check (option string)) "re-published entry hits" (Some "hit") (member_str "cache" warm);
  Alcotest.(check int) "no further corruption" (before + 1) (corrupt ())

let test_handle_table () =
  let t = make_server "table-verb" in
  let cold = handle_server t (request ~model:"decode" ~batch_hi:2 "table") in
  Alcotest.(check (option string)) "cold table is ok" (Some "ok") (member_str "status" cold);
  Alcotest.(check (option string)) "cold table is a miss" (Some "miss")
    (member_str "cache" cold);
  (match Onnx.Json.member "ranges" cold with
  | Some (Onnx.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "table response carries at least one range");
  Alcotest.(check bool) "crossovers present" true
    (Onnx.Json.member "crossovers" cold <> None);
  let warm = handle_server t (request ~model:"decode" ~batch_hi:2 "table") in
  Alcotest.(check (option string)) "warm table is a hit" (Some "hit")
    (member_str "cache" warm);
  Alcotest.(check bool) "cold and warm summaries identical" true
    (Option.map Onnx.Json.to_string (Onnx.Json.member "ranges" cold)
    = Option.map Onnx.Json.to_string (Onnx.Json.member "ranges" warm))

let test_handle_table_client_errors () =
  let t = make_server "table-errors" in
  (* Tables need a named zoo model — inline graphs cannot be rebuilt at
     every probe batch. *)
  let no_model = handle_server t (request ~batch_hi:2 "table") in
  Alcotest.(check (option string)) "missing model is an error" (Some "error")
    (member_str "status" no_model);
  let no_hi = handle_server t (request ~model:"decode" "table") in
  Alcotest.(check (option string)) "missing batch_hi is an error" (Some "error")
    (member_str "status" no_hi);
  let bad_range = handle_server t (request ~model:"decode" ~batch_lo:4 ~batch_hi:2 "table") in
  Alcotest.(check (option string)) "inverted range is an error" (Some "error")
    (member_str "status" bad_range)

let test_handle_client_errors () =
  let t = make_server "errors" in
  let bad_model = handle_server t (request ~model:"no-such-model" "optimize") in
  Alcotest.(check (option string)) "unknown model is an error" (Some "error")
    (member_str "status" bad_model);
  let bad_verb = handle_server t (request "frobnicate") in
  Alcotest.(check (option string)) "unknown verb is an error" (Some "error")
    (member_str "status" bad_verb);
  let no_workload = handle_server t (request "optimize") in
  Alcotest.(check (option string)) "missing workload is an error" (Some "error")
    (member_str "status" no_workload);
  (* A document that parses but holds a Transpose permutation shape
     inference refuses is the client's fault, not a [retry] of a request
     that can never succeed. *)
  let bad_doc =
    handle_server t
      (jsonw_to_json
         (Serve.Protocol.request_to_json
            { Serve.Protocol.default_request with Serve.Protocol.verb = "optimize";
              graph_doc =
                Some
                  {|{"format":"korch-onnx-json","kind":"operator","nodes":[
                     {"op":{"kind":"Input","name":"x"},"inputs":[],"shape":[2,3]},
                     {"op":{"kind":"Transpose","perm":[0,5]},"inputs":[0],"shape":[3,2]}],
                     "outputs":[1]}|} }))
  in
  Alcotest.(check (option string)) "invalid graph document is an error" (Some "error")
    (member_str "status" bad_doc);
  (* A wrong-typed member is an error, never its default. *)
  List.iter
    (fun member ->
      let resp =
        handle_server t
          (Onnx.Json.of_string
             (Printf.sprintf {|{"verb":"optimize","model":"candy",%s}|} member))
      in
      Alcotest.(check (option string)) (member ^ " is an error") (Some "error")
        (member_str "status" resp))
    [
      {|"small":true,"batch":"8"|};
      {|"small":true,"batch":2.5|};
      {|"small":"yes"|};
      {|"small":true,"deadline_ms":"5"|};
    ]

(* An injected onnx_parse fault on an inline document is transient: the
   request is answered [retry], not blamed on the client. *)
let test_handle_injected_parse_fault_retries () =
  let t = make_server "parse-fault" in
  let req =
    jsonw_to_json
      (Serve.Protocol.request_to_json
         { Serve.Protocol.default_request with Serve.Protocol.verb = "optimize";
           graph_doc =
             Some
               (Onnx.Graph_doc.opgraph_to_string
                  (Models.Segformer.attention_subgraph ~batch:1 ~tokens:8 ~channels:8 ())) })
  in
  let resp =
    Faults.with_policy [ (Faults.Onnx_parse, Faults.Always) ] (fun () -> handle_server t req)
  in
  Alcotest.(check (option string)) "injected parse fault is retry" (Some "retry")
    (member_str "status" resp)

let test_handle_deadline_under_faults () =
  let t = make_server "deadline" in
  Faults.with_policy ~seed:1
    [
      (Faults.Serve_accept, Faults.Always);
      (Faults.Cache_io, Faults.Always);
      (Faults.Solve, Faults.Always);
    ]
    (fun () ->
      let resp =
        handle_server t (request ~model:"candy" ~deadline_ms:5.0 ~no_cache:true "run")
      in
      (match member_str "status" resp with
      | Some ("ok" | "degraded") -> ()
      | s -> Alcotest.fail (Printf.sprintf "expected a served plan, got status %s"
                              (Option.value s ~default:"<none>")));
      Alcotest.(check (option string)) "admission seam recorded" (Some "degraded")
        (member_str "admission" resp);
      Alcotest.(check bool) "plan present" true (Onnx.Json.member "plan" resp <> None);
      Alcotest.(check bool) "outputs present" true (Onnx.Json.member "outputs" resp <> None))

let test_stats_shape () =
  let t = make_server "stats" in
  ignore (handle_server t (request ~model:"candy" "optimize"));
  let stats = jsonw_to_json (Serve.Server.stats_response t) in
  let mem path j =
    List.fold_left (fun acc k -> Option.bind acc (Onnx.Json.member k)) (Some j) path
  in
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (String.concat "." path ^ " present")
        true
        (mem path stats <> None))
    [
      [ "latency_us"; "optimize"; "p50_us" ];
      [ "latency_us"; "optimize"; "p99_us" ];
      [ "latency_us"; "run" ];
      [ "queue"; "depth" ];
      [ "queue"; "limit" ];
      [ "cache"; "hit_rate" ];
      [ "cache"; "validations" ];
      [ "tiers"; "cached" ];
    ];
  (* Each member reads its counter: a renamed metric cannot read 0. *)
  List.iter
    (fun (path, name) ->
      let n = Obs.Metrics.count (Obs.Metrics.counter name) in
      Alcotest.(check bool) (name ^ " counted the request") true (n >= 1);
      Alcotest.(check (option (float 0.0)))
        (String.concat "." path ^ " = " ^ name)
        (Some (float_of_int n))
        (match mem path stats with Some (Onnx.Json.Num v) -> Some v | _ -> None))
    [ ([ "requests" ], "serve.requests.total"); ([ "tiers"; "orchestrated" ], "serve.tier.orchestrated") ]

(* The server remembers each named zoo request's graph hash; it must be the
   hash a fresh build gives. Each request's fresh key gets its own entry
   (the workload plan with a distinct kernel latency), so serving that
   entry on both the first request (hash computed) and the second (hash
   remembered) proves both keys equal the fresh one. Every zoo model at
   test scale, and paper-scale decode (built and hashed, never
   orchestrated), whose graph changes with the batch. *)
let test_handle_memo_key_matches () =
  let _, r = Lazy.force workload in
  let t = make_server "memo-key" in
  let cases =
    List.concat_map
      (fun (e : Models.Registry.entry) ->
        List.map
          (fun (small, batch) -> (e, small, batch))
          (if e.Models.Registry.name = "decode" then
             [ (true, 1); (true, 2); (false, 1); (false, 2) ]
           else [ (true, 1); (true, 2) ]))
      Models.Registry.all
  in
  let requests =
    List.mapi
      (fun i ((e : Models.Registry.entry), small, batch) ->
        let graph =
          if small then e.Models.Registry.build_small () else e.Models.Registry.build ~batch ()
        in
        let key =
          Serve.Plan_cache.key ~graph:(Fission.Canonicalize.fold_batch_norms graph)
            ~gpu:Gpu.Spec.v100.Gpu.Spec.name
            ~precision:(Gpu.Precision.to_string Gpu.Precision.FP32) ~batch
        in
        let plan =
          Runtime.Plan.make
            (List.map
               (fun k -> { k with Runtime.Plan.latency_us = float_of_int (i + 1) })
               r.Korch.Orchestrator.plan.Runtime.Plan.kernels)
        in
        Serve.Plan_cache.store (Serve.Server.cache t) key ~status:Serve.Plan_cache.Final
          ~graph:r.Korch.Orchestrator.graph ~plan ~report:"";
        ( Printf.sprintf "%s%s b%d" e.Models.Registry.name (if small then " small" else "") batch,
          plan.Runtime.Plan.total_latency_us,
          jsonw_to_json
            (Serve.Protocol.request_to_json
               { Serve.Protocol.default_request with Serve.Protocol.verb = "optimize";
                 model = Some e.Models.Registry.name; small; batch }) ))
      cases
  in
  List.iter
    (fun which ->
      List.iter
        (fun (label, latency, req) ->
          let resp = handle_server t req in
          Alcotest.(check (option string)) (label ^ ", " ^ which ^ " request hits") (Some "hit")
            (member_str "cache" resp);
          Alcotest.(check bool) (label ^ ", " ^ which ^ " request serves its own entry") true
            (Onnx.Json.member "plan_latency_us" resp = Some (Onnx.Json.Num latency)))
        requests)
    [ "first"; "second" ]

let test_handle_unknown_model_twice () =
  let t = make_server "memo-unknown" in
  for i = 1 to 2 do
    Alcotest.(check (option string))
      (Printf.sprintf "unknown model request %d is an error" i)
      (Some "error")
      (member_str "status" (handle_server t (request ~model:"no-such-model" "optimize")))
  done

(* Inline graph documents are hashed on every request: two different
   documents get two keys. *)
let test_handle_graph_docs_keyed () =
  let t = make_server "memo-graph-doc" in
  let doc tokens =
    jsonw_to_json
      (Serve.Protocol.request_to_json
         { Serve.Protocol.default_request with Serve.Protocol.verb = "optimize";
           graph_doc =
             Some
               (Onnx.Graph_doc.opgraph_to_string
                  (Models.Segformer.attention_subgraph ~batch:1 ~tokens ~channels:8 ())) })
  in
  let cache_state tokens = member_str "cache" (handle_server t (doc tokens)) in
  Alcotest.(check (option string)) "first document misses" (Some "miss") (cache_state 16);
  Alcotest.(check (option string)) "second document misses" (Some "miss") (cache_state 8);
  Alcotest.(check (option string)) "first document hits" (Some "hit") (cache_state 16);
  Alcotest.(check (option string)) "second document hits" (Some "hit") (cache_state 8)

(* A document holding an infinity ("alpha":1e999 parses to +inf) is
   stored with it and served from the cache on the next request. *)
let test_handle_non_finite_graph_hits () =
  let t = make_server "non-finite" in
  let req =
    jsonw_to_json
      (Serve.Protocol.request_to_json
         { Serve.Protocol.default_request with Serve.Protocol.verb = "optimize";
           graph_doc =
             Some
               {|{"format":"korch-onnx-json","kind":"operator","nodes":[
                  {"op":{"kind":"Input","name":"input"},"inputs":[],"shape":[1,4]},
                  {"op":{"kind":"LeakyRelu","alpha":1e999},"inputs":[0],"shape":[1,4]}],
                  "outputs":[1]}|} })
  in
  Alcotest.(check (option string)) "first request misses" (Some "miss")
    (member_str "cache" (handle_server t req));
  Alcotest.(check (option string)) "second request hits" (Some "hit")
    (member_str "cache" (handle_server t req));
  Alcotest.(check int) "no entry read as corrupt" 0
    (Serve.Plan_cache.stats (Serve.Server.cache t)).Serve.Plan_cache.corrupt

(* Conv + BatchNorm whose variance folds (var + eps = 0, or < 0) to
   infinite or NaN weights: the two graphs must not share a key. *)
let test_folded_non_finite_keys () =
  let key var =
    let b = Ir.Opgraph.B.create () in
    let x = Ir.Opgraph.B.input b "input" [| 1; 2; 4; 4 |] in
    let const c = Ir.Opgraph.B.const b c in
    let w = const (Ir.Const.randn [| 2; 2; 3; 3 |] 5) in
    let conv =
      Ir.Opgraph.B.add b
        (Ir.Optype.Conv { stride = (1, 1); padding = (1, 1); bias = false })
        [ x; w ]
    in
    let s = [| 2 |] in
    let bn =
      Ir.Opgraph.B.add b (Ir.Optype.BatchNormInference 1e-5)
        [ conv; const (Ir.Const.ones s); const (Ir.Const.zeros s); const (Ir.Const.zeros s);
          const (Ir.Const.value s var) ]
    in
    Ir.Opgraph.B.set_outputs b [ bn ];
    let g = Fission.Canonicalize.fold_batch_norms (Ir.Opgraph.B.finish b) in
    Serve.Plan_cache.key ~graph:g ~gpu:"V100" ~precision:"fp32" ~batch:1
  in
  Alcotest.(check bool) "inf and NaN weights keyed apart" false (key (-1e-5) = key (-1.0))

(* --------------------------- daemon, forked --------------------------- *)

(* Fork a child that runs the real socket server; return its pid. *)
let spawn_daemon ~socket ~cache_dir =
  match Unix.fork () with
  | 0 ->
    (try
       Serve.Server.run
         {
           Serve.Server.default_config with
           Serve.Server.socket_path = socket;
           cache_dir;
           jobs = 1;
           queue_limit = 4;
         }
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let client_policy =
  (* Fast, bounded: worst case ~2s of backoff across 8 attempts. *)
  { Serve.Retry.default with Serve.Retry.attempts = 8; base_delay_s = 0.02; max_delay_s = 0.5 }

let test_daemon_kill9_warm_restart () =
  let dir = fresh_dir "daemon" in
  let socket = Filename.concat dir "serve.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let failed_requests = ref 0 in
  let ask req =
    match
      Serve.Client.request ~policy:client_policy ~socket (Serve.Protocol.request_to_json req)
    with
    | resp ->
      (match member_str "status" resp with
      | Some ("ok" | "degraded" | "draining") -> ()
      | _ -> incr failed_requests);
      resp
    | exception _ ->
      incr failed_requests;
      Onnx.Json.Null
  in
  let optimize =
    { Serve.Protocol.default_request with Serve.Protocol.verb = "optimize";
      model = Some "candy"; small = true }
  in
  (* Generation 1: cold orchestration, then SIGKILL mid-request. *)
  let pid1 = spawn_daemon ~socket ~cache_dir in
  Serve.Client.wait_ready ~timeout_s:30.0 ~socket ();
  let cold = ask optimize in
  Alcotest.(check (option string)) "gen1 cold miss" (Some "miss") (member_str "cache" cold);
  (* Fire a request and kill the daemon while it is being handled: the
     client must absorb the torn connection and succeed against the
     restarted daemon. *)
  let victim = { optimize with Serve.Protocol.model = Some "candy"; no_cache = true } in
  let clientpid =
    match Unix.fork () with
    | 0 ->
      let resp = ask victim in
      Unix._exit (match member_str "status" resp with Some ("ok" | "degraded") -> 0 | _ -> 1)
    | pid -> pid
  in
  Unix.sleepf 0.05;
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  (* Generation 2: same socket path (now stale), same cache directory. *)
  let pid2 = spawn_daemon ~socket ~cache_dir in
  Serve.Client.wait_ready ~timeout_s:30.0 ~socket ();
  let _, client_status = Unix.waitpid [] clientpid in
  Alcotest.(check bool) "mid-request client survived the kill" true
    (client_status = Unix.WEXITED 0);
  let warm = ask optimize in
  Alcotest.(check (option string)) "gen2 serves from the durable cache" (Some "hit")
    (member_str "cache" warm);
  Alcotest.(check (option string)) "gen2 tier is cached" (Some "cached")
    (member_str "tier" warm);
  Alcotest.(check bool) "gen1/gen2 plans bit-identical" true
    (Option.map Onnx.Json.to_string (Onnx.Json.member "plan" cold)
    = Option.map Onnx.Json.to_string (Onnx.Json.member "plan" warm));
  (* Stats from the restarted daemon must show the warm hit. *)
  let stats =
    ask { Serve.Protocol.default_request with Serve.Protocol.verb = "stats" }
  in
  (match Option.bind (Onnx.Json.member "cache" stats) (Onnx.Json.member "hits") with
  | Some (Onnx.Json.Num n) ->
    Alcotest.(check bool) "restarted daemon counts the hit" true (n >= 1.0)
  | _ -> Alcotest.fail "stats.cache.hits missing");
  (* Drain and wait for a clean exit. *)
  ignore (ask { Serve.Protocol.default_request with Serve.Protocol.verb = "drain" });
  let _, st = Unix.waitpid [] pid2 in
  Alcotest.(check bool) "daemon drained cleanly" true (st = Unix.WEXITED 0);
  Alcotest.(check int) "zero failed client requests" 0 !failed_requests

let () =
  Alcotest.run "serve"
    [
      ( "plan-cache",
        [
          Alcotest.test_case "store/lookup roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "keying paper-scale yolov4 evaluates no fold" `Quick
            test_cache_key_evaluates_no_fold;
          Alcotest.test_case "corrupt entry recovery" `Quick test_cache_corrupt_recovery;
          Alcotest.test_case "foreign schema version is a kept miss" `Quick
            test_cache_version_miss;
          Alcotest.test_case "a korch-plan-cache/2 entry is a version miss" `Quick
            test_cache_v2_entry_is_version_miss;
          Alcotest.test_case "plan-table store/lookup roundtrip" `Quick
            test_cache_table_roundtrip;
          Alcotest.test_case "final never downgraded" `Quick test_cache_final_never_downgraded;
          Alcotest.test_case "cache_io fault seam" `Quick test_cache_io_fault_seam;
          Alcotest.test_case "unchanged entry validated once" `Quick
            test_cache_memo_validates_once;
          Alcotest.test_case "changed bytes over a memoized entry are re-checked" `Quick
            test_cache_memo_rechecks_changed_bytes;
          Alcotest.test_case "malformed plans over a memoized entry rejected" `Quick
            test_cache_memo_rejects_malformed;
          Alcotest.test_case "shared entry not mutated by runs" `Quick
            test_cache_memo_entry_not_mutated;
          Alcotest.test_case "a store seeds the memo" `Quick test_cache_store_seeds_memo;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "truncated frame" `Quick test_protocol_truncation;
          Alcotest.test_case "oversize frame" `Quick test_protocol_oversize;
        ] );
      ( "retry",
        [
          Alcotest.test_case "deterministic backoff" `Quick test_retry_deterministic;
          Alcotest.test_case "gives up / fatal passthrough" `Quick test_retry_gives_up;
        ] );
      ("metrics", [ Alcotest.test_case "percentile" `Quick test_percentile ]);
      ( "handler",
        [
          Alcotest.test_case "serving ladder" `Quick test_handle_ladder;
          Alcotest.test_case "source-node entry re-orchestrated" `Quick
            test_handle_source_node_entry;
          Alcotest.test_case "table verb" `Quick test_handle_table;
          Alcotest.test_case "table client errors" `Quick test_handle_table_client_errors;
          Alcotest.test_case "client errors" `Quick test_handle_client_errors;
          Alcotest.test_case "injected parse fault is retried" `Quick
            test_handle_injected_parse_fault_retries;
          Alcotest.test_case "deadline under faults" `Quick test_handle_deadline_under_faults;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
          Alcotest.test_case "remembered graph hash equals a fresh key" `Quick
            test_handle_memo_key_matches;
          Alcotest.test_case "unknown model errors every time" `Quick
            test_handle_unknown_model_twice;
          Alcotest.test_case "graph documents keyed apart" `Quick test_handle_graph_docs_keyed;
          Alcotest.test_case "non-finite graph document hits" `Quick
            test_handle_non_finite_graph_hits;
          Alcotest.test_case "folded inf and NaN weights keyed apart" `Quick
            test_folded_non_finite_keys;
          Alcotest.test_case "a miss and its first hit prepare once" `Quick
            test_handle_miss_then_hit_prepares_once;
        ] );
      ( "daemon",
        [ Alcotest.test_case "kill -9, restart, warm hit" `Quick test_daemon_kill9_warm_restart ] );
    ]
