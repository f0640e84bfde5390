(* Tests for the runtime layer: plan bookkeeping, the executor (with the
   executor rows of the malformed-plan table) and DOT export. *)

open Ir
open Tensor

let diamond = Malformed_plans.diamond
let kernel = Malformed_plans.kernel

(* ---------------- plan bookkeeping ---------------- *)

let test_plan_totals () =
  let p = Runtime.Plan.make [ kernel ~latency:2.0 [ 1 ] [ 1 ]; kernel ~latency:3.5 [ 2 ] [ 2 ] ] in
  Alcotest.(check (float 1e-9)) "total" 5.5 p.Runtime.Plan.total_latency_us;
  Alcotest.(check int) "count" 2 (Runtime.Plan.kernel_count p);
  Alcotest.(check int) "no redundancy" 0 (Runtime.Plan.redundancy p)

let test_plan_redundancy () =
  let p = Runtime.Plan.make [ kernel [ 1; 2 ] [ 2 ]; kernel [ 1; 3 ] [ 3 ] ] in
  Alcotest.(check int) "prim 1 twice" 1 (Runtime.Plan.redundancy p)

(* ---------------- executor ---------------- *)

let test_executor_happy_path () =
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make
      [ kernel [ f ] [ f ]; kernel [ g1 ] [ g1 ]; kernel [ g2 ] [ g2 ]; kernel [ k ] [ k ] ]
  in
  let x = Nd.randn (Rng.create 3) [| 4 |] in
  (match Runtime.Executor.validate g plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unexpected: %s" m);
  match
    (Runtime.Executor.run g plan ~inputs:[ ("x", x) ], Runtime.Prim_interp.run g ~inputs:[ ("x", x) ])
  with
  | [ a ], [ b ] -> Alcotest.(check bool) "matches" true (Nd.equal a b)
  | _ -> Alcotest.fail "arity"

let test_executor_redundant_plan_ok () =
  (* Both branch kernels recompute f internally; f is never published. *)
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make
      [ kernel [ f; g1 ] [ g1 ]; kernel [ f; g2 ] [ g2 ]; kernel [ k ] [ k ] ]
  in
  (match Runtime.Executor.validate g plan with
  | Ok () -> ()
  | Error m -> Alcotest.failf "redundant plan rejected: %s" m);
  let x = Nd.randn (Rng.create 4) [| 4 |] in
  match
    (Runtime.Executor.run g plan ~inputs:[ ("x", x) ], Runtime.Prim_interp.run g ~inputs:[ ("x", x) ])
  with
  | [ a ], [ b ] -> Alcotest.(check bool) "matches" true (Nd.equal a b)
  | _ -> Alcotest.fail "arity"

(* ---------------- DOT export ---------------- *)

let branchy_plan () =
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make
      [ kernel ~latency:2.0 [ f ] [ f ]; kernel ~latency:3.0 [ g1 ] [ g1 ];
        kernel ~latency:3.0 [ g2 ] [ g2 ]; kernel ~latency:1.0 [ k ] [ k ] ]
  in
  (g, plan)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_dot_plan_clusters () =
  let g, plan = branchy_plan () in
  let dot = Runtime.Dot_export.plan_to_dot g plan in
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d" i)
        true
        (contains ~needle:(Printf.sprintf "cluster_k%d" i) dot))
    plan.Runtime.Plan.kernels

let test_dot_hostile_labels () =
  (* Operator names flow into DOT labels verbatim; quotes, backslashes
     and newlines must come out escaped or the emitted file is invalid
     (or worse, label text escapes into attribute position). *)
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2 |] in
  let o = Primgraph.B.add_raw b (Primitive.Opaque "a\"b\\c\nd") [ x ] [| 2 |] in
  Primgraph.B.set_outputs b [ o ];
  let g = Primgraph.B.finish b in
  let plan = Runtime.Plan.make [ kernel [ o ] [ o ] ] in
  let dot = Runtime.Dot_export.plan_to_dot g plan in
  Alcotest.(check bool) "quote escaped" true (contains ~needle:"a\\\"b" dot);
  Alcotest.(check bool) "backslash escaped" true (contains ~needle:"\\\\c" dot);
  Alcotest.(check bool) "newline escaped" true (contains ~needle:"\\nd" dot);
  Alcotest.(check bool) "no raw quote run" false (contains ~needle:"a\"b" dot);
  Alcotest.(check bool) "no raw newline in label" false (contains ~needle:"c\nd" dot)

let test_dot_redundant_copies () =
  let g, f, g1, g2, k = diamond () in
  let plan =
    Runtime.Plan.make [ kernel [ f; g1 ] [ g1 ]; kernel [ f; g2 ] [ g2 ]; kernel [ k ] [ k ] ]
  in
  let dot = Runtime.Dot_export.plan_to_dot g plan in
  (* the redundant primitive f appears once per kernel cluster *)
  Alcotest.(check bool) "copy in k0" true (contains ~needle:(Printf.sprintf "k0n%d" f) dot);
  Alcotest.(check bool) "copy in k1" true (contains ~needle:(Printf.sprintf "k1n%d" f) dot)

(* ------------------------------------------------------------------ *)
(* Native kernel cache: batches, hits, staleness, corruption recovery  *)
(* ------------------------------------------------------------------ *)

module KC = Codegen.Kernel_cache

let scratch_cache_dir () =
  let d = Filename.temp_file "korch-kcache" "" in
  Sys.remove d;
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)));
  d

(* A one-element kernel computing [body] from [ins[0][0]], under the
   symbol name the cache gives it. *)
let trivial ?(body = "ins[0][0] + 1.0") signature =
  {
    KC.signature;
    source =
      (fun ~symbol ->
        Printf.sprintf "void %s(const double **ins, double **outs) { outs[0][0] = %s; }\n"
          symbol body);
  }

(* A kernel whose source does not compile; [emissions] counts how often
   it is emitted. *)
let garbage emissions signature =
  {
    KC.signature;
    source =
      (fun ~symbol:_ ->
        incr emissions;
        "this is not a C program");
  }

let run_trivial k =
  let outs = [| [| 0.0 |] |] in
  KC.call k ~ins:[| [| 2.0 |] |] ~outs;
  outs.(0).(0)

let resolve_ok c reqs =
  List.map
    (function Ok k -> k | Error m -> Alcotest.failf "resolve failed: %s" m)
    (KC.resolve c reqs)

let resolve1 c req = List.hd (resolve_ok c [ req ])

(* Three kernels computing 3, 4 and -1 from 2. *)
let batch3 =
  [
    trivial "unit-v1|b+1";
    trivial ~body:"ins[0][0] * 2.0" "unit-v1|b*2";
    trivial ~body:"ins[0][0] - 3.0" "unit-v1|b-3";
  ]

let check_batch3 label ks =
  Alcotest.(check (list (float 0.0))) label [ 3.0; 4.0; -1.0 ] (List.map run_trivial ks)

let files_with suffix dir =
  List.filter (fun f -> Filename.check_suffix f suffix) (Array.to_list (Sys.readdir dir))

let tmp_files = files_with ".tmp"

(* How many chunks [resolve] deals [n] compiles into on this host. *)
let chunk_count n = min n (Parallel.Domain_pool.default_jobs ())

(* Round-robin dealing puts every member in exactly one chunk, makes
   [min n k] chunks whose sizes differ by at most one, and keeps plan
   order within each chunk. *)
let test_deal () =
  List.iter
    (fun (n, k) ->
      let label = Printf.sprintf "n=%d k=%d" n k in
      let chunks = KC.deal ~k (List.init n Fun.id) in
      Alcotest.(check int) (label ^ ": chunk count") (min n k) (List.length chunks);
      Alcotest.(check (list int)) (label ^ ": each member once") (List.init n Fun.id)
        (List.sort compare (List.concat chunks));
      let sizes = List.map List.length chunks in
      Alcotest.(check bool) (label ^ ": sizes differ by at most 1") true
        (n = 0 || List.fold_left max 0 sizes - List.fold_left min n sizes <= 1);
      List.iter
        (fun c ->
          Alcotest.(check (list int)) (label ^ ": plan order") (List.sort compare c) c)
        chunks)
    [ (0, 2); (1, 1); (5, 1); (2, 2); (7, 2); (3, 3); (10, 3); (2, 3); (20, 8); (5, 8) ];
  Alcotest.(check (list (list string))) "round robin" [ [ "a"; "c"; "e" ]; [ "b"; "d" ] ]
    (KC.deal ~k:2 [ "a"; "b"; "c"; "d"; "e" ])

let test_cache_compile_then_hits () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let c1 = KC.create ~dir () in
  let k = resolve1 c1 (trivial "unit-v1|add1") in
  Alcotest.(check (float 0.0)) "kernel computes" 3.0 (run_trivial k);
  Alcotest.(check int) "compiled once" 1 (KC.stats c1).KC.compiles;
  (* Same signature, same process: served from memory. *)
  let k' = resolve1 c1 (trivial "unit-v1|add1") in
  Alcotest.(check (float 0.0)) "memory hit works" 3.0 (run_trivial k');
  Alcotest.(check int) "memory hit" 1 (KC.stats c1).KC.mem_hits;
  Alcotest.(check int) "no second compile" 1 (KC.stats c1).KC.compiles;
  (* Fresh instance over the same directory (a new process): the .so is
     reused from disk without invoking cc. *)
  let c2 = KC.create ~dir () in
  let k2 = resolve1 c2 (trivial "unit-v1|add1") in
  Alcotest.(check (float 0.0)) "disk hit works" 3.0 (run_trivial k2);
  Alcotest.(check int) "disk hit" 1 (KC.stats c2).KC.disk_hits;
  Alcotest.(check int) "disk hit does not compile" 0 (KC.stats c2).KC.compiles

(* A batch compiles with one cc run per chunk and publishes every
   member, so a fresh instance over the same directory (a new process)
   loads all of them from disk; a repeated signature is a memory hit,
   not a second member; nothing half-published is left behind. *)
let test_cache_batch () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let c1 = KC.create ~dir () in
  let ks = resolve_ok c1 (batch3 @ [ List.hd batch3 ]) in
  check_batch3 "batch computes" (List.filteri (fun i _ -> i < 3) ks);
  Alcotest.(check int) "one cc run per chunk" (chunk_count 3) (KC.stats c1).KC.cc_runs;
  Alcotest.(check int) "three kernels compiled" 3 (KC.stats c1).KC.compiles;
  Alcotest.(check int) "repeat is a memory hit" 1 (KC.stats c1).KC.mem_hits;
  Alcotest.(check (list string)) "no .tmp left" [] (tmp_files dir);
  let c2 = KC.create ~dir () in
  check_batch3 "disk hits compute" (resolve_ok c2 batch3);
  Alcotest.(check int) "three disk hits" 3 (KC.stats c2).KC.disk_hits;
  Alcotest.(check int) "no cc run" 0 (KC.stats c2).KC.cc_runs

(* After a batch compiles, the cache keeps only objects and locks: no
   translation unit and no compiler log. *)
let test_cache_batch_leaves_no_sources () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  check_batch3 "batch computes" (resolve_ok (KC.create ~dir ()) batch3);
  Alcotest.(check (list string)) "no .c left" [] (files_with ".c" dir);
  Alcotest.(check (list string)) "no .log left" [] (files_with ".log" dir)

(* A chunk that does not compile falls back to one cc run per member, so
   the good kernels load and only the broken one is memoized as failed.
   With k = default_jobs () chunks and k + 1 kernels, the garbage one at
   index 0 always shares chunk 0 with the good one at index k: k chunk
   runs, then that chunk's two members alone. *)
let test_cache_batch_isolates_failure () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let c = KC.create ~dir () in
  let emissions = ref 0 in
  let k = Parallel.Domain_pool.default_jobs () in
  let goods = List.init k (fun i -> trivial (Printf.sprintf "unit-v1|shared%d" i)) in
  let reqs = garbage emissions "unit-v1|garbage" :: goods in
  Alcotest.(check int) "garbage shares chunk 0" 2 (List.length (List.hd (KC.deal ~k reqs)));
  let resolve () =
    match KC.resolve c reqs with
    | Error _ :: rest -> List.map (function Ok g -> g | Error m -> Alcotest.fail m) rest
    | _ -> Alcotest.fail "expected the good kernels to load and the garbage one to fail"
  in
  Alcotest.(check (list (float 0.0))) "good kernels compute" (List.init k (fun _ -> 3.0))
    (List.map run_trivial (resolve ()));
  Alcotest.(check int) "chunks, then each member of the failed chunk alone" (k + 2)
    (KC.stats c).KC.cc_runs;
  Alcotest.(check int) "the good ones compiled" k (KC.stats c).KC.compiles;
  Alcotest.(check int) "one failure" 1 (KC.stats c).KC.failures;
  let _ = resolve () in
  Alcotest.(check int) "failure memoized: emitted once" 1 !emissions;
  Alcotest.(check int) "no further cc run" (k + 2) (KC.stats c).KC.cc_runs;
  Alcotest.(check int) "failure counted once" 1 (KC.stats c).KC.failures

(* One kernel per chunk, the first of them garbage: its chunk is that
   kernel alone, so it is compiled exactly once and memoized. *)
let test_cache_one_member_chunk_fails_once () =
  if not (KC.available ()) then Alcotest.skip ();
  let c = KC.create ~dir:(scratch_cache_dir ()) () in
  let emissions = ref 0 in
  let k = Parallel.Domain_pool.default_jobs () in
  let goods = List.init (k - 1) (fun i -> trivial (Printf.sprintf "unit-v1|single%d" i)) in
  (match KC.resolve c (garbage emissions "unit-v1|garbage-alone" :: goods) with
  | Error _ :: rest when List.for_all Result.is_ok rest -> ()
  | _ -> Alcotest.fail "expected only the garbage kernel to fail");
  Alcotest.(check int) "one cc run per chunk, none repeated" k (KC.stats c).KC.cc_runs;
  Alcotest.(check int) "emitted once" 1 !emissions;
  Alcotest.(check int) "one failure" 1 (KC.stats c).KC.failures;
  Alcotest.(check int) "the rest compiled" (k - 1) (KC.stats c).KC.compiles

(* A corrupted member is recompiled alone; its batch-mates stay disk
   hits. The batch is copied to a second directory first: glibc returns
   the existing mapping for a pathname this process already dlopen'd,
   which would mask the corruption. *)
let test_cache_corrupt_member_alone () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let c1 = KC.create ~dir () in
  let _ = resolve_ok c1 batch3 in
  let c = KC.create ~dir:(scratch_cache_dir ()) () in
  List.iteri
    (fun i (r : KC.request) ->
      let src = KC.so_path c1 ~signature:r.KC.signature in
      let oc = open_out_bin (KC.so_path c ~signature:r.KC.signature) in
      output_string oc
        (if i = 1 then "not an ELF object"
         else In_channel.with_open_bin src In_channel.input_all);
      close_out oc)
    batch3;
  check_batch3 "batch computes" (resolve_ok c batch3);
  Alcotest.(check int) "batch-mates are disk hits" 2 (KC.stats c).KC.disk_hits;
  Alcotest.(check int) "corruption detected" 1 (KC.stats c).KC.corrupt_recompiles;
  Alcotest.(check int) "recompiled alone" 1 (KC.stats c).KC.cc_runs;
  Alcotest.(check int) "one kernel compiled" 1 (KC.stats c).KC.compiles

let test_cache_stale_on_version_change () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let c = KC.create ~dir () in
  let _ = resolve1 c (trivial "unit-v1|k") in
  (* A codegen version bump changes every signature (the version string
     is a prefix of Emit.signature), so the old object is simply never
     addressed: the new signature compiles fresh. *)
  let k2 = resolve1 c (trivial ~body:"ins[0][0] * 2.0" "unit-v2|k") in
  Alcotest.(check (float 0.0)) "new version's code runs" 4.0 (run_trivial k2);
  Alcotest.(check int) "both versions compiled" 2 (KC.stats c).KC.compiles;
  (* And the real emitter does embed its version in the signature. *)
  let b = Ir.Primgraph.B.create () in
  let x = Ir.Primgraph.B.input b "x" [| 2 |] in
  let y = Ir.Primgraph.B.add b (Ir.Primitive.Unary Ir.Primitive.Relu) [ x ] in
  Ir.Primgraph.B.set_outputs b [ y ];
  let g = Ir.Primgraph.B.finish b in
  let k = { Runtime.Plan.prims = [ y ]; outputs = [ y ]; latency_us = 1.0; backend = "t" } in
  Alcotest.(check bool) "Emit.version prefixes the signature" true
    (String.length (Codegen.Emit.signature g k) > String.length Codegen.Emit.version
    && String.sub (Codegen.Emit.signature g k) 0 (String.length Codegen.Emit.version)
       = Codegen.Emit.version)

let test_cache_corrupt_entry_recompiles () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let signature = "unit-v1|corrupt" in
  let c = KC.create ~dir () in
  (* Plant garbage where the disk cache expects the object, before the
     path is ever dlopen'd in this process (glibc returns the existing
     mapping for an already-loaded pathname, which would mask the
     corruption).  This is what a fresh process sees after a truncated
     write or disk corruption. *)
  let oc = open_out_bin (KC.so_path c ~signature) in
  output_string oc "not an ELF object";
  close_out oc;
  let k = resolve1 c (trivial signature) in
  Alcotest.(check (float 0.0)) "recompiled kernel works" 3.0 (run_trivial k);
  Alcotest.(check int) "corruption detected" 1 (KC.stats c).KC.corrupt_recompiles;
  Alcotest.(check int) "recompiled" 1 (KC.stats c).KC.compiles

let test_cache_failure_memoized () =
  if not (KC.available ()) then Alcotest.skip ();
  let dir = scratch_cache_dir () in
  let c = KC.create ~dir () in
  let emissions = ref 0 in
  let bad = garbage emissions "unit-v1|bad" in
  (match KC.resolve c [ bad ] with
  | [ Error _ ] -> ()
  | _ -> Alcotest.fail "garbage source compiled?");
  (match KC.resolve c [ bad ] with
  | [ Error _ ] -> ()
  | _ -> Alcotest.fail "garbage source compiled on retry?");
  Alcotest.(check int) "failure memoized: emitted once" 1 !emissions;
  Alcotest.(check int) "failure counted once" 1 (KC.stats c).KC.failures

(* ---------------- executor modes ---------------- *)

let bits_equal (a : Nd.t) (b : Nd.t) =
  Shape.equal (Nd.shape a) (Nd.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Nd.data b.Nd.data

(* One plan walker serves every backend and reuse mode. On a test-scale
   candy plan, interp and native, each with reuse off and on, and native
   with every compile faulted agree bit for bit; every kernel is
   accounted to exactly one backend; reuse keeps every kernel on the
   interpreter; and [evals] counts exactly the primitives the
   interpreter evaluated. The native row needs a C compiler. *)
let test_executor_modes () =
  let g = Models.Registry.candy.Models.Registry.build_small () in
  let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
  let pg = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
  let inputs =
    Array.to_list g.Graph.nodes
    |> List.filter_map (fun nd ->
           match nd.Graph.op with
           | Optype.Input name -> Some (name, Nd.randn (Rng.create 17) nd.Graph.shape)
           | _ -> None)
  in
  let kernels = Runtime.Plan.kernel_count plan in
  let prims = List.length (Runtime.Plan.executed_prims plan) in
  let run ?(faults = []) backend ~reuse =
    let st = Runtime.Executor.fresh_stats () and es = Runtime.Backend.fresh_exec_stats () in
    let outs =
      Faults.with_policy faults (fun () ->
          Runtime.Executor.run ~backend ~reuse ~stats:st ~exec_stats:es pg plan ~inputs)
    in
    let label =
      Printf.sprintf "%s%s%s" (Runtime.Backend.to_string backend)
        (if reuse then "+reuse" else "")
        (if faults = [] then "" else "+fault")
    in
    Alcotest.(check int)
      (label ^ ": every kernel ran once")
      kernels
      (es.Runtime.Backend.native_kernels + es.Runtime.Backend.interp_kernels);
    (label, outs, st, es)
  in
  let ((_, reference, _, _) as interp) = run Runtime.Backend.Interp ~reuse:false in
  let interp_reuse = run Runtime.Backend.Interp ~reuse:true in
  let ((_, _, _, es_nr) as native_reuse) = run Runtime.Backend.Native ~reuse:true in
  (* Every kernel falls back when compilation faults, and the fallbacks'
     evaluations are counted. *)
  let ((_, _, _, es_nf) as native_faulted) =
    run ~faults:[ (Faults.Codegen_compile, Faults.Always) ] Runtime.Backend.Native ~reuse:false
  in
  let native =
    if Codegen.Kernel_cache.available () then begin
      let ((_, _, _, es) as row) = run Runtime.Backend.Native ~reuse:false in
      Alcotest.(check bool) "native: kernels ran natively" true (es.Runtime.Backend.native_kernels > 0);
      [ row ]
    end
    else []
  in
  Alcotest.(check int) "native+reuse: no native kernel" 0 es_nr.Runtime.Backend.native_kernels;
  Alcotest.(check int) "native+fault: every kernel fell back" kernels
    (List.length es_nf.Runtime.Backend.fallbacks);
  List.iter
    (fun (label, outs, _, _) ->
      List.iteri
        (fun i (a, b) ->
          if not (bits_equal a b) then Alcotest.failf "%s: output %d differs from interp" label i)
        (List.combine reference outs))
    (interp_reuse :: native_reuse :: native_faulted :: native);
  List.iter
    (fun (label, _, st, _) ->
      Alcotest.(check int) (label ^ ": evals") prims st.Runtime.Executor.evals)
    [ interp; interp_reuse; native_reuse; native_faulted ]

(* ---------------- destination-passing evaluation ---------------- *)

(* Special values (signed zeros, infinities, NaN) among uniform draws. *)
let operand ~seed shape =
  let rng = Rng.create seed in
  Nd.create shape (fun i ->
      match i mod 9 with
      | 0 -> 0.0
      | 1 -> -0.0
      | 2 -> infinity
      | 3 -> neg_infinity
      | 4 -> Float.nan
      | _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0)

(* [p] evaluated into a NaN-filled destination equals the allocating
   evaluation bit for bit, and its storage is that destination. *)
let check_into label p args =
  let expected = Runtime.Prim_interp.eval_prim p args in
  let dst = Array.make (Nd.numel expected) Float.nan in
  let v = Runtime.Prim_interp.eval_prim ~dst p args in
  Alcotest.(check bool) (label ^ ": bit-equal") true (bits_equal expected v);
  Alcotest.(check bool) (label ^ ": storage is dst") true (v.Nd.data == dst)

(* [p] does not compute into a destination: the result is still
   correct, and [dst] is left untouched. *)
let check_allocates label p args =
  let expected = Runtime.Prim_interp.eval_prim p args in
  let dst = Array.make (Nd.numel expected) Float.nan in
  let v = Runtime.Prim_interp.eval_prim ~dst p args in
  Alcotest.(check bool) (label ^ ": bit-equal") true (bits_equal expected v);
  Alcotest.(check bool) (label ^ ": storage is fresh") false (v.Nd.data == dst);
  Alcotest.(check bool) (label ^ ": dst untouched") true (Array.for_all Float.is_nan dst)

let test_eval_prim_dst () =
  let shape = [| 3; 6 |] in
  let x = operand ~seed:5 shape and y = operand ~seed:6 shape in
  List.iter
    (fun u -> check_into (Primitive.to_string (Primitive.Unary u)) (Primitive.Unary u) [ x ])
    Primitive.
      [
        Exp; Log; Sqrt; Rsqrt; Neg; Abs; Square; Reciprocal; Relu; LeakyRelu 0.1; Sigmoid; Silu;
        Mish; Tanh; Erf; Gelu; AddConst 0.5; MulConst (-1.3); PowConst 3.7; PowConst 2.0;
        Clip (-0.5, 0.5);
      ];
  List.iter
    (fun b -> check_into (Primitive.to_string (Primitive.Binary b)) (Primitive.Binary b) [ x; y ])
    Primitive.[ Add; Sub; Mul; Div; Max; Min; Pow ];
  let t = operand ~seed:7 [| 2; 3; 4 |] in
  check_into "transpose" (Primitive.Transpose [| 2; 0; 1 |]) [ t ];
  check_into "slice" (Primitive.Slice { starts = [| 0; 1; 1 |]; stops = [| 2; 3; 4 |] }) [ t ];
  check_into "broadcast add" (Primitive.Binary Primitive.Add) [ x; operand ~seed:8 [| 6 |] ];
  check_into "reduce" (Primitive.Reduce (Primitive.Sum, 1)) [ x ];
  check_into "broadcast" (Primitive.Broadcast (1, 3)) [ x ];
  check_into "reshape" (Primitive.Reshape [| 6; 3 |]) [ x ];
  check_into "pad" (Primitive.Pad { before = [| 1; 0; 2 |]; after = [| 0; 1; 1 |]; value = -0.0 }) [ t ];
  check_into "concat" (Primitive.Concat 1) [ t; operand ~seed:9 [| 2; 2; 4 |] ];
  (* Matmul and conv accumulate: a NaN-filled destination must not leak
     into the sums. *)
  check_into "matmul" Primitive.Matmul [ x; operand ~seed:10 [| 6; 4 |] ];
  check_into "batch matmul" Primitive.Matmul [ t; operand ~seed:11 [| 4; 5 |] ];
  let img = operand ~seed:12 [| 1; 2; 5; 5 |] in
  check_into "conv"
    (Primitive.Conv { stride = (2, 1); padding = (1, 1) })
    [ img; operand ~seed:13 [| 3; 2; 3; 3 |] ];
  check_into "pool"
    (Primitive.Pool { agg = Primitive.Max; kernel = (2, 2); stride = (2, 2); padding = (1, 0) })
    [ img ];
  check_into "upsample" (Primitive.Upsample 2) [ img ];
  check_allocates "constant" (Primitive.Constant (Const.value [| 3; 6 |] 2.0)) []

(* The executor dispatch: backend names. *)
let test_backend_of_string () =
  Alcotest.(check bool) "native" true
    (Runtime.Backend.of_string "native" = Some Runtime.Backend.Native);
  Alcotest.(check bool) "c alias" true
    (Runtime.Backend.of_string "C" = Some Runtime.Backend.Native);
  Alcotest.(check bool) "interp" true
    (Runtime.Backend.of_string " Interp " = Some Runtime.Backend.Interp);
  Alcotest.(check bool) "unknown" true (Runtime.Backend.of_string "cuda" = None)

let () =
  Alcotest.run "runtime"
    [
      ( "plan",
        [ Alcotest.test_case "totals" `Quick test_plan_totals;
          Alcotest.test_case "redundancy" `Quick test_plan_redundancy ] );
      ( "executor",
        [ Alcotest.test_case "happy path" `Quick test_executor_happy_path;
          Alcotest.test_case "redundant plan" `Quick test_executor_redundant_plan_ok ]
        (* The malformed-plan table: each row checked at all five entry
           points, Executor.run on both backends among them. *)
        @ Malformed_plans.cases "executor"
        @ [ Alcotest.test_case "modes" `Quick test_executor_modes;
            Alcotest.test_case "eval_prim into dst" `Quick test_eval_prim_dst ] );
      ( "dot",
        [ Alcotest.test_case "plan clusters" `Quick test_dot_plan_clusters;
          Alcotest.test_case "hostile labels" `Quick test_dot_hostile_labels;
          Alcotest.test_case "redundant copies" `Quick test_dot_redundant_copies ] );
      ( "kernel cache",
        [ Alcotest.test_case "compile then hits" `Quick test_cache_compile_then_hits;
          Alcotest.test_case "stale on version change" `Quick test_cache_stale_on_version_change;
          Alcotest.test_case "corrupt entry recompiles" `Quick test_cache_corrupt_entry_recompiles;
          Alcotest.test_case "failure memoized" `Quick test_cache_failure_memoized;
          Alcotest.test_case "batch of three" `Quick test_cache_batch;
          Alcotest.test_case "batch isolates a failure" `Quick test_cache_batch_isolates_failure;
          Alcotest.test_case "chunking deals round robin" `Quick test_deal;
          Alcotest.test_case "good batch leaves no sources" `Quick
            test_cache_batch_leaves_no_sources;
          Alcotest.test_case "one-member chunk compiled once" `Quick
            test_cache_one_member_chunk_fails_once;
          Alcotest.test_case "corrupt member recompiled alone" `Quick
            test_cache_corrupt_member_alone;
          Alcotest.test_case "backend parsing" `Quick test_backend_of_string ] );
    ]
