(* The Korch benchmark's entry point.

     korchbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload from the repository root, checks its outputs, prints a
   human-readable report on stderr and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   workload runs a fixed traced amount of work and the metrics are the
   per-layer ones. The metric names and units must match BENCHMARK.json,
   which is read from the current directory. See README.md. *)

let workloads =
  [
    ("compile-zoo", Compile_zoo.run);
    ("execute-small", Execute_small.run);
    ("serve-mixed", Serve_mixed.run);
  ]

let usage () =
  prerr_endline
    "usage: korchbench.exe --workload (compile-zoo|execute-small|serve-mixed) --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () : Bench.args =
  let rec go acc = function
    | "--workload" :: v :: rest -> go { acc with Bench.workload = v } rest
    | "--seed" :: v :: rest -> go { acc with Bench.seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { acc with Bench.seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { acc with Bench.trace = v = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  match
    go { Bench.workload = ""; seed = 1; seconds = 10.0; trace = false }
      (List.tl (Array.to_list Sys.argv))
  with
  | a -> if List.mem_assoc a.Bench.workload workloads then a else usage ()
  | exception Failure _ -> usage ()

(* The declared metrics, (name, unit), of one BENCHMARK.json section. *)
let declared section : (string * string) list =
  let doc = Onnx.Json.of_string (Bench.read_file "BENCHMARK.json") in
  match Onnx.Json.member section doc with
  | Some l ->
    List.map
      (fun e ->
        ( Onnx.Json.to_string_exn (Option.get (Onnx.Json.member "name" e)),
          Onnx.Json.to_string_exn (Option.get (Onnx.Json.member "unit" e)) ))
      (Onnx.Json.to_list_exn l)
  | None -> failwith ("BENCHMARK.json has no " ^ section)

(* Order the produced metrics as declared. Every end-to-end metric must be
   produced; a per-layer metric a workload does not exercise reads 0. A
   produced metric that is not declared, or has another unit, is a bug. *)
let select ~section ~(zero_missing : bool) (produced : Bench.metric list) : Bench.metric list =
  let decl = declared section in
  List.iter
    (fun (p : Bench.metric) ->
      match List.assoc_opt p.Bench.name decl with
      | None -> failwith (Printf.sprintf "metric %s is not declared in %s" p.Bench.name section)
      | Some u when u <> p.Bench.unit_ ->
        failwith (Printf.sprintf "metric %s has unit %s, declared %s" p.Bench.name p.Bench.unit_ u)
      | Some _ -> ())
    produced;
  List.map
    (fun (name, unit_) ->
      if not (Bstats.valid_name name) then failwith ("invalid metric name " ^ name);
      match List.find_opt (fun (p : Bench.metric) -> p.Bench.name = name) produced with
      | Some p -> p
      | None when zero_missing -> Bench.m name unit_ 0.0
      | None -> failwith (Printf.sprintf "workload produced no %s metric" name))
    decl

let () =
  let a = parse_args () in
  Bench.mkdir_p Bench.state_dir;
  (* Anything the libraries write to the temporary directory stays in the
     checkout. *)
  let tmp = Filename.concat (Sys.getcwd ()) (Filename.concat Bench.state_dir "tmp") in
  Bench.mkdir_p tmp;
  Unix.putenv "TMPDIR" tmp;
  Filename.set_temp_dir_name tmp;
  Bench.say "workload %s, seed %d, %.0f s, trace %b" a.Bench.workload a.Bench.seed a.Bench.seconds
    a.Bench.trace;
  let run = List.assoc a.Bench.workload workloads in
  let o = run a in
  let metrics =
    if a.Bench.trace then
      let top_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
      in
      select ~section:"per_layer" ~zero_missing:true
        (Bench.m "gc.top_heap_mb" "MB" top_heap_mb :: o.Bench.layers)
    else select ~section:"end_to_end" ~zero_missing:false o.Bench.e2e
  in
  List.iter
    (fun (x : Bench.metric) -> Bench.say "  %-32s %14.6f %s" x.Bench.name x.Bench.value x.Bench.unit_)
    metrics;
  let doc =
    Obs.Jsonw.Obj
      [
        ("correct", Obs.Jsonw.Bool (o.Bench.failed = 0));
        ("attempted", Obs.Jsonw.Int o.Bench.attempted);
        ("failed", Obs.Jsonw.Int o.Bench.failed);
        ( "metrics",
          Obs.Jsonw.Obj
            (List.map
               (fun (x : Bench.metric) ->
                 ( x.Bench.name,
                   Obs.Jsonw.Obj
                     [
                       (* Float, not Int: a whole-number count still reads as
                          a number, and times keep every digit. *)
                       ("value", Obs.Jsonw.Float x.Bench.value);
                       ("unit", Obs.Jsonw.Str x.Bench.unit_);
                     ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Jsonw.to_string doc)
