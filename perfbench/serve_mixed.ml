(* serve-mixed: the korch_serve daemon under a seeded closed-loop mix.

   Set-up starts the real daemon (one job, fresh plan-cache and
   kernel-cache directories) and publishes final entries for a fixed key
   set: paper-scale candy, segformer and decode at batch 1, and test-scale
   candy and decode at a few batches; one native run per test-scale model
   compiles its kernels. One client then sends requests over the unix
   socket, one connection at a time, in seeded rounds: mostly [optimize]
   hits, [run] requests on the test-scale keys with the native backend,
   and a few [optimize] misses on fresh test-scale keys that orchestrate
   and publish.

   A hit costs model build, graph hash, entry read, JSON parse and
   validation and the response print, with no ILP, so JSON, plan-cache and
   protocol changes show here. Hit responses must carry the orchestrated
   plan latency; run checksums must equal an in-process reference. *)

type key = { model : string; small : bool; batch : int }

let paper_keys = List.map (fun model -> { model; small = false; batch = 1 }) [ "candy"; "segformer"; "decode" ]

let small_keys =
  List.map (fun batch -> { model = "candy"; small = true; batch }) [ 1; 2; 3 ]
  @ List.map (fun batch -> { model = "decode"; small = true; batch }) [ 1; 2 ]

let key_label k = Printf.sprintf "%s%s.b%d" k.model (if k.small then ".small" else "") k.batch

type kind = Hit | Run | Miss

let kind_label = function Hit -> "hit" | Run -> "run" | Miss -> "miss"

let request_json ~(verb : string) (k : key) : string =
  Obs.Jsonw.to_string
    (Serve.Protocol.request_to_json
       {
         Serve.Protocol.default_request with
         Serve.Protocol.verb;
         model = Some k.model;
         small = k.small;
         batch = k.batch;
         backend = (if verb = "run" then Some "native" else None);
       })

(* ------------------------------ the mix -------------------------------- *)

(* Rounds are seeded permutations of two hits per published key and one
   run per test-scale key, so the mix's proportions are exact and only
   the order depends on the seed. Rounds 1, 3, 5 and 7 also carry one miss
   each (candy, decode, candy, decode) at a seeded position, on a fresh
   seeded batch: the server builds test-scale models at their default
   batch, so every miss orchestrates the same graph under a new key. *)
let miss_rounds = [ (1, "candy"); (3, "decode"); (5, "candy"); (7, "decode") ]

type mix = { rng : Random.State.t; mutable fresh : int list }

let new_mix (a : Bench.args) ~salt = { rng = Bench.seeded a salt; fresh = [] }

let fresh_batch mix =
  let rec pick () =
    let b = 100 + Random.State.int mix.rng 100_000 in
    if List.mem b mix.fresh then pick () else b
  in
  let b = pick () in
  mix.fresh <- b :: mix.fresh;
  b

let round mix (i : int) : (kind * key) list =
  let base =
    List.concat_map (fun k -> [ (Hit, k); (Hit, k) ]) (paper_keys @ small_keys)
    @ List.map (fun k -> (Run, k)) small_keys
  in
  let r = Bench.shuffle mix.rng base in
  match List.assoc_opt i miss_rounds with
  | None -> r
  | Some model ->
    let pos = Random.State.int mix.rng (List.length r + 1) in
    let miss = (Miss, { model; small = true; batch = fresh_batch mix }) in
    List.filteri (fun j _ -> j < pos) r @ (miss :: List.filteri (fun j _ -> j >= pos) r)

(* --------------------------- response checks --------------------------- *)

type expect = {
  latency : (string * float) list ref;  (** orchestrated plan latency per key / test-scale model *)
  checksums : (string * float list) list ref;  (** in-process reference per test-scale model *)
}

let str k j = match Onnx.Json.member k j with Some (Onnx.Json.Str s) -> s | _ -> ""
let num k j = match Onnx.Json.member k j with Some (Onnx.Json.Num f) -> f | _ -> Float.nan

let check_response (e : expect) (kind : kind) (k : key) (resp : Onnx.Json.t) : unit =
  let label = key_label k in
  let status = str "status" resp in
  if status <> "ok" then Bench.fail "%s %s: status %s %s" (kind_label kind) label status (str "error" resp)
  else begin
    let cache = str "cache" resp in
    (match kind with
    | Hit | Run -> Bench.check (cache = "hit") "%s %s: cache %s, expected a hit" (kind_label kind) label cache
    | Miss -> Bench.check (cache = "miss") "miss %s: cache %s" label cache);
    let want =
      match List.assoc_opt label !(e.latency) with
      | Some l -> Some l
      | None -> if k.small then List.assoc_opt (k.model ^ ".small") !(e.latency) else None
    in
    (match want with
    | Some l ->
      Bench.check (num "plan_latency_us" resp = l) "%s %s: plan latency %.17g, orchestrated %.17g"
        (kind_label kind) label (num "plan_latency_us" resp) l
    | None -> ());
    if kind = Run then begin
      let got =
        match Onnx.Json.member "outputs" resp with
        | Some (Onnx.Json.List l) -> List.map (num "checksum") l
        | _ -> []
      in
      match List.assoc_opt k.model !(e.checksums) with
      | Some want ->
        Bench.check
          (List.length got = List.length want
          && List.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) got want)
          "run %s: output checksums differ from the in-process reference" label
      | None -> Bench.fail "run %s: no reference" label
    end
  end

(* The server's execution inputs, recomputed in process: every graph input
   drawn from a fresh Rng seeded 7 (Serve.Server.execute_plan). *)
let reference_checksums (entry : Serve.Plan_cache.entry) : float list =
  let g = entry.Serve.Plan_cache.graph in
  let inputs =
    Array.to_list g.Ir.Graph.nodes
    |> List.filter_map (fun (nd : _ Ir.Graph.node) ->
           match nd.Ir.Graph.op with
           | Ir.Primitive.Input name -> Some (name, Tensor.Nd.randn (Tensor.Rng.create 7) nd.Ir.Graph.shape)
           | _ -> None)
  in
  let outs =
    Runtime.Executor.run ~backend:Runtime.Backend.Interp g entry.Serve.Plan_cache.plan ~inputs
  in
  List.map
    (fun nd ->
      let acc = ref 0.0 in
      for i = 0 to Tensor.Nd.numel nd - 1 do
        acc := !acc +. Tensor.Nd.get_linear nd i
      done;
      !acc)
    outs

let cache_key (k : key) : Serve.Plan_cache.key =
  Serve.Plan_cache.key ~graph:(Bench.build_model ~small:k.small k.model) ~gpu:Gpu.Spec.v100.Gpu.Spec.name
    ~precision:(Gpu.Precision.to_string Gpu.Precision.FP32) ~batch:k.batch

(* ------------------------------ the daemon ----------------------------- *)

type daemon = { pid : int; socket : string; dir : string }

let retries = ref 0

(* One request over the socket with a small retry loop of our own, so
   retries are counted. *)
let send (d : daemon) (body : string) : Onnx.Json.t =
  let j = Onnx.Json.of_string body |> Korch.Report.jsonw_of_json in
  let rec go attempt =
    match Serve.Client.request_once ~socket:d.socket j with
    | resp when List.mem (str "status" resp) [ "overloaded"; "retry" ] && attempt < 5 ->
      incr retries;
      Unix.sleepf 0.05;
      go (attempt + 1)
    | resp -> resp
    | exception (Unix.Unix_error _ | Serve.Protocol.Frame_error _) when attempt < 5 ->
      incr retries;
      Unix.sleepf 0.05;
      go (attempt + 1)
  in
  go 0

let daemon_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/korch_serve.exe"

let start_daemon ~(dir : string) : daemon =
  Bench.rm_rf dir;
  Bench.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let env =
    Array.append
      [|
        "KORCH_KERNEL_CACHE=" ^ Filename.concat dir "kernels";
        "TMPDIR=" ^ Filename.concat (Sys.getcwd ()) dir;
      |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"KORCH_" v || String.starts_with ~prefix:"TMPDIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let exe = daemon_exe () in
  let pid =
    Unix.create_process_env exe
      [| exe; "daemon"; "--socket"; socket; "--cache-dir"; Filename.concat dir "plans"; "-j"; "1" |]
      env Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket; dir } in
  (try Serve.Client.wait_ready ~timeout_s:30.0 ~socket () with e ->
     (try Unix.kill pid Sys.sigkill with _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  d

(* Drain the daemon and wait for it to exit (killing it after 20 s). *)
let stop_daemon (d : daemon) : unit =
  (try ignore (send d (Obs.Jsonw.to_string (Obs.Jsonw.Obj [ ("verb", Obs.Jsonw.Str "drain") ]))) with _ -> ());
  let deadline = Bench.now_s () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Bench.now_s () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Set-up: start the daemon, publish every key, compile the test-scale
   kernels with one run each, and compute the in-process references. *)
let setup ~(dir : string) : daemon * expect =
  let d = start_daemon ~dir in
  let e = { latency = ref []; checksums = ref [] } in
  match
  List.iter
    (fun k ->
      let resp = send d (request_json ~verb:"optimize" k) in
      if str "status" resp <> "ok" || str "tier" resp <> "orchestrated" then
        Bench.fail "publish %s: status %s tier %s" (key_label k) (str "status" resp) (str "tier" resp)
      else e.latency := (key_label k, num "plan_latency_us" resp) :: !(e.latency))
    (paper_keys @ small_keys);
  let cache = Serve.Plan_cache.create ~dir:(Filename.concat dir "plans") () in
  List.iter
    (fun model ->
      let k = List.find (fun k -> k.model = model) small_keys in
      e.latency := (model ^ ".small", List.assoc (key_label k) !(e.latency)) :: !(e.latency);
      (match Serve.Plan_cache.lookup cache (cache_key k) with
      | Some entry -> e.checksums := (model, reference_checksums entry) :: !(e.checksums)
      | None -> Bench.fail "published entry for %s not found" (key_label k));
      let resp = send d (request_json ~verb:"run" k) in
      check_response e Run k resp)
    [ "candy"; "decode" ]
  with
  | () -> (d, e)
  | exception ex ->
    stop_daemon d;
    raise ex

(* ------------------------------ the loop ------------------------------- *)

type sample = {
  kind : kind;
  round : int;
  ms : float;  (** wall-clock *)
  ref_ms : float;  (** at the reference host speed *)
}

let by_kind kind samples = List.filter_map (fun s -> if s.kind = kind then Some s.ref_ms else None) samples

(* Mean latency of the requests of one kind in each round. A round's hits
   and runs are a fixed mix of keys, so its mean is steady whatever order
   the seed gives them; the median of single requests instead falls
   between the cost groups of different models and jumps between them. *)
let round_means kind samples : float list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.kind = kind then begin
        let sum, n = Option.value (Hashtbl.find_opt tbl s.round) ~default:(0.0, 0) in
        Hashtbl.replace tbl s.round (sum +. s.ref_ms, n + 1)
      end)
    samples;
  Hashtbl.fold (fun _ (sum, n) acc -> (sum /. float_of_int n) :: acc) tbl []

(* Closed loop: whole rounds until [stop] says so. [serve] answers one
   request body. Each round is rescaled to the reference host speed as a
   whole. *)
let drive mix ~(e : expect) ~(stop : int -> bool) ~(serve : id:string -> string -> Onnx.Json.t) :
    sample list =
  let out = ref [] in
  let rec go i =
    if not (stop i) then begin
      let got = ref [] in
      let (), factor =
        Bench.speed_factor (fun () ->
            List.iteri
              (fun j (kind, k) ->
                Bench.attempt ();
                let body = request_json ~verb:(if kind = Run then "run" else "optimize") k in
                let id = Printf.sprintf "r%d.%d.%s" i j (kind_label kind) in
                match Bench.timed (fun () -> serve ~id body) with
                | resp, dt ->
                  check_response e kind k resp;
                  got := (kind, 1000.0 *. dt) :: !got
                | exception ex ->
                  Bench.fail "%s %s: %s" (kind_label kind) (key_label k) (Printexc.to_string ex))
              (round mix i))
      in
      List.iter (fun (kind, ms) -> out := { kind; round = i; ms; ref_ms = ms *. factor } :: !out) !got;
      go (i + 1)
    end
  in
  go 0;
  List.rev !out

(* In-process serving, as the socket loop does it: parse the frame's
   JSON, handle, print the response. *)
let serve_inproc (t : Serve.Server.t) ~(id : string) (body : string) : Onnx.Json.t =
  let j = Bench.span ~id "Onnx.Json.of_string" (fun () -> Onnx.Json.of_string body) in
  let resp = Bench.span ~id "Serve.Server.handle" (fun () -> Serve.Server.handle t j) in
  let printed = Bench.span ~id "Obs.Jsonw.to_string" (fun () -> Obs.Jsonw.to_string resp) in
  Onnx.Json.of_string printed

(* The parts of a served hit or miss, each a public call timed on its own
   (traced run only): model build, cache key, entry parse, lookup,
   validation, and for a miss a re-publish of the entry. *)
let probe (cache : Serve.Plan_cache.t) ~(id : string) (kind : kind) (k : key) : unit =
  let g = Bench.span ~id "Models.Registry.build" (fun () -> Bench.build_model ~small:k.small k.model) in
  let key =
    Bench.span ~id "Serve.Plan_cache.key" (fun () ->
        Serve.Plan_cache.key ~graph:g ~gpu:Gpu.Spec.v100.Gpu.Spec.name
          ~precision:(Gpu.Precision.to_string Gpu.Precision.FP32) ~batch:k.batch)
  in
  let doc = Bench.read_file (Serve.Plan_cache.entry_path cache key) in
  ignore (Bench.span ~id "Onnx.Json.of_string.entry" (fun () -> Onnx.Json.of_string doc));
  match Bench.span ~id "Serve.Plan_cache.lookup" (fun () -> Serve.Plan_cache.lookup cache key) with
  | None -> Bench.fail "probe %s: entry missing" (key_label k)
  | Some entry -> (
    ignore
      (Bench.span ~id "Runtime.Executor.validate" (fun () ->
           Runtime.Executor.validate entry.Serve.Plan_cache.graph entry.Serve.Plan_cache.plan));
    match (kind, entry.Serve.Plan_cache.report) with
    | Miss, Some report ->
      Bench.span ~id "Serve.Plan_cache.store" (fun () ->
          Serve.Plan_cache.store cache key ~status:Serve.Plan_cache.Final ~graph:entry.Serve.Plan_cache.graph
            ~plan:entry.Serve.Plan_cache.plan ~report:(Onnx.Json.to_string report))
    | _ -> ())

let run (a : Bench.args) : Bench.outcome =
  let dir = Filename.concat Bench.state_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let (d, e), setup_wall_s, setup_s = Bench.timed_adjusted (fun () -> setup ~dir) in
  let daemon_up = ref true in
  let stop () = if !daemon_up then (daemon_up := false; stop_daemon d) in
  Fun.protect ~finally:(fun () -> stop (); Bench.rm_rf dir) @@ fun () ->
  Bench.say "set-up %.2f s, %.2f s at the reference speed" setup_wall_s setup_s;
  let mix = new_mix a ~salt:4 in
  let t0 = Bench.now_s () in
  (* Untraced: rounds until the budget is spent (at least eight, so every
     miss is sent). A traced run replays ten rounds three times: over the
     socket, in process untraced, and in process traced. *)
  let stop_rounds i = if a.Bench.trace then i >= 10 else i >= 8 && Bench.now_s () -. t0 >= a.Bench.seconds in
  let sock = drive mix ~e ~stop:stop_rounds ~serve:(fun ~id:_ body -> send d body) in
  let hits = by_kind Hit sock and runs = by_kind Run sock in
  Bench.report_latency ~name:"hit (socket)" ~samples:hits;
  Bench.report_latency ~name:"run (socket)" ~samples:runs;
  Bench.report_latency ~name:"miss (socket)" ~samples:(by_kind Miss sock);
  Bench.report_latency ~name:"hit, mean of a round" ~samples:(round_means Hit sock);
  Bench.report_latency ~name:"run, mean of a round" ~samples:(round_means Run sock);
  let stats = send d (Obs.Jsonw.to_string (Obs.Jsonw.Obj [ ("verb", Obs.Jsonw.Str "stats") ])) in
  let overloaded =
    match Onnx.Json.member "queue" stats with Some q -> num "overloaded" q | None -> Float.nan
  in
  Bench.check (overloaded = 0.0) "daemon shed %.0f request(s) as overloaded" overloaded;
  let daemon_rss = Bench.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let counts =
    match Onnx.Json.member "metrics" stats with
    | Some m -> (
      match Onnx.Json.member "counters" m with
      | Some c -> fun k -> (match Onnx.Json.member k c with Some (Onnx.Json.Num f) -> int_of_float f | _ -> 0)
      | None -> fun _ -> 0)
    | None -> fun _ -> 0
  in
  Bench.record_work a ~mode:(if a.Bench.trace then "traced" else "untraced")
    (List.map (fun k -> (k, counts k)) [ "ilp.nodes"; "ilp.solves"; "codegen.compiles" ]
    @ [ ("misses", List.length (by_kind Miss sock)) ]);
  stop ();
  let layers =
    if not a.Bench.trace then []
    else begin
      (* In process, over the daemon's plan and kernel caches. *)
      Codegen.Kernel_cache.default_instance :=
        Some (Codegen.Kernel_cache.create ~dir:(Filename.concat dir "kernels") ());
      let t =
        Serve.Server.create
          { Serve.Server.default_config with Serve.Server.cache_dir = Filename.concat dir "plans"; jobs = 1 }
      in
      let cache = Serve.Server.cache t in
      List.iter
        (fun model ->
          let k = List.find (fun k -> k.model = model) small_keys in
          check_response e Run k (serve_inproc t ~id:"warm" (request_json ~verb:"run" k)))
        [ "candy"; "decode" ];
      let untraced = drive mix ~e ~stop:(fun i -> i >= 10) ~serve:(serve_inproc t) in
      let (traced, delta), nodes =
        Bench.traced (fun () ->
            Bench.with_counters (fun () ->
                drive mix ~e ~stop:(fun i -> i >= 10) ~serve:(serve_inproc t)))
      in
      let again = drive mix ~e ~stop:(fun i -> i >= 10) ~serve:(serve_inproc t) in
      (* Probes run after the traced replay so they stay out of its timings. *)
      let (probes, probe_s), probe_nodes =
        Bench.traced @@ fun () ->
        Bench.timed (fun () ->
            let pmix = new_mix a ~salt:4 in
            let n = ref 0 in
            for i = 0 to 9 do
              List.iteri
                (fun j (kind, k) ->
                  if kind <> Run then begin
                    incr n;
                    probe cache ~id:(Printf.sprintf "p%d.%d.%s" i j (kind_label kind)) kind k
                  end)
                (round pmix i)
            done;
            !n)
      in
      let sum_ms l = Bstats.sum (List.map (fun s -> s.ms) l) in
      let traced_ms = sum_ms traced in
      Bench.export_trace a (nodes @ probe_nodes);
      let rest = Bench.report_self_times ~title:"ten rounds in process" ~total_ms:traced_ms nodes in
      ignore
        (Bench.report_self_times
           ~title:(Printf.sprintf "probe pass, %d hits and misses" probes)
           ~total_ms:(1000.0 *. probe_s) probe_nodes);
      let overhead =
        Bench.report_overhead ~traced_ms ~before_ms:(sum_ms untraced) ~after_ms:(sum_ms again)
      in
      (* Median duration of the spans named [name] whose id ends in [suffix]. *)
      let med ?(suffix = "") ns name =
        Bstats.median
          (List.filter_map
             (fun (n : Selftime.node) ->
               if n.Selftime.ev.Obs.Trace.name = name && String.ends_with ~suffix n.Selftime.id then
                 Some (n.Selftime.ev.Obs.Trace.dur_us /. 1000.0)
               else None)
             ns)
      in
      let inproc_hit = Bstats.median (by_kind Hit untraced) in
      let served = List.filter (fun s -> s.kind <> Miss) traced in
      Bench.optimizer_layers ~nodes ~delta
      @ [
          Bench.m "serve.handle.hit_ms" "ms" (med ~suffix:".hit" nodes "Serve.Server.handle");
          Bench.m "serve.handle.run_ms" "ms" (med ~suffix:".run" nodes "Serve.Server.handle");
          Bench.m "serve.handle.miss_ms" "ms" (med ~suffix:".miss" nodes "Serve.Server.handle");
          Bench.m "serve.model_build_ms" "ms" (med ~suffix:".hit" probe_nodes "Models.Registry.build");
          Bench.m "plan_cache.key_ms" "ms" (med ~suffix:".hit" probe_nodes "Serve.Plan_cache.key");
          Bench.m "plan_cache.lookup_ms" "ms" (med ~suffix:".hit" probe_nodes "Serve.Plan_cache.lookup");
          Bench.m "plan_cache.store_ms" "ms" (med ~suffix:".miss" probe_nodes "Serve.Plan_cache.store");
          Bench.m "json.parse_ms" "ms" (med ~suffix:".hit" probe_nodes "Onnx.Json.of_string.entry");
          Bench.m "json.print_ms" "ms" (med ~suffix:".hit" nodes "Obs.Jsonw.to_string");
          Bench.m "executor.validate_ms" "ms" (med ~suffix:".hit" probe_nodes "Runtime.Executor.validate");
          Bench.m "protocol.socket_ms" "ms" (Bstats.median hits -. inproc_hit);
          Bench.m "plan_cache.hit_ratio" "ratio"
            (Bench.ratio (float_of_int (List.length served)) (float_of_int (List.length traced)));
          Bench.m "client.retries" "count" (float_of_int !retries);
          Bench.m "serve.overloaded" "count" overloaded;
          Bench.m "trace.overhead_ratio" "ratio" overhead;
          Bench.m "trace.unaccounted_ms" "ms" rest;
        ]
    end
  in
  {
    Bench.attempted = !Bench.attempted;
    failed = !Bench.failed;
    e2e =
      [
        Bench.m "setup_s" "s" setup_s;
        Bench.m "op_p50_ms" "ms" (Bstats.median (round_means Hit sock));
        Bench.m "op_tail_ms" "ms" (snd (Bstats.tail hits));
        Bench.m "alt_p50_ms" "ms" (Bstats.median (round_means Run sock));
        Bench.m "peak_rss_mb" "MB" daemon_rss;
      ];
    layers;
  }
