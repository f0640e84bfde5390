(** Signature-keyed cache of compiled kernel shared objects.

    Each kernel is requested by the hash ({!Emit.hash}) of its canonical
    {!Emit.signature}, which names a shared object [korch_<md5>.so] in
    the cache directory, exporting the kernel as [korch_kernel_<md5>]
    ({!Emit.symbol}), plus an in-memory table of loaded handles. {!resolve}
    takes a whole batch (the native backend passes one plan) and resolves
    each distinct signature by the first rung that applies:

    + in-memory hit (resolved earlier this process);
    + disk hit — an existing [.so] is dlopen'd without recompiling;
    + compile — the signatures the first two rungs miss are dealt
      round-robin, in batch order, into one chunk per core
      ({!Parallel.Domain_pool.default_jobs}, at most 8, never more chunks
      than kernels). Each chunk is its own C translation unit
      ([korch_batch_<md5>.c], the prelude once and one function per
      kernel), and every chunk's [cc] starts at once. A chunk's object is
      hard-linked under each member's [korch_<md5>.so], and its source
      and log are then deleted. glibc's [dlopen] maps hard links to one
      file once, so each chunk is loaded once and each member is a
      [dlsym] into it.

    If a chunk of several kernels does not compile, each of its members
    is compiled alone (source [korch_<md5>.c]), at most one [cc] per
    core at a time, so a broken kernel fails only itself; a one-member
    chunk that fails is already that kernel alone. A failed compile keeps
    its [.c] and [.log] for diagnosis. A [.so] that fails to load
    (truncated, corrupted, wrong arch) is deleted and recompiled. Compile
    failures are memoized as [Failed] so a broken kernel doesn't
    re-invoke the compiler every execution; the native executor degrades
    that kernel to the interpreter.

    Files follow the one crash-safe discipline of {!Store}. Two
    processes or domains sharing a directory take the batch's
    per-signature locks ({!Store.with_locks}) and probe the disk again
    under them: the loser turns its compile into disk hits. A chunk's
    object is published by {!Store.publish_links}, and each {!resolve}
    that compiled syncs the directory once.

    Because the {!Emit.version} string participates in the signature (and
    therefore the hash), bumping the code generator invalidates every
    cached object automatically — stale [.so] files are simply never
    addressed again. Nothing prunes the directory: every [.so] and
    [.lock] stays.

    Compilation flags default to [-O3 -march=native -ffp-contract=off]:
    contraction must stay off, otherwise FMA fusion silently breaks
    bit-identity with the interpreter. Override with [KORCH_CFLAGS]
    (at your own risk), the compiler with [KORCH_CC], and the cache
    directory with [KORCH_KERNEL_CACHE]. *)

external dl_open : string -> nativeint = "korch_cg_dlopen"
external dl_sym : nativeint -> string -> nativeint = "korch_cg_dlsym"
external dl_close : nativeint -> unit = "korch_cg_dlclose"
external dl_call : nativeint -> float array array -> float array array -> unit
  = "korch_cg_call"

(* A loaded kernel: its [korch_kernel_<md5>] symbol. Its object stays
   open for the process lifetime. *)
type compiled = { fn : nativeint }

type entry = Loaded of compiled | Failed of string

type stats = {
  mutable compiles : int;  (** kernels compiled successfully *)
  mutable cc_runs : int;  (** compiler processes started *)
  mutable disk_hits : int;  (** .so reused from disk without compiling *)
  mutable mem_hits : int;  (** signatures already resolved this process *)
  mutable corrupt_recompiles : int;  (** unloadable .so deleted and rebuilt *)
  mutable failures : int;  (** signatures memoized as uncompilable *)
}

type t = {
  dir : string;
  table : (string, entry) Hashtbl.t;
  mutex : Mutex.t;
  stats : stats;
}

(* A kernel to resolve: its signature's {!Emit.hash}, and its C function
   under a given symbol, emitted only if it must compile. *)
type request = { hash : string; source : symbol:string -> string }

let m_compiles = Obs.Metrics.counter "codegen.compiles"
let m_cc_runs = Obs.Metrics.counter "codegen.cc_runs"
let m_disk_hits = Obs.Metrics.counter "codegen.cache.disk_hits"
let m_mem_hits = Obs.Metrics.counter "codegen.cache.mem_hits"
let m_corrupt = Obs.Metrics.counter "codegen.cache.corrupt_recompiles"
let m_failures = Obs.Metrics.counter "codegen.compile_failures"

let default_cflags = "-O3 -march=native -ffp-contract=off"

let cc () = match Sys.getenv_opt "KORCH_CC" with Some c when c <> "" -> c | _ -> "cc"

let cflags () =
  match Sys.getenv_opt "KORCH_CFLAGS" with Some f when f <> "" -> f | _ -> default_cflags

(* Probed once: is a C compiler callable at all? Without one the native
   backend degrades to the interpreter wholesale (CI runs the native
   lane only where cc exists). *)
let cc_available : bool Lazy.t =
  lazy
    (Sys.command (Printf.sprintf "command -v %s > /dev/null 2> /dev/null" (Filename.quote (cc ())))
    = 0)

let available () = Lazy.force cc_available

let create ?dir () : t =
  let dir =
    match dir with
    | Some d -> d
    | None -> (
      match Sys.getenv_opt "KORCH_KERNEL_CACHE" with
      | Some d when d <> "" -> d
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "korch-kernels")
  in
  Store.mkdir_p dir;
  let stats =
    { compiles = 0; cc_runs = 0; disk_hits = 0; mem_hits = 0; corrupt_recompiles = 0; failures = 0 }
  in
  { dir; table = Hashtbl.create 64; stats; mutex = Mutex.create () }

(* Process-default cache instance (the executor path). Tests build their
   own instances over scratch directories. *)
let default_instance : t option ref = ref None
let default_mutex = Mutex.create ()

let default () : t =
  Mutex.protect default_mutex (fun () ->
      match !default_instance with
      | Some t -> t
      | None ->
        let t = create () in
        default_instance := Some t;
        t)

let stats (t : t) = t.stats

let so_path (t : t) ~(hash : string) : string =
  Filename.concat t.dir (Printf.sprintf "korch_%s.so" hash)

let load_so ~(symbol : string) (so_path : string) : (compiled, string) result =
  match dl_open so_path with
  | handle -> begin
    match dl_sym handle symbol with
    | fn -> Ok { fn }
    | exception Failure msg ->
      dl_close handle;
      Error (Printf.sprintf "dlsym: %s" msg)
  end
  | exception Failure msg -> Error (Printf.sprintf "dlopen: %s" msg)

(* A signature [resolve] must load from disk or compile: its symbol and
   its [.so]. *)
type pending = { req : request; symbol : string; so : string }

(* [deal ~k l] — [l] dealt round-robin into [c = min k (List.length l)]
   chunks: element [i] goes to chunk [i mod c], so chunk sizes differ by
   at most one and each chunk keeps [l]'s order. *)
let deal ~(k : int) (l : 'a list) : 'a list list =
  let k = min k (List.length l) in
  List.init k (fun c -> List.filteri (fun i _ -> i mod k = c) l)

(* Run each shell command as [sh -c cmd] (what [Sys.command] runs), at
   most [k] at a time: each wave of [k] starts at once and is waited for
   in full. One result per command, in order. *)
let rec run_commands ~(k : int) (cmds : string list) : (unit, string) result list =
  let rec wait pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED rc -> Error (Printf.sprintf "cc exited with %d" rc)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Error (Printf.sprintf "cc killed by signal %d" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot wait for cc: %s" (Unix.error_message e))
  in
  match cmds with
  | [] -> []
  | _ ->
    let wave = List.filteri (fun i _ -> i < k) cmds in
    let started =
      List.map
        (fun cmd ->
          match
            Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] Unix.stdin Unix.stdout
              Unix.stderr
          with
          | pid -> Ok pid
          | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "cannot start cc: %s" (Unix.error_message e)))
        wave
    in
    let results = List.map (fun p -> Result.bind p wait) started in
    results @ run_commands ~k (List.filteri (fun i _ -> i >= k) cmds)

(* Compile each [(name, members)] unit (members with their emitted C
   functions) as its own translation unit [name.c]: one cc run per unit,
   at most [k] at a time, stderr captured in [name.log]. A unit that
   compiles is published under every member's [.so], and its [.c] and
   [.log] are deleted; one that does not keeps both for diagnosis. One
   result per unit, in order: the compiler diagnostics on failure. *)
let compile_units (t : t) ~(k : int) (units : (string * (pending * string) list) list) :
    (unit, string) result list =
  let file name ext = Filename.concat t.dir (name ^ ext) in
  let objs = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun obj -> try Sys.remove obj with Sys_error _ -> ()) !objs)
    (fun () ->
      let cmds =
        List.map
          (fun (name, members) ->
            Store.publish (file name ".c") (Emit.translation_unit (List.map snd members));
            let obj = Filename.temp_file ~temp_dir:t.dir name ".so.tmp" in
            objs := obj :: !objs;
            ( obj,
              Printf.sprintf "%s %s -fPIC -shared -o %s %s -lm 2> %s" (cc ()) (cflags ())
                (Filename.quote obj)
                (Filename.quote (file name ".c"))
                (Filename.quote (file name ".log")) ))
          units
      in
      let n = List.length units in
      t.stats.cc_runs <- t.stats.cc_runs + n;
      Obs.Metrics.add m_cc_runs n;
      List.map2
        (fun ((name, members), (obj, _)) -> function
          | Ok () ->
            Store.publish_links ~src:obj (List.map (fun (m, _) -> m.so) members);
            List.iter
              (fun ext -> try Sys.remove (file name ext) with Sys_error _ -> ())
              [ ".c"; ".log" ];
            let n = List.length members in
            t.stats.compiles <- t.stats.compiles + n;
            Obs.Metrics.add m_compiles n;
            Ok ()
          | Error msg ->
            let log = file name ".log" in
            if Sys.file_exists log then
              let diag = try Store.read ~limit:2000 log with Sys_error _ -> "" in
              Error (Printf.sprintf "%s: %s" msg (String.trim diag))
            else begin
              (* sh never ran, so no log: write why, so that a kept
                 source always has its log. *)
              (try Store.publish log msg with Sys_error _ | Unix.Unix_error _ -> ());
              Error msg
            end)
        (List.combine units cmds)
        (run_commands ~k (List.map snd cmds)))

(* Resolve [missing] (distinct signatures absent from the table) under
   their file locks and memoize each outcome in the table. *)
let resolve_missing (t : t) (missing : pending list) : unit =
  let memo (m : pending) = function
    | Ok c -> Hashtbl.replace t.table m.req.hash (Loaded c)
    | Error msg ->
      t.stats.failures <- t.stats.failures + 1;
      Obs.Metrics.incr m_failures;
      Hashtbl.replace t.table m.req.hash (Failed msg)
  in
  Store.with_locks (List.map (fun m -> m.so) missing) @@ fun () ->
  (* The disk probe runs under the locks: if another process or domain
     is mid-compile we block until its rename lands and take the disk hit. *)
  let on_disk m =
    Sys.file_exists m.so
    &&
    match load_so ~symbol:m.symbol m.so with
    | Ok c ->
      t.stats.disk_hits <- t.stats.disk_hits + 1;
      Obs.Metrics.incr m_disk_hits;
      memo m (Ok c);
      true
    | Error _ ->
      (* Corrupted or stale-arch cache entry: delete, rebuild. *)
      (try Sys.remove m.so with Sys_error _ -> ());
      t.stats.corrupt_recompiles <- t.stats.corrupt_recompiles + 1;
      Obs.Metrics.incr m_corrupt;
      false
  in
  let to_compile =
    List.filter_map
      (fun m ->
        if on_disk m then None
        else
          match m.req.source ~symbol:m.symbol with
          | src -> Some (m, src)
          | exception e ->
            memo m (Error (Printf.sprintf "emit: %s" (Printexc.to_string e)));
            None)
      missing
  in
  let k = Parallel.Domain_pool.default_jobs () in
  let load m =
    memo m
      (match load_so ~symbol:m.symbol m.so with
      | Ok c -> Ok c
      | Error msg -> Error (Printf.sprintf "freshly compiled object unloadable: %s" msg))
  in
  let chunks = deal ~k to_compile in
  let chunk_name chunk =
    "korch_batch_" ^ Emit.hash (String.concat "|" (List.map (fun (m, _) -> m.symbol) chunk))
  in
  (* A failed chunk of several kernels hands its members on to be
     compiled alone; a failed one-member chunk was that kernel alone. *)
  let retry =
    List.concat
      (List.map2
         (fun chunk -> function
           | Ok () ->
             List.iter (fun (m, _) -> load m) chunk;
             []
           | Error msg -> (
             match chunk with
             | [ (m, _) ] ->
               memo m (Error msg);
               []
             | _ -> chunk))
         chunks
         (compile_units t ~k (List.map (fun c -> (chunk_name c, c)) chunks)))
  in
  List.iter2
    (fun (m, _) -> function Ok () -> load m | Error msg -> memo m (Error msg))
    retry
    (compile_units t ~k
       (List.map (fun ((m, _) as member) -> ("korch_" ^ m.req.hash, [ member ]))
          retry));
  (* One directory sync makes every object this call published durable. *)
  if to_compile <> [] then Store.sync_dir t.dir

(** [resolve t reqs] — one result per request, in order: the loaded
    kernel, or why it has none. Every distinct signature missing from
    memory is probed on disk and the rest compiled in concurrent chunks
    (see the header); [source ~symbol] is called only for signatures that
    compile, so cache hits skip emission. *)
let resolve (t : t) (reqs : request list) : (compiled, string) result list =
  Mutex.protect t.mutex (fun () ->
      let fresh = Hashtbl.create 16 in
      let missing =
        List.filter_map
          (fun (r : request) ->
            if Hashtbl.mem t.table r.hash || Hashtbl.mem fresh r.hash then None
            else begin
              Hashtbl.replace fresh r.hash ();
              Some { req = r; symbol = Emit.symbol r.hash; so = so_path t ~hash:r.hash }
            end)
          reqs
      in
      if missing <> [] && available () then resolve_missing t missing;
      (* The first request of a signature resolved by this call is not a
         memory hit; every later one is. *)
      List.map
        (fun (r : request) ->
          match Hashtbl.find_opt t.table r.hash with
          | None -> Error "no C compiler available"
          | Some (Failed msg) -> Error msg
          | Some (Loaded c) ->
            if Hashtbl.mem fresh r.hash then Hashtbl.remove fresh r.hash
            else begin
              t.stats.mem_hits <- t.stats.mem_hits + 1;
              Obs.Metrics.incr m_mem_hits
            end;
            Ok c)
        reqs)

(** [call c ~ins ~outs] invokes the compiled kernel on flat float-array
    views of the input and output tensors. *)
let call (c : compiled) ~(ins : float array array) ~(outs : float array array) : unit =
  dl_call c.fn ins outs
