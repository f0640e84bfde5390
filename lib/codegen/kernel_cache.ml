(** Signature-keyed cache of compiled kernel shared objects.

    Each kernel's canonical {!Emit.signature} hashes ({!Emit.hash}) to a
    shared object [korch_<md5>.so] in the cache directory, exporting the
    kernel as [korch_kernel_<md5>] ({!Emit.symbol}), plus an in-memory
    table of loaded handles. {!resolve} takes a whole batch (the native
    backend passes one plan) and resolves each distinct signature by the
    first rung that applies:

    + in-memory hit (resolved earlier this process);
    + disk hit — an existing [.so] is dlopen'd without recompiling;
    + compile — every signature the first two rungs miss goes into one C
      translation unit ([korch_batch_<md5>.c], the prelude once and one
      function per kernel), built by one [cc] run into a [.so.tmp] that
      is published under each member's [korch_<md5>.so] by hard link
      plus rename. glibc's [dlopen] maps hard links to one file once, so
      the batch is loaded once and each member is a [dlsym] into it.

    If the batch does not compile, each member is compiled alone
    (source [korch_<md5>.c]), so a broken kernel fails only itself. A
    [.so] that fails to load (truncated, corrupted, wrong arch) is
    deleted and recompiled. Compile failures are memoized as [Failed]
    so a broken kernel doesn't re-invoke the compiler every execution;
    the native executor degrades that kernel to the interpreter.

    Two processes sharing a directory take the batch's per-signature
    file locks in sorted order (so they cannot deadlock) and probe the
    disk again under them: the loser turns its compile into disk hits.

    Because the {!Emit.version} string participates in the signature (and
    therefore the hash), bumping the code generator invalidates every
    cached object automatically — stale [.so] files are simply never
    addressed again.

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

type compiled = {
  fn : nativeint;  (** resolved [korch_kernel_<md5>] symbol *)
  handle : nativeint;  (** dlopen handle (kept for the process lifetime) *)
  so_path : string;
}

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

type request = { signature : string; source : symbol:string -> string }

let m_compiles = Obs.Metrics.counter "codegen.compiles"
let m_cc_runs = Obs.Metrics.counter "codegen.cc_runs"
let m_disk_hits = Obs.Metrics.counter "codegen.cache.disk_hits"
let m_mem_hits = Obs.Metrics.counter "codegen.cache.mem_hits"
let m_corrupt = Obs.Metrics.counter "codegen.cache.corrupt_recompiles"
let m_failures = Obs.Metrics.counter "codegen.compile_failures"

let fresh_stats () =
  {
    compiles = 0;
    cc_runs = 0;
    disk_hits = 0;
    mem_hits = 0;
    corrupt_recompiles = 0;
    failures = 0;
  }

let env_dir_var = "KORCH_KERNEL_CACHE"
let env_cc_var = "KORCH_CC"
let env_cflags_var = "KORCH_CFLAGS"

let default_cflags = "-O3 -march=native -ffp-contract=off"

let cc () = match Sys.getenv_opt env_cc_var with Some c when c <> "" -> c | _ -> "cc"

let cflags () =
  match Sys.getenv_opt env_cflags_var with Some f when f <> "" -> f | _ -> default_cflags

(* Probed once: is a C compiler callable at all? Without one the native
   backend degrades to the interpreter wholesale (CI runs the native
   lane only where cc exists). *)
let cc_available : bool Lazy.t =
  lazy
    (Sys.command (Printf.sprintf "command -v %s > /dev/null 2> /dev/null" (Filename.quote (cc ())))
    = 0)

let available () = Lazy.force cc_available

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create ?dir () : t =
  let dir =
    match dir with
    | Some d -> d
    | None -> (
      match Sys.getenv_opt env_dir_var with
      | Some d when d <> "" -> d
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "korch-kernels")
  in
  mkdir_p dir;
  { dir; table = Hashtbl.create 64; stats = fresh_stats (); mutex = Mutex.create () }

(* Process-default cache instance (the executor path). Tests build their
   own instances over scratch directories. *)
let default_instance : t option ref = ref None
let default_mutex = Mutex.create ()

let default () : t =
  Mutex.lock default_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock default_mutex)
    (fun () ->
      match !default_instance with
      | Some t -> t
      | None ->
        let t = create () in
        default_instance := Some t;
        t)

let stats (t : t) = t.stats

let so_path (t : t) ~(signature : string) : string =
  Filename.concat t.dir (Printf.sprintf "korch_%s.so" (Emit.hash signature))

(* Atomic publish: write to a unique temp file in the same directory,
   then rename over the target (rename within a filesystem is atomic, so
   concurrent processes never observe a half-written source). *)
let write_atomic ~dir ~path (contents : string) : unit =
  let tmp = Filename.temp_file ~temp_dir:dir "korch" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

(* Cross-process exclusion around one signature's compile. Renames keep
   every publish atomic, but without a lock two daemons sharing a cache
   directory would both run cc for the same signature (wasted work, and
   interleaved [.tmp]/[.log] churn). A per-signature [.lock] file with an
   advisory [Unix.lockf] write lock serializes them; the loser re-checks
   the [.so] after acquiring and turns its compile into a disk hit. Lock
   files are left in place — unlinking them is racy (a third process may
   lock the unlinked inode while a fourth creates a fresh one). *)
let with_file_lock (lock_path : string) (f : unit -> 'a) : 'a =
  match Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error _ -> f () (* degraded: in-process mutex only *)
  | fd ->
    let locked = match Unix.lockf fd Unix.F_LOCK 0 with () -> true | exception _ -> false in
    Fun.protect
      ~finally:(fun () ->
        (if locked then try Unix.lockf fd Unix.F_ULOCK 0 with _ -> ());
        Unix.close fd)
      f

(* Every lock of a batch, taken in sorted order so two processes whose
   batches overlap cannot deadlock. *)
let with_file_locks (lock_paths : string list) (f : unit -> 'a) : 'a =
  List.fold_right
    (fun p k () -> with_file_lock p k)
    (List.sort_uniq String.compare lock_paths)
    f ()

let load_so ~(symbol : string) (so_path : string) : (compiled, string) result =
  match dl_open so_path with
  | handle -> begin
    match dl_sym handle symbol with
    | fn -> Ok { fn; handle; so_path }
    | exception Failure msg ->
      dl_close handle;
      Error (Printf.sprintf "dlsym: %s" msg)
  end
  | exception Failure msg -> Error (Printf.sprintf "dlopen: %s" msg)

let read_file ?(limit = max_int) (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (min (in_channel_length ic) limit))

(* A signature [resolve] must load from disk or compile: its symbol and
   its [.so]. *)
type pending = { req : request; symbol : string; so : string }

(* Publish [obj] under [so]: hard-link it to a staging name, then
   rename over the target (a copy where the filesystem has no hard
   links). *)
let publish ~(obj : string) (so : string) : unit =
  let staged = so ^ ".tmp" in
  (try Sys.remove staged with Sys_error _ -> ());
  match Unix.link obj staged with
  | () -> Sys.rename staged so
  | exception Unix.Unix_error _ ->
    write_atomic ~dir:(Filename.dirname so) ~path:so (read_file obj)

(* Compile [members] (each with its emitted C function) as one
   translation unit [name.c] with one cc run, stderr captured in
   [name.log], and publish the object under every member's [.so].
   Returns the compiler diagnostics on failure. *)
let compile_unit (t : t) ~(name : string) (members : (pending * string) list) :
    (unit, string) result =
  let c_path = Filename.concat t.dir (name ^ ".c") in
  let log = Filename.concat t.dir (name ^ ".log") in
  write_atomic ~dir:t.dir ~path:c_path
    (Emit.translation_unit (List.map snd members));
  let obj = Filename.temp_file ~temp_dir:t.dir name ".so.tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove obj with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s -fPIC -shared -o %s %s -lm 2> %s" (cc ()) (cflags ())
          (Filename.quote obj) (Filename.quote c_path) (Filename.quote log)
      in
      t.stats.cc_runs <- t.stats.cc_runs + 1;
      Obs.Metrics.incr m_cc_runs;
      match Sys.command cmd with
      | 0 ->
        List.iter (fun (m, _) -> publish ~obj m.so) members;
        (try Sys.remove log with Sys_error _ -> ());
        let n = List.length members in
        t.stats.compiles <- t.stats.compiles + n;
        Obs.Metrics.add m_compiles n;
        Ok ()
      | rc ->
        let diag = try read_file ~limit:2000 log with Sys_error _ -> "" in
        Error (Printf.sprintf "cc exited with %d: %s" rc (String.trim diag)))

(* Resolve [missing] (distinct signatures absent from the table) under
   their file locks and memoize each outcome in the table. *)
let resolve_missing (t : t) (missing : pending list) : unit =
  let memo (m : pending) = function
    | Ok c -> Hashtbl.replace t.table m.req.signature (Loaded c)
    | Error msg ->
      t.stats.failures <- t.stats.failures + 1;
      Obs.Metrics.incr m_failures;
      Hashtbl.replace t.table m.req.signature (Failed msg)
  in
  with_file_locks (List.map (fun m -> m.so ^ ".lock") missing) @@ fun () ->
  (* The disk probe runs under the locks: if another process is
     mid-compile we block until its rename lands and take the disk hit. *)
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
  let load m =
    memo m
      (match load_so ~symbol:m.symbol m.so with
      | Ok c -> Ok c
      | Error msg -> Error (Printf.sprintf "freshly compiled object unloadable: %s" msg))
  in
  let alone ((m, _) as member) =
    match compile_unit t ~name:("korch_" ^ Emit.hash m.req.signature) [ member ] with
    | Ok () -> load m
    | Error msg -> memo m (Error msg)
  in
  match to_compile with
  | [] -> ()
  | [ member ] -> alone member
  | batch -> (
    let name =
      "korch_batch_" ^ Emit.hash (String.concat "|" (List.map (fun (m, _) -> m.symbol) batch))
    in
    match compile_unit t ~name batch with
    | Ok () -> List.iter (fun (m, _) -> load m) batch
    | Error _ -> List.iter alone batch)

(** [resolve t reqs] — one result per request, in order: the loaded
    kernel, or why it has none. Every distinct signature missing from
    memory is probed on disk and the rest compiled together (see the
    header); [source ~symbol] is called only for signatures that
    compile, so cache hits skip emission. *)
let resolve (t : t) (reqs : request list) : (compiled, string) result list =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let fresh = Hashtbl.create 16 in
      let missing =
        List.filter_map
          (fun (r : request) ->
            if Hashtbl.mem t.table r.signature || Hashtbl.mem fresh r.signature then None
            else begin
              Hashtbl.replace fresh r.signature ();
              Some
                { req = r; symbol = Emit.symbol r.signature; so = so_path t ~signature:r.signature }
            end)
          reqs
      in
      if missing <> [] && available () then resolve_missing t missing;
      (* The first request of a signature resolved by this call is not a
         memory hit; every later one is. *)
      List.map
        (fun (r : request) ->
          match Hashtbl.find_opt t.table r.signature with
          | None -> Error "no C compiler available"
          | Some (Failed msg) -> Error msg
          | Some (Loaded c) ->
            if Hashtbl.mem fresh r.signature then Hashtbl.remove fresh r.signature
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
