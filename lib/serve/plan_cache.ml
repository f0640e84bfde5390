(** Durable content-addressed plan cache (see the interface for the
    contract and the atomicity discipline). *)

type key = { graph_hash : string; gpu : string; precision : string; batch : int }

type status = Final | Incumbent

let status_to_string = function Final -> "final" | Incumbent -> "incumbent"

let status_of_string = function
  | "final" -> Some Final
  | "incumbent" -> Some Incumbent
  | _ -> None

type entry = {
  key : key;
  status : status;
  graph : Ir.Primgraph.t;
  plan : Runtime.Plan.t;
  report : Onnx.Json.t option;
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  version_misses : int;
  io_faults : int;
}

type t = {
  dir : string;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_stores : int Atomic.t;
  c_corrupt : int Atomic.t;
  c_version_misses : int Atomic.t;
  c_io_faults : int Atomic.t;
}

(* Process-wide census, next to the other serving metrics. *)
let m_hits = Obs.Metrics.counter "serve.plan_cache.hits"
let m_misses = Obs.Metrics.counter "serve.plan_cache.misses"
let m_stores = Obs.Metrics.counter "serve.plan_cache.stores"
let m_corrupt = Obs.Metrics.counter "serve.plan_cache.corrupt"
let m_version_miss = Obs.Metrics.counter "serve.plan_cache.version_miss"
let m_io_faults = Obs.Metrics.counter "serve.plan_cache.io_faults"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create ~dir () : t =
  mkdir_p dir;
  {
    dir;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_stores = Atomic.make 0;
    c_corrupt = Atomic.make 0;
    c_version_misses = Atomic.make 0;
    c_io_faults = Atomic.make 0;
  }

let dir t = t.dir

let key ~(graph : Ir.Opgraph.t) ~gpu ~precision ~batch : key =
  {
    graph_hash = Digest.to_hex (Digest.string (Onnx.Serialize.opgraph_to_string graph));
    gpu;
    precision;
    batch;
  }

let key_string (k : key) =
  Printf.sprintf "%s:%s:%s:%d" k.graph_hash k.gpu k.precision k.batch

let entry_path (t : t) (k : key) : string =
  Filename.concat t.dir
    (Printf.sprintf "plan_%s.json" (Digest.to_hex (Digest.string (key_string k))))

(* Same advisory-lock shape as [Codegen.Kernel_cache]: a per-entry .lock
   file serializes concurrent daemons' publishes; lock files are never
   unlinked (removal races a third process locking the dead inode). *)
let with_file_lock (lock_path : string) (f : unit -> 'a) : 'a =
  match Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    let locked = match Unix.lockf fd Unix.F_LOCK 0 with () -> true | exception _ -> false in
    Fun.protect
      ~finally:(fun () ->
        (if locked then try Unix.lockf fd Unix.F_ULOCK 0 with _ -> ());
        Unix.close fd)
      f

(* Durable atomic publish: temp file in the same directory, fsync the
   data, rename over the target, fsync the directory so the rename itself
   survives a crash. A kill -9 at any point leaves either the old entry
   or the new one — never a torn file. *)
let write_durable ~dir ~path (contents : string) : unit =
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp_%d_%d_%s" (Unix.getpid ()) (Hashtbl.hash contents)
         (Filename.basename path))
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  (try
     let rec write off =
       if off < String.length contents then
         write (off + Unix.write_substring fd contents off (String.length contents - off))
     in
     write 0;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  Sys.rename tmp path;
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with _ -> ());
    (try Unix.close dfd with _ -> ())

(* Schema history:
   - korch-plan-cache/1 — fixed-batch plan entries only.
   - korch-plan-cache/2 — entries carry a ["kind"] ("plan" | "table");
     "table" embeds a korch-plan-table/1 document under a batch-range
     key. The version was bumped so a v1 reader can never mis-parse (or
     mis-serve) a batch-range entry as a fixed-batch plan.
   An entry whose schema is a well-formed string other than the current
   one is a {e version miss}: the file is left in place (a newer or
   older daemon sharing the directory still owns it) and the lookup
   degrades to a miss, counted separately from corruption. *)
let schema = "korch-plan-cache/2"

let key_json (k : key) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("graph_hash", Obs.Jsonw.Str k.graph_hash);
      ("gpu", Obs.Jsonw.Str k.gpu);
      ("precision", Obs.Jsonw.Str k.precision);
      ("batch", Obs.Jsonw.Int k.batch);
    ]

(* The entry document is assembled from already-rendered JSON fragments:
   the primgraph prints through [Onnx.Serialize], the plan through
   [Korch.Report.plan_to_json] — both round-trip exactly (17-digit
   floats), which is what makes warm responses bit-identical. *)
let render_entry (k : key) ~(status : status) ~(graph : Ir.Primgraph.t)
    ~(plan : Runtime.Plan.t) ~(report : string) : string =
  Printf.sprintf
    {|{"schema":%s,"kind":"plan","key":%s,"status":%s,"primgraph":%s,"plan":%s,"report":%s}|}
    (Obs.Jsonw.to_string (Obs.Jsonw.Str schema))
    (Obs.Jsonw.to_string (key_json k))
    (Obs.Jsonw.to_string (Obs.Jsonw.Str (status_to_string status)))
    (Onnx.Serialize.primgraph_to_string graph)
    (Korch.Report.plan_roundtrip_string plan)
    (if report = "" then "null" else report)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Outcome of reading one entry file: a good entry, a recognizably
   foreign schema version (left on disk, served as a miss), or garbage
   (deleted, served as a miss). *)
type 'a parsed = Parsed of 'a | Version_miss | Corrupt of string

let field name j =
  match Onnx.Json.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

(* [`Ok] only for the current schema; a different well-formed schema
   string is a version miss, anything else is corruption. *)
let check_schema (j : Onnx.Json.t) =
  match Onnx.Json.member "schema" j with
  | Some (Onnx.Json.Str s) when s = schema -> `Current
  | Some (Onnx.Json.Str _) -> `Foreign
  | _ -> `Malformed

let check_kind (expect : string) (j : Onnx.Json.t) =
  match Onnx.Json.member "kind" j with
  | Some (Onnx.Json.Str s) when s = expect -> ()
  | Some (Onnx.Json.Str s) -> failwith (Printf.sprintf "kind %S where %S expected" s expect)
  | _ -> failwith "missing kind"

let with_parsed (doc : string) (body : Onnx.Json.t -> 'a) : 'a parsed =
  match
    let j = Onnx.Json.of_string doc in
    match check_schema j with
    | `Foreign -> Version_miss
    | `Malformed -> Corrupt "missing schema"
    | `Current -> Parsed (body j)
  with
  | outcome -> outcome
  | exception Failure msg -> Corrupt msg
  | exception Onnx.Json.Parse_error (msg, off) ->
    Corrupt (Printf.sprintf "JSON parse error at byte %d: %s" off msg)
  | exception Onnx.Deserialize.Format_error msg -> Corrupt ("graph: " ^ msg)
  | exception e -> Corrupt (Printexc.to_string e)

(* Parse + validate one plan entry file. *)
let parse_entry (k : key) (doc : string) : entry parsed =
  let open Onnx.Json in
  with_parsed doc @@ fun j ->
    check_kind "plan" j;
    let kj = field "key" j in
    let stored_key =
      {
        graph_hash = to_string_exn (field "graph_hash" kj);
        gpu = to_string_exn (field "gpu" kj);
        precision = to_string_exn (field "precision" kj);
        batch = to_int_exn (field "batch" kj);
      }
    in
    if stored_key <> k then failwith "key mismatch (hash collision or misfiled entry)";
    let status =
      match status_of_string (to_string_exn (field "status" j)) with
      | Some s -> s
      | None -> failwith "unknown status"
    in
    let graph =
      Onnx.Deserialize.to_graph Onnx.Deserialize.to_primitive (field "primgraph" j)
        ~expect_kind:"primitive"
    in
    let plan =
      match Korch.Report.plan_of_json (field "plan" j) with
      | Ok p -> p
      | Error msg -> failwith ("plan: " ^ msg)
    in
    (* The recovered plan must actually execute against the recovered
       graph: the same {!Runtime.Plan.check} every executor run applies. *)
    (match Runtime.Executor.validate graph plan with
    | Ok () -> ()
    | Error msg -> failwith ("plan does not validate against graph: " ^ msg));
    let report = match member "report" j with Some Null | None -> None | Some r -> Some r in
    { key = k; status; graph; plan; report }

let bump t local global =
  Atomic.incr local;
  Obs.Metrics.incr global;
  ignore t

let lookup (t : t) (k : key) : entry option =
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ ->
    bump t t.c_io_faults m_io_faults;
    None
  | () -> (
    let path = entry_path t k in
    if not (Sys.file_exists path) then begin
      bump t t.c_misses m_misses;
      None
    end
    else
      match read_file path with
      | exception _ ->
        bump t t.c_io_faults m_io_faults;
        None
      | doc -> (
        match parse_entry k doc with
        | Parsed e ->
          bump t t.c_hits m_hits;
          Some e
        | Version_miss ->
          (* Foreign schema version: leave the file alone (another
             daemon generation owns it) and degrade to a miss. *)
          bump t t.c_version_misses m_version_miss;
          bump t t.c_misses m_misses;
          None
        | Corrupt _ ->
          (* Corrupt-entry recovery: delete and miss; a later store
             republishes a good entry. *)
          (try Sys.remove path with Sys_error _ -> ());
          bump t t.c_corrupt m_corrupt;
          bump t t.c_misses m_misses;
          None))

let store (t : t) (k : key) ~(status : status) ~(graph : Ir.Primgraph.t)
    ~(plan : Runtime.Plan.t) ~(report : string) : unit =
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ -> bump t t.c_io_faults m_io_faults
  | () -> (
    let path = entry_path t k in
    match
      with_file_lock (path ^ ".lock") @@ fun () ->
      (* Never downgrade: a concurrent (or earlier) final entry beats an
         incumbent produced under deadline pressure. *)
      let existing_final =
        status = Incumbent && Sys.file_exists path
        &&
        (* A final entry only protects itself within the current schema
           version: a foreign-version file is a version miss on read, so
           letting it pin the slot would starve the cache forever. *)
        match Onnx.Json.of_string (read_file path) with
        | j -> (
          check_schema j = `Current
          && match Onnx.Json.member "status" j with
             | Some (Onnx.Json.Str "final") -> true
             | _ -> false)
        | exception _ -> false
      in
      if not existing_final then begin
        write_durable ~dir:t.dir ~path (render_entry k ~status ~graph ~plan ~report);
        bump t t.c_stores m_stores
      end
    with
    | () -> ()
    | exception _ -> bump t t.c_io_faults m_io_faults)

(* --------------------------- table entries -------------------------- *)

type table_key = {
  t_graph_hash : string;  (** hash of the operator graph at batch [t_lo] *)
  t_gpu : string;
  t_precision : string;
  t_lo : int;
  t_hi : int;
}

let table_key ~(graph : Ir.Opgraph.t) ~gpu ~precision ~lo ~hi : table_key =
  {
    t_graph_hash = Digest.to_hex (Digest.string (Onnx.Serialize.opgraph_to_string graph));
    t_gpu = gpu;
    t_precision = precision;
    t_lo = lo;
    t_hi = hi;
  }

let table_key_string (k : table_key) =
  Printf.sprintf "table:%s:%s:%s:%d-%d" k.t_graph_hash k.t_gpu k.t_precision k.t_lo k.t_hi

let table_path (t : t) (k : table_key) : string =
  Filename.concat t.dir
    (Printf.sprintf "table_%s.json" (Digest.to_hex (Digest.string (table_key_string k))))

let table_key_json (k : table_key) : Obs.Jsonw.t =
  Obs.Jsonw.Obj
    [
      ("graph_hash", Obs.Jsonw.Str k.t_graph_hash);
      ("gpu", Obs.Jsonw.Str k.t_gpu);
      ("precision", Obs.Jsonw.Str k.t_precision);
      ("lo", Obs.Jsonw.Int k.t_lo);
      ("hi", Obs.Jsonw.Int k.t_hi);
    ]

let render_table (k : table_key) (table : Korch.Plan_table.t) : string =
  Printf.sprintf {|{"schema":%s,"kind":"table","key":%s,"table":%s}|}
    (Obs.Jsonw.to_string (Obs.Jsonw.Str schema))
    (Obs.Jsonw.to_string (table_key_json k))
    (Korch.Report.plan_table_json_string table)

let parse_table (k : table_key) (doc : string) : Korch.Plan_table.t parsed =
  with_parsed doc @@ fun j ->
    check_kind "table" j;
    let kj = field "key" j in
    let stored_key =
      {
        t_graph_hash = Onnx.Json.to_string_exn (field "graph_hash" kj);
        t_gpu = Onnx.Json.to_string_exn (field "gpu" kj);
        t_precision = Onnx.Json.to_string_exn (field "precision" kj);
        t_lo = Onnx.Json.to_int_exn (field "lo" kj);
        t_hi = Onnx.Json.to_int_exn (field "hi" kj);
      }
    in
    if stored_key <> k then failwith "key mismatch (hash collision or misfiled entry)";
    let table =
      match Korch.Report.plan_table_of_json (field "table" j) with
      | Ok tb -> tb
      | Error msg -> failwith ("table: " ^ msg)
    in
    (* Every range's plan must execute against its own graph — the same
       static check fixed-batch entries get. *)
    List.iter
      (fun (r : Korch.Plan_table.range) ->
        match Runtime.Executor.validate r.Korch.Plan_table.graph r.Korch.Plan_table.plan with
        | Ok () -> ()
        | Error msg ->
          failwith
            (Printf.sprintf "range [%d..%d]: plan does not validate against graph: %s"
               r.Korch.Plan_table.lo r.Korch.Plan_table.hi msg))
      table.Korch.Plan_table.ranges;
    table

let lookup_table (t : t) (k : table_key) : Korch.Plan_table.t option =
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ ->
    bump t t.c_io_faults m_io_faults;
    None
  | () -> (
    let path = table_path t k in
    if not (Sys.file_exists path) then begin
      bump t t.c_misses m_misses;
      None
    end
    else
      match read_file path with
      | exception _ ->
        bump t t.c_io_faults m_io_faults;
        None
      | doc -> (
        match parse_table k doc with
        | Parsed tb ->
          bump t t.c_hits m_hits;
          Some tb
        | Version_miss ->
          bump t t.c_version_misses m_version_miss;
          bump t t.c_misses m_misses;
          None
        | Corrupt _ ->
          (try Sys.remove path with Sys_error _ -> ());
          bump t t.c_corrupt m_corrupt;
          bump t t.c_misses m_misses;
          None))

let store_table (t : t) (k : table_key) (table : Korch.Plan_table.t) : unit =
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ -> bump t t.c_io_faults m_io_faults
  | () -> (
    let path = table_path t k in
    match
      with_file_lock (path ^ ".lock") @@ fun () ->
      write_durable ~dir:t.dir ~path (render_table k table);
      bump t t.c_stores m_stores
    with
    | () -> ()
    | exception _ -> bump t t.c_io_faults m_io_faults)

let stats (t : t) : stats =
  {
    hits = Atomic.get t.c_hits;
    misses = Atomic.get t.c_misses;
    stores = Atomic.get t.c_stores;
    corrupt = Atomic.get t.c_corrupt;
    version_misses = Atomic.get t.c_version_misses;
    io_faults = Atomic.get t.c_io_faults;
  }

let hit_rate (t : t) : float =
  let h = Atomic.get t.c_hits and m = Atomic.get t.c_misses in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let stats_to_json (t : t) : Obs.Jsonw.t =
  let s = stats t in
  Obs.Jsonw.Obj
    [
      ("hits", Obs.Jsonw.Int s.hits);
      ("misses", Obs.Jsonw.Int s.misses);
      ("stores", Obs.Jsonw.Int s.stores);
      ("corrupt", Obs.Jsonw.Int s.corrupt);
      ("version_misses", Obs.Jsonw.Int s.version_misses);
      ("io_faults", Obs.Jsonw.Int s.io_faults);
      ("hit_rate", Obs.Jsonw.Float (hit_rate t));
    ]
