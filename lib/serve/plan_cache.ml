(** Durable content-addressed plan cache (see the interface for the
    contract and the atomicity discipline). *)

type key = { graph_hash : string; gpu : string; precision : string; batch : int }

type status = Final | Incumbent

type entry = {
  key : key;
  status : status;
  graph : Ir.Primgraph.t;
  plan : Runtime.Plan.t;
  report : Onnx.Json.t option;
}

type table_key = {
  t_graph_hash : string;  (** hash of the operator graph at batch [t_lo] *)
  t_gpu : string;
  t_precision : string;
  t_lo : int;
  t_hi : int;
}

type doc = Plan of entry | Table of table_key * Korch.Plan_table.t

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

let graph_hash (graph : Ir.Opgraph.t) =
  Digest.to_hex (Digest.string (Onnx.Serialize.opgraph_to_string graph))

let key ~(graph : Ir.Opgraph.t) ~gpu ~precision ~batch : key =
  { graph_hash = graph_hash graph; gpu; precision; batch }

let table_key ~(graph : Ir.Opgraph.t) ~gpu ~precision ~lo ~hi : table_key =
  { t_graph_hash = graph_hash graph; t_gpu = gpu; t_precision = precision; t_lo = lo; t_hi = hi }

(* An entry's file is named by the MD5 of its key's string form. *)
let file (t : t) ~prefix (key_string : string) : string =
  Filename.concat t.dir
    (Printf.sprintf "%s_%s.json" prefix (Digest.to_hex (Digest.string key_string)))

let entry_path (t : t) (k : key) : string =
  file t ~prefix:"plan" (Printf.sprintf "%s:%s:%s:%d" k.graph_hash k.gpu k.precision k.batch)

let table_path (t : t) (k : table_key) : string =
  file t ~prefix:"table"
    (Printf.sprintf "table:%s:%s:%s:%d-%d" k.t_graph_hash k.t_gpu k.t_precision k.t_lo k.t_hi)

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

let doc_codec : doc Onnx.Codec.t =
  let key =
    Onnx.Codec.(
      obj (fun graph_hash gpu precision batch -> { graph_hash; gpu; precision; batch })
      |> field "graph_hash" string (fun k -> k.graph_hash)
      |> field "gpu" string (fun k -> k.gpu)
      |> field "precision" string (fun k -> k.precision)
      |> field "batch" int (fun k -> k.batch)
      |> finish)
  and table_key =
    Onnx.Codec.(
      obj (fun t_graph_hash t_gpu t_precision t_lo t_hi ->
          { t_graph_hash; t_gpu; t_precision; t_lo; t_hi })
      |> field "graph_hash" string (fun k -> k.t_graph_hash)
      |> field "gpu" string (fun k -> k.t_gpu)
      |> field "precision" string (fun k -> k.t_precision)
      |> field "lo" int (fun k -> k.t_lo)
      |> field "hi" int (fun k -> k.t_hi)
      |> finish)
  in
  Onnx.Codec.(
    obj (fun () doc -> doc)
    |> field "schema" (enum [ (schema, ()) ]) (fun _ -> ())
    |> kind "kind"
         [
           case "plan"
             (obj (fun key status graph plan report -> { key; status; graph; plan; report })
             |> field "key" key (fun e -> e.key)
             |> field "status" (enum [ ("final", Final); ("incumbent", Incumbent) ]) (fun e ->
                    e.status)
             |> field "primgraph" Korch.Report.primgraph_codec (fun e -> e.graph)
             |> field "plan" Korch.Report.plan_codec (fun e -> e.plan)
             |> opt "report" json (fun e -> e.report))
             (fun e -> Plan e)
             (function Plan e -> Some e | Table _ -> None);
           case "table"
             (obj (fun k tab -> (k, tab))
             |> field "key" table_key fst
             |> field "table" Korch.Report.plan_table_codec snd)
             (fun (k, tab) -> Table (k, tab))
             (function Table (k, tab) -> Some (k, tab) | Plan _ -> None);
         ]
         Fun.id
    |> finish)

(* Read on its own first, so that a foreign version is told apart from
   corruption. *)
let version_codec = Onnx.Codec.(finish (obj Fun.id |> field "schema" string Fun.id))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Outcome of reading one entry file: a good entry, a recognizably
   foreign schema version (left on disk, served as a miss), or garbage
   (deleted, served as a miss). *)
type parsed = Parsed of doc | Version_miss | Corrupt

(* A decoded entry must also execute: every plan it carries passes the
   same {!Runtime.Plan.check} every executor run applies, against the
   graph stored with it. *)
let executable = function
  | Plan e -> Runtime.Executor.validate e.graph e.plan = Ok ()
  | Table (_, tab) ->
    List.for_all
      (fun (r : Korch.Plan_table.range) ->
        Runtime.Executor.validate r.Korch.Plan_table.graph r.Korch.Plan_table.plan = Ok ())
      tab.Korch.Plan_table.ranges

let parse (s : string) : parsed =
  match
    let j = Onnx.Json.of_string s in
    match Onnx.Codec.decode version_codec j with
    | Ok v when v <> schema -> Version_miss
    | _ -> (
      match Onnx.Codec.decode doc_codec j with
      | Ok d when executable d -> Parsed d
      | _ -> Corrupt)
  with
  | outcome -> outcome
  | exception _ -> Corrupt

let bump local global =
  Atomic.incr local;
  Obs.Metrics.incr global

(* The one lookup path for both kinds. [select] takes the caller's kind
   out of a decoded entry and checks it is filed under the caller's key;
   anything else at that path is corrupt. *)
let lookup_doc (t : t) (path : string) (select : doc -> 'a option) : 'a option =
  let corrupt () =
    (* Corrupt-entry recovery: delete and miss; a later store republishes
       a good entry. *)
    (try Sys.remove path with Sys_error _ -> ());
    bump t.c_corrupt m_corrupt;
    bump t.c_misses m_misses;
    None
  in
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ ->
    bump t.c_io_faults m_io_faults;
    None
  | () when not (Sys.file_exists path) ->
    bump t.c_misses m_misses;
    None
  | () -> (
    match read_file path with
    | exception _ ->
      bump t.c_io_faults m_io_faults;
      None
    | s -> (
      match parse s with
      | Version_miss ->
        (* Foreign schema version: leave the file alone (another daemon
           generation owns it) and degrade to a miss. *)
        bump t.c_version_misses m_version_miss;
        bump t.c_misses m_misses;
        None
      | Corrupt -> corrupt ()
      | Parsed d -> (
        match select d with
        | Some x ->
          bump t.c_hits m_hits;
          Some x
        | None -> corrupt ())))

(* The one store path for both kinds: render and publish [doc ()] unless
   [pinned ()], asked under the entry's lock, says to keep the file. *)
let store_doc (t : t) (path : string) ~(pinned : unit -> bool) (doc : unit -> doc) : unit =
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ -> bump t.c_io_faults m_io_faults
  | () -> (
    match
      with_file_lock (path ^ ".lock") @@ fun () ->
      if not (pinned ()) then begin
        write_durable ~dir:t.dir ~path (Obs.Jsonw.to_string (Onnx.Codec.encode doc_codec (doc ())));
        bump t.c_stores m_stores
      end
    with
    | () -> ()
    | exception _ -> bump t.c_io_faults m_io_faults)

let lookup (t : t) (k : key) : entry option =
  lookup_doc t (entry_path t k) (function Plan e when e.key = k -> Some e | _ -> None)

let lookup_table (t : t) (k : table_key) : Korch.Plan_table.t option =
  lookup_doc t (table_path t k) (function Table (k', tab) when k' = k -> Some tab | _ -> None)

let store (t : t) (k : key) ~(status : status) ~(graph : Ir.Primgraph.t)
    ~(plan : Runtime.Plan.t) ~(report : string) : unit =
  let path = entry_path t k in
  (* Never downgrade: a concurrent (or earlier) final entry beats an
     incumbent produced under deadline pressure. Only an entry that reads
     back as a hit pins the slot: a foreign-version or corrupt file would
     be a miss on read, so letting it pin would starve the cache. *)
  let pinned () =
    status = Incumbent
    && Sys.file_exists path
    &&
    match parse (read_file path) with
    | Parsed (Plan { status = Final; key; _ }) -> key = k
    | _ | (exception _) -> false
  in
  store_doc t path ~pinned (fun () ->
      let report = if report = "" then None else Some (Onnx.Json.of_string report) in
      Plan { key = k; status; graph; plan; report })

(* Tables are always the product of a full probe sweep: a store
   overwrites. *)
let store_table (t : t) (k : table_key) (table : Korch.Plan_table.t) : unit =
  store_doc t (table_path t k) ~pinned:(fun () -> false) (fun () -> Table (k, table))

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
