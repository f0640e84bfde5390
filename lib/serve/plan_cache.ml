(** Durable content-addressed plan cache (see the interface). *)

(* A bounded, mutex-protected LRU map (see the interface). *)
module Memo = struct
  type ('k, 'v) t = {
    capacity : int;
    lock : Mutex.t;
    table : ('k, 'v * int ref) Hashtbl.t;  (** value and its last-use tick *)
    mutable clock : int;
  }

  let create capacity =
    { capacity; lock = Mutex.create (); table = Hashtbl.create capacity; clock = 0 }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let find t k =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some (v, used) ->
          used := tick t;
          Some v
        | None -> None)

  (* Eviction scans the whole table; capacities are a few dozen. *)
  let replace t k v =
    Mutex.protect t.lock (fun () ->
        if (not (Hashtbl.mem t.table k)) && Hashtbl.length t.table >= t.capacity then begin
          let oldest =
            Hashtbl.fold
              (fun k (_, used) acc ->
                match acc with Some (_, u) when u <= !used -> acc | _ -> Some (k, !used))
              t.table None
          in
          Option.iter (fun (k, _) -> Hashtbl.remove t.table k) oldest
        end;
        Hashtbl.replace t.table k (v, ref (tick t)))

  let remove t k = Mutex.protect t.lock (fun () -> Hashtbl.remove t.table k)
end

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
  validations : int;
}

(* A per-cache count, mirrored into the process-wide census next to the
   other serving metrics. *)
type counter = { name : string; n : int Atomic.t; census : Obs.Metrics.counter }

type t = {
  dir : string;
  c_hits : counter;
  c_misses : counter;
  c_stores : counter;
  c_corrupt : counter;
  c_version_misses : counter;
  c_io_faults : counter;
  c_validations : counter;
  checked : (string, string * doc) Memo.t;
      (** per entry path, for up to 64 paths: bytes read or written there
          and the checked entry they hold *)
}

let counter ?census name =
  let census = "serve.plan_cache." ^ Option.value census ~default:name in
  { name; n = Atomic.make 0; census = Obs.Metrics.counter census }

let bump c =
  Atomic.incr c.n;
  Obs.Metrics.incr c.census

let create ~dir () : t =
  Store.mkdir_p dir;
  {
    dir;
    c_hits = counter "hits";
    c_misses = counter "misses";
    c_stores = counter "stores";
    c_corrupt = counter "corrupt";
    c_version_misses = counter ~census:"version_miss" "version_misses";
    c_io_faults = counter "io_faults";
    c_validations = counter "validations";
    checked = Memo.create 64;
  }

let graph_hash (graph : Ir.Opgraph.t) =
  Digest.to_hex (Digest.string (Onnx.Graph_doc.opgraph_to_string graph))

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

(* Schema history:
   - korch-plan-cache/1 — fixed-batch plan entries only.
   - korch-plan-cache/2 — entries carry a ["kind"] ("plan" | "table");
     "table" embeds a korch-plan-table/1 document under a batch-range
     key. The version was bumped so a v1 reader can never mis-parse (or
     mis-serve) a batch-range entry as a fixed-batch plan.
   - korch-plan-cache/3 — same layout; plans come from the exact segment
     solver. A /2 entry's plan came from the node-limited BLP, labelled
     final although up to 5.5% above the per-segment optimum, so it must
     never be served as final again.
   - korch-plan-cache/4 — same layout; a folded constant is stored as
     its expression (an "apply" fill), which a /3 reader cannot decode:
     it would count the entry corrupt and delete it, where a version
     miss leaves it alone.
   An entry whose schema is a well-formed string other than the current
   one is a {e version miss}: the file is left in place (a newer or
   older daemon sharing the directory still owns it) and the lookup
   degrades to a miss, counted separately from corruption. *)
let schema = "korch-plan-cache/4"

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
             |> field "primgraph" Onnx.Graph_doc.primgraph (fun e -> e.graph)
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

(* Outcome of reading one entry file: a good entry, a recognizably
   foreign schema version (left on disk, served as a miss), or garbage
   (deleted, served as a miss). *)
type parsed = Parsed of doc | Version_miss | Corrupt

(* An entry must also execute: every plan it carries passes the check
   its first run makes ({!Runtime.Executor.check}), against the graph
   stored with it; the run reuses the verdict. Counted in
   [validations]. *)
let executable (t : t) (d : doc) : bool =
  bump t.c_validations;
  let pairs =
    match d with
    | Plan e -> [ (e.graph, e.plan) ]
    | Table (_, tab) ->
      List.map (fun (r : Korch.Plan_table.range) -> Korch.Plan_table.(r.graph, r.plan)) tab.ranges
  in
  try List.for_all (fun (g, p) -> Runtime.Executor.check g p = Ok ()) pairs with _ -> false

(* What the bytes [s] hold, unchecked. *)
let decode (s : string) : parsed =
  try
    let j = Onnx.Json.of_string s in
    match Onnx.Codec.decode version_codec j with
    | Ok v when v <> schema -> Version_miss
    | _ -> ( match Onnx.Codec.decode doc_codec j with Ok d -> Parsed d | Error _ -> Corrupt)
  with _ -> Corrupt

(* Decoding and checking are pure functions of the bytes, so bytes equal
   to those last checked at [path] give the same entry: reuse it. Other
   bytes are decoded and checked in full. *)
let parse_at (t : t) (path : string) (s : string) : parsed =
  match Memo.find t.checked path with
  | Some (s', d) when String.equal s s' -> Parsed d
  | _ ->
    let p =
      match decode s with Parsed d when not (executable t d) -> Corrupt | p -> p
    in
    (match p with
    | Parsed d -> Memo.replace t.checked path (s, d)
    | Version_miss | Corrupt -> Memo.remove t.checked path);
    p

(* The one lookup path for both kinds. [select] takes the caller's kind
   out of a decoded entry and checks it is filed under the caller's key;
   anything else at that path is corrupt. *)
let lookup_doc (t : t) (path : string) (select : doc -> 'a option) : 'a option =
  (* A miss forgets the entry remembered at [path]; [why] counts it. *)
  let miss why =
    Memo.remove t.checked path;
    List.iter bump why;
    None
  in
  (* Corrupt-entry recovery: delete and miss; a later store republishes
     a good entry. *)
  let corrupt () =
    (try Sys.remove path with Sys_error _ -> ());
    miss [ t.c_corrupt; t.c_misses ]
  in
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ -> miss [ t.c_io_faults ]
  | () when not (Sys.file_exists path) -> miss [ t.c_misses ]
  | () -> (
    match parse_at t path (Store.read path) with
    | exception _ -> miss [ t.c_io_faults ]
    | Version_miss ->
      (* Foreign schema version: leave the file alone (another daemon
         generation owns it) and degrade to a miss. *)
      miss [ t.c_version_misses; t.c_misses ]
    | Corrupt -> corrupt ()
    | Parsed d -> (
      match select d with
      | Some x ->
        bump t.c_hits;
        Some x
      | None -> corrupt ()))

(* The one store path for both kinds: render and publish [doc ()] unless
   [pinned ()], asked under the entry's lock, says to keep the file. A
   published entry is checked and remembered with the bytes written, so
   its hits serve the caller's own graph and plan, which the check has
   already prepared for the executor. *)
let store_doc (t : t) (path : string) ~(pinned : unit -> bool) (doc : unit -> doc) : unit =
  match Faults.check Faults.Cache_io with
  | exception Faults.Injected _ -> bump t.c_io_faults
  | () -> (
    match
      Store.with_lock path @@ fun () ->
      if pinned () then None
      else begin
        let d = doc () in
        let s = Obs.Jsonw.to_string (Onnx.Codec.encode doc_codec d) in
        Store.publish path s;
        bump t.c_stores;
        Some (s, d)
      end
    with
    | None -> ()
    | Some (s, d) ->
      if executable t d then Memo.replace t.checked path (s, d) else Memo.remove t.checked path
    | exception _ -> bump t.c_io_faults)

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
    match parse_at t path (Store.read path) with
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
    hits = Atomic.get t.c_hits.n;
    misses = Atomic.get t.c_misses.n;
    stores = Atomic.get t.c_stores.n;
    corrupt = Atomic.get t.c_corrupt.n;
    version_misses = Atomic.get t.c_version_misses.n;
    io_faults = Atomic.get t.c_io_faults.n;
    validations = Atomic.get t.c_validations.n;
  }

let hit_rate (t : t) : float =
  let h = Atomic.get t.c_hits.n and m = Atomic.get t.c_misses.n in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let stats_to_json (t : t) : Obs.Jsonw.t =
  let count c = (c.name, Obs.Jsonw.Int (Atomic.get c.n)) in
  Obs.Jsonw.Obj
    (List.map count
       [ t.c_hits; t.c_misses; t.c_stores; t.c_corrupt; t.c_version_misses; t.c_io_faults; t.c_validations ]
    @ [ ("hit_rate", Obs.Jsonw.Float (hit_rate t)) ])
