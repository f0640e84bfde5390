(** Durable content-addressed plan cache.

    Orchestration costs seconds; serving amortizes it by persisting every
    orchestrated plan to disk, keyed by {e what was asked}: the canonical
    operator-graph hash x GPU x precision x batch. A restarted daemon
    (clean or [kill -9]) warm-hits every model it ever orchestrated.

    One entry is one JSON file (schema [korch-plan-cache/4]) carrying a
    ["kind"]: [plan_<md5>.json] fixed-batch entries embed the stitched
    primitive graph, the executable plan and the full korch-report/1
    document; [table_<md5>.json] batch-range entries embed a
    korch-plan-table/1 document under a (graph, gpu, precision,
    batch-range) key. An entry whose schema string is well-formed but
    not the current version — e.g. a v1 file in a shared directory — is
    a {e version miss}: left on disk, served as a miss, counted in
    [version_misses], never an error. Entry files follow the one
    crash-safe discipline of {!Store} (atomic, durable publish; a lock
    per entry that excludes other processes and other domains; lock-free
    reads). An entry that fails to parse or validate
    ({!Runtime.Executor.check} against its own graph) is deleted and
    reported as a miss, never an error.

    Every lookup reads the entry file, but a given file content is
    parsed and checked once per [t]: each [t] remembers, for up to 64
    entry paths, the bytes it last read or wrote there and the checked
    entry they hold. A lookup whose bytes equal the remembered ones
    reuses that entry; this is exact, since parsing and checking are
    pure functions of the bytes. Any other content is parsed and checked
    in full, and only content that passes is remembered. A store checks
    the entry it built from the caller's graph, plan and report, and
    remembers it with the bytes it wrote, so hits on those bytes serve
    the caller's own graph and plan: the executor prepares one plan for
    the miss and its hits. The key check (the entry is filed under the
    caller's key) runs on every hit. A hit returns the remembered entry
    itself, shared between hits: callers must not mutate it.

    Every disk touch passes the {!Faults.site-Cache_io} injection seam:
    an injected fault turns a lookup into a miss and skips a publish —
    the cache degrades, the request does not.

    Entries carry a status: [`Final] plans came from unconstrained
    orchestrations and are stable; [`Incumbent] plans were produced under
    deadline pressure (wall-clock dependent, possibly degraded) and may
    be overwritten by a later final plan — a final entry is never
    downgraded to an incumbent. *)

(** A bounded map shared by the daemon's worker domains: a cache keeps
    its checked entries in one, and the daemon its graph hashes.

    It holds at most [capacity] bindings; adding one more evicts the
    least recently used. Every operation takes the map's mutex for a
    table access only, so callers compute the values they store outside
    the lock. *)
module Memo : sig
  type ('k, 'v) t

  (** [create capacity] — an empty map ([capacity >= 1]). *)
  val create : int -> ('k, 'v) t

  (** [find t k] — the value bound to [k], marking it most recently used. *)
  val find : ('k, 'v) t -> 'k -> 'v option

  (** [replace t k v] — bind [k] to [v], evicting the least recently used
      binding when [k] is new and the map is full. *)
  val replace : ('k, 'v) t -> 'k -> 'v -> unit

  val remove : ('k, 'v) t -> 'k -> unit
end

type t

(** Cache identity of one request. [graph_hash] is the MD5 of the
    canonical serialized operator graph ({!key}). *)
type key = { graph_hash : string; gpu : string; precision : string; batch : int }

type status = Final | Incumbent

type entry = {
  key : key;
  status : status;
  graph : Ir.Primgraph.t;  (** stitched graph the plan executes against *)
  plan : Runtime.Plan.t;
  report : Onnx.Json.t option;  (** the stored korch-report/1 document *)
}

(** Cache identity of one batch-range (plan-table) request.
    [t_graph_hash] hashes the canonical operator graph instantiated at
    batch [t_lo], so a builder change invalidates the table. *)
type table_key = {
  t_graph_hash : string;
  t_gpu : string;
  t_precision : string;
  t_lo : int;
  t_hi : int;
}

(** The two kinds of entry the one [korch-plan-cache/4] envelope
    carries. *)
type doc = Plan of entry | Table of table_key * Korch.Plan_table.t

(** The envelope, declared once: ["schema"], then the ["kind"] tag
    ("plan" | "table") and that kind's members. *)
val doc_codec : doc Onnx.Codec.t

(** Cumulative per-instance counters (process lifetime). *)
type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;  (** entries deleted after failing parse/validation *)
  version_misses : int;
      (** entries skipped (not deleted) for carrying a foreign schema
          version; each also counts as a miss *)
  io_faults : int;  (** injected or real I/O failures absorbed *)
  validations : int;
      (** entries checked in full, on a store or on reading new content;
          a repeat hit on an unchanged file adds none *)
}

(** [create ~dir ()] — open (and create) the cache directory. *)
val create : dir:string -> unit -> t

(** [key ~graph ~gpu ~precision ~batch] — hash the operator graph and
    bind the execution context. The daemon folds BatchNorms before keying,
    so raw and folded spellings share an entry; the orchestrator folds
    its input anyway ({!Korch.Orchestrator.fission}). *)
val key : graph:Ir.Opgraph.t -> gpu:string -> precision:string -> batch:int -> key

(** Entry file path for a key (exposed for tests and crash forensics). *)
val entry_path : t -> key -> string

(** [lookup t k] — [Some entry] on a validated hit; [None] on miss,
    injected/real I/O failure, or a corrupt entry (deleted). Never
    raises. *)
val lookup : t -> key -> entry option

(** [store t k ~status ~graph ~plan ~report] — durably publish an entry.
    [report] is a rendered korch-report/1 document, or [""] for none.
    A [`Final] entry overwrites anything; an [`Incumbent] never
    overwrites a [`Final] entry for the same key that would read back
    as a hit. Absorbs injected/real I/O failures (the publish is skipped
    and counted). Never raises. *)
val store :
  t ->
  key ->
  status:status ->
  graph:Ir.Primgraph.t ->
  plan:Runtime.Plan.t ->
  report:string ->
  unit

(** [table_key ~graph ~gpu ~precision ~lo ~hi] — key a plan table by the
    operator graph {e at batch [lo]} plus the execution context and the
    covered batch interval. *)
val table_key :
  graph:Ir.Opgraph.t -> gpu:string -> precision:string -> lo:int -> hi:int -> table_key

(** Table entry file path for a key (exposed for tests). *)
val table_path : t -> table_key -> string

(** [lookup_table t k] — [Some table] on a validated hit (every range's
    plan validates against its own graph); [None] on miss, version
    miss, I/O failure, or a corrupt entry (deleted). Never raises. *)
val lookup_table : t -> table_key -> Korch.Plan_table.t option

(** [store_table t k table] — durably publish a batch-range entry.
    Tables are always the product of a full probe sweep, so unlike
    fixed-batch entries they carry no incumbent/final distinction: a
    store overwrites. Absorbs I/O failures; never raises. *)
val store_table : t -> table_key -> Korch.Plan_table.t -> unit

val stats : t -> stats

(** Hit rate in [0, 1] over lookups so far (0 when no lookups). *)
val hit_rate : t -> float

val stats_to_json : t -> Obs.Jsonw.t
