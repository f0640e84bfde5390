(** Process-wide metrics: counters, gauges and histograms behind one
    registry with a consistent snapshot.

    Instrumented code keeps a handle (obtained once, at module
    initialization — registration takes a mutex) and updates it with a
    single atomic operation, so metrics are always on, domain-safe and
    cheap enough for hot paths: an update never allocates and never
    blocks. Metrics are {e observational} — nothing in the pipeline reads
    them back, so they cannot perturb plan determinism.

    Names are flat dotted strings ([profile_cache.hits]); registering the
    same name twice returns the same handle. *)

type counter
type gauge
type histogram

(** [counter name] — find-or-create. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Current value. *)
val count : counter -> int

(** [gauge name] — find-or-create; last-write-wins float. *)
val gauge : string -> gauge

val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram ?bounds name] — find-or-create. [bounds] are strictly
    ascending bucket upper bounds (default decades from 10 to 1e7, suiting
    microsecond latencies); one overflow bucket is appended. Raises
    [Invalid_argument] on empty or non-ascending bounds. *)
val histogram : ?bounds:float array -> string -> histogram

(** [observe h v] — count [v] into its bucket and accumulate the sum. *)
val observe : histogram -> float -> unit

type histogram_snapshot = {
  bounds : float array;
  counts : int array;  (** per-bucket counts; last is the overflow bucket *)
  sum : float;
  total : int;
}

(** All registered metrics, each read atomically, sorted by name. *)
type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

val snapshot : unit -> snapshot
val snapshot_to_json : snapshot -> Jsonw.t

(** [percentile h q] — estimate the [q]-quantile ([q] in [\[0,1\]],
    clamped) of a histogram snapshot by linear interpolation inside the
    bucket holding the q-th observation. Coarse by construction (bucket
    resolution), which is the standard trade for lock-free recording;
    serving p50/p99 endpoints read this. Returns 0 on an empty histogram;
    observations in the overflow bucket report the last finite bound. *)
val percentile : histogram_snapshot -> float -> float

(** [to_json ()] = [snapshot_to_json (snapshot ())]. *)
val to_json : unit -> Jsonw.t
