(** Profile database (the paper's "TVM database", §6.5/A.7).

    Caches profiling results by canonical kernel signature so structurally
    identical candidates are tuned once. Tracks cumulative simulated tuning
    time — the quantity Table 2 reports — counting each distinct kernel's
    tuning cost exactly once.

    The table is striped into independently locked shards (keys are
    assigned by signature hash) so the orchestrator's worker domains can
    look up and insert concurrently: contention is limited to two workers
    racing for the same shard, and a miss computes the profile {e while
    holding its shard lock}, so a kernel signature is profiled exactly once
    no matter how many domains request it simultaneously — which keeps
    tuning-time accounting identical to a sequential run. *)

open Ir

type shard = {
  table : (string, Profiler.result) Hashtbl.t;
  lock : Mutex.t;
  mutable tuning_time_s : float;
  mutable hits : int;
  mutable misses : int;
}

type t = { shards : shard array }

(* Process-wide census across every cache instance; the per-instance
   fields above keep the per-run Table 2 accounting. *)
let m_hits = Obs.Metrics.counter "profile_cache.hits"
let m_misses = Obs.Metrics.counter "profile_cache.misses"

let h_tuning =
  Obs.Metrics.histogram
    ~bounds:[| 1.0; 10.0; 60.0; 120.0; 600.0; 3600.0; 43200.0 |]
    "profile_cache.tuning_s"

let default_shards = 64

let create ?(shards = default_shards) () : t =
  let shards = max 1 shards in
  {
    shards =
      Array.init shards (fun _ ->
          { table = Hashtbl.create 64; lock = Mutex.create (); tuning_time_s = 0.0; hits = 0; misses = 0 });
  }

let shard_of (cache : t) (key : string) : shard =
  cache.shards.(Hashtbl.hash key mod Array.length cache.shards)

(** [profile ?facts ?ext_inputs cache ~max_tvm_prims ~spec ~precision g
    members ~outputs] — {!Profiler.profile} with this table as its memo: a
    statically rejected candidate is neither signed nor looked up, and a
    miss prices the candidate under its shard lock. Safe to call from
    several domains. *)
let profile ?facts ?ext_inputs (cache : t) ~max_tvm_prims ~(spec : Spec.t)
    ~(precision : Precision.t) (g : Primgraph.t) (members : Bitset.t)
    ~(outputs : int list) : Profiler.result option =
  let memo key measure =
    let sh = shard_of cache key in
    Mutex.lock sh.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.lock)
      (fun () ->
        match Hashtbl.find_opt sh.table key with
        | Some r ->
          sh.hits <- sh.hits + 1;
          Obs.Metrics.incr m_hits;
          r
        | None ->
          sh.misses <- sh.misses + 1;
          Obs.Metrics.incr m_misses;
          let r = measure () in
          sh.tuning_time_s <- sh.tuning_time_s +. r.Profiler.tuning_time_s;
          Obs.Metrics.observe h_tuning r.Profiler.tuning_time_s;
          Hashtbl.replace sh.table key r;
          r)
  in
  Profiler.profile ?facts ?ext_inputs ~memo ~max_tvm_prims ~spec ~precision g members ~outputs

let sum_int (cache : t) f = Array.fold_left (fun a sh -> a + f sh) 0 cache.shards

(** [tuning_time_s cache] — accumulated simulated tuning time, each
    distinct kernel charged exactly once. *)
let tuning_time_s (cache : t) =
  Array.fold_left (fun a sh -> a +. sh.tuning_time_s) 0.0 cache.shards

(** [hits cache] — lookups answered from the table. *)
let hits (cache : t) = sum_int cache (fun sh -> sh.hits)

(** [misses cache] — lookups that had to profile. *)
let misses (cache : t) = sum_int cache (fun sh -> sh.misses)

(** [distinct_kernels cache] — number of distinct accepted candidate
    kernels profiled (cache entries). *)
let distinct_kernels (cache : t) = sum_int cache (fun sh -> Hashtbl.length sh.table)

(* ------------------------- measured timings -------------------------- *)

(* Wall-clock measurements from real native-kernel executions, keyed by
   the same canonical {!Profiler.signature} the modelled profiles use so
   the two can be joined. A single process-global table (not per
   instance): executor runs happen long after the orchestrator's cache
   instance is gone, and the point of the data is to accumulate across
   runs into one calibration set. Best-of-N is kept, matching how real
   autotuners fold repeated measurements. *)

type measurement = { mutable best_us : float; mutable samples : int }

let measured : (string, measurement) Hashtbl.t = Hashtbl.create 256
let measured_lock = Mutex.create ()
let m_measured = Obs.Metrics.counter "profile_cache.measured_samples"

let record_measured ~(key : string) ~(us : float) : unit =
  if Float.is_finite us && us >= 0.0 then begin
    Mutex.lock measured_lock;
    (match Hashtbl.find_opt measured key with
    | Some m ->
      m.samples <- m.samples + 1;
      if us < m.best_us then m.best_us <- us
    | None -> Hashtbl.replace measured key { best_us = us; samples = 1 });
    Mutex.unlock measured_lock;
    Obs.Metrics.incr m_measured
  end

let measured_us (key : string) : float option =
  Mutex.lock measured_lock;
  let r = Hashtbl.find_opt measured key in
  Mutex.unlock measured_lock;
  Option.map (fun m -> m.best_us) r

let measured_count (key : string) : int =
  Mutex.lock measured_lock;
  let r = Hashtbl.find_opt measured key in
  Mutex.unlock measured_lock;
  match r with Some m -> m.samples | None -> 0

let measured_entries () : (string * float * int) list =
  Mutex.lock measured_lock;
  let l =
    Hashtbl.fold (fun k m acc -> (k, m.best_us, m.samples) :: acc) measured []
  in
  Mutex.unlock measured_lock;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) l

let reset_measured () =
  Mutex.lock measured_lock;
  Hashtbl.reset measured;
  Mutex.unlock measured_lock
