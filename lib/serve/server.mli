(** The `korch_serve` daemon: a long-running orchestration server over a
    Unix-domain socket speaking the {!Protocol} framed-JSON wire format.

    Request verbs:

    + [optimize] — resolve the workload (zoo model or inline graph
      document), consult the durable {!Plan_cache}, orchestrate on a miss
      (honouring a per-request deadline), publish the result, and return
      the executable plan. A named zoo model's graph hash is remembered
      per (model, small, batch) — zoo builds are deterministic — so a
      repeat request builds no graph unless it must orchestrate; an
      inline document is hashed on every request;
    + [run] — [optimize] then execute the plan on deterministic inputs,
      returning per-output checksums;
    + [table] — build (or serve from cache) a {!Korch.Plan_table}: one
      orchestration sweep over probe batches in [[batch_lo, batch_hi]]
      for a {e named} zoo model (inline graphs are rejected — a table
      must rebuild the graph at every probe batch), answered with
      per-range summaries and crossover batches. Tables are always the
      product of an unconstrained sweep: a per-request deadline is
      ignored, and the durable entry carries no incumbent/final
      distinction;
    + [health] / [stats] / [drain] — admin verbs, always handled inline
      on the accept loop so they stay responsive under load.

    The serving contract is the degradation ladder: {e a request never
    dies, it gets a worse plan}. Cached hit → fresh orchestration (with
    the solver's settled-state budget scaled down as the deadline
    approaches; segments
    starting past the deadline take the unfused floor) → the synthetic
    one-kernel-per-primitive floor when orchestration itself blows up.
    Only malformed requests (unknown verb/model, unparsable graph) earn
    [status = "error"].

    Admission control sheds load instead of queueing it: at most
    [queue_limit] [optimize]/[run]/[table] requests are in flight; beyond that
    the daemon answers [{status: "overloaded"}] immediately and the
    client's seeded {!Retry} backoff spreads the re-offered load.

    Two fault seams make the robustness story testable:
    {!Faults.site-Serve_accept} (admission — degrades the admission path,
    recorded in the response, never fatal) and {!Faults.site-Cache_io}
    (every plan-cache disk touch). *)

type config = {
  socket_path : string;
  cache_dir : string;  (** durable plan-cache directory *)
  jobs : int;  (** request-handling worker domains ([<= 1] = inline) *)
  queue_limit : int;  (** max in-flight heavy requests before shedding *)
  orch : Korch.Orchestrator.config;
      (** base orchestration config. Its [spec] and [precision] are the
          defaults a request without [gpu]/[precision] gets; a request's
          deadline, spec and precision are layered on top *)
  metrics_out : string option;
      (** when set, the full metrics snapshot is re-published (atomic
          rename) to this path after every request — so the file is
          current even after a [kill -9] *)
  verbose : bool;  (** one log line per request on stdout *)
}

val default_config : config

type t

(** [create cfg] — open the plan cache and the metrics surface; no
    socket yet (tests drive {!handle} directly). *)
val create : config -> t

val cache : t -> Plan_cache.t

(** [handle t request_json] — process one request end to end, in
    process. Everything the socket loop does except framing; never
    raises. This is the seam the fault-matrix stress tests drive. *)
val handle : t -> Onnx.Json.t -> Obs.Jsonw.t

(** The [stats] response body (also reachable via {!handle}). *)
val stats_response : t -> Obs.Jsonw.t

(** [run cfg] — bind the socket (recovering a stale path left by a
    killed daemon: probe-connect, then unlink on refusal), accept and
    serve until a [drain] request has been answered and the last
    in-flight request finished, then shut the pool down, unlink the
    socket and return. Ignores [SIGPIPE]. *)
val run : config -> unit
