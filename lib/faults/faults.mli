(** Deterministic, seeded fault injection.

    Production systems prove their degradation paths by injecting failures
    at well-known seams. This registry names the seams of the Korch
    pipeline; instrumented code calls {!check} at each one, and an
    installed {e policy} decides — deterministically, from a seed and a
    per-site call counter — whether that call raises a synthetic
    {!Injected} failure. With no policy installed, {!check} is a single
    atomic load and a branch: zero allocation, no locks, safe to leave in
    hot paths.

    Policies are process-global (sites live deep inside [lib/gpu],
    [lib/core], [lib/parallel] and [lib/onnx], far from any configuration
    record) and domain-safe: call counters are atomics, so concurrent
    worker domains draw distinct call numbers. Determinism holds exactly
    for [Always] and for any policy under a sequential run; under
    concurrent domains, [Nth]/[Prob] decisions stay a pure function of the
    (site, call-number) pair, so a given seed still injects the same
    {e number} of faults at each site. *)

(** Named injection seams of the pipeline. *)
type site =
  | Profiler
      (** {!Gpu.Profiler.profile} — one candidate measurement. Only
          candidates that pass the static backend rules are measured (a
          real tuner never measures the others), and a profile-cache hit
          measures nothing *)
  | Solve  (** {!Korch.Segment_solver.solve} — one per-segment solve *)
  | Enumerate  (** {!Korch.Exec_state} execution-state enumeration *)
  | Transform  (** per-segment transformation search *)
  | Worker  (** a {!Parallel.Domain_pool} worker executing a task *)
  | Onnx_parse  (** {!Onnx.Graph_doc} document parsing *)
  | Analysis  (** the static-analysis cross-check of an orchestrated plan *)
  | Codegen_compile
      (** the native backend resolving one kernel to a compiled [.so];
          injection degrades that kernel to the interpreter, never the run *)
  | Serve_accept
      (** {!Serve.Server} admitting one request; injection degrades
          admission (the request is handled on a fallback path), never
          kills the daemon or the request *)
  | Cache_io
      (** {!Serve.Plan_cache} touching disk (one lookup or one publish);
          injection turns a lookup into a miss and skips a publish *)

(** All sites, in declaration order. *)
val all_sites : site list

val site_to_string : site -> string
val site_of_string : string -> site option

(** When a site's calls fail. All variants are deterministic given the
    policy seed: [Prob p] hashes (seed, site, call-number) into [0,1). *)
type spec =
  | Always  (** every call fails *)
  | Nth of int  (** exactly the [n]-th call fails (1-based), once *)
  | Prob of float  (** each call fails with probability [p], seeded *)

val spec_to_string : spec -> string

(** [parse_rule s] parses a CLI rule: ["SITE:always"], ["SITE:nth=K"]
    (1-based) or ["SITE:p=0.25"] (aliases [prob=]). *)
val parse_rule : string -> (site * spec, string) result

(** The synthetic failure. [hit] is the 1-based call number at the site.
    [Printexc.to_string] renders it as [injected fault at SITE (call N)]. *)
exception Injected of { site : site; hit : int }

(** [install ?seed rules] replaces the active policy and resets every
    call counter. An empty [rules] list disables injection entirely. *)
val install : ?seed:int -> (site * spec) list -> unit

(** Remove the active policy (equivalent to [install []]). *)
val clear : unit -> unit

(** [active ()] — is any policy installed? *)
val active : unit -> bool

(** [check site] raises {!Injected} iff the active policy fires for this
    call; otherwise returns unit. No-op (one atomic load) when no policy
    is installed. *)
val check : site -> unit

(** [calls site] — instrumented calls seen at [site] under the current
    policy (0 when none installed). *)
val calls : site -> int

(** [injected site] — faults raised at [site] under the current policy. *)
val injected : site -> int

(** [with_policy ?seed rules f] — install, run [f], restore the previous
    policy (and its counters' zeroed state) even on exception. *)
val with_policy : ?seed:int -> (site * spec) list -> (unit -> 'a) -> 'a

(** [uniform ~seed ~salt ~call] — the registry's splitmix64 finalizer as a
    general deterministic uniform draw in [\[0, 1)]: a pure function of its
    three arguments, independent of any installed policy. Other subsystems
    that need replayable randomness (e.g. {!Serve.Retry} backoff jitter)
    reuse this instead of growing their own RNG. *)
val uniform : seed:int -> salt:int -> call:int -> float
