(** Fixed-size domain pool with deterministic fan-out/fan-in.

    A from-scratch OCaml 5 work-sharing pool (no domainslib): worker
    domains are spawned once and pull thunks from a mutex/condition work
    queue. {!map_result} returns one result per input, in input order,
    so callers observe identical behaviour for any worker count — the
    property the orchestrator's bit-identical-plans guarantee rests on.
    With [jobs <= 1] no domains are spawned and every task runs inline on
    the calling domain. *)

type t

(** [create ~jobs] spawns [jobs] worker domains ([jobs] is capped at 128;
    [jobs <= 1] spawns none).

    Raises [Invalid_argument] when [jobs < 1]. *)
val create : jobs:int -> t

(** [submit pool f] enqueues [f] and returns at once; an exception [f]
    raises is dropped, and the worker lives on. On a sequential pool
    ([jobs <= 1]) the thunk runs inline before [submit] returns.

    Raises [Invalid_argument] after {!shutdown}. *)
val submit : t -> (unit -> unit) -> unit

(** [map_result pool f l] applies [f] to every element on the pool; each
    task's exception is captured in its own slot (with backtrace), so
    callers can retry or degrade per element. Results stay in input
    order.

    Tasks executing on real pool workers pass the {!Faults.site-Worker}
    injection site first; inline execution (sequential pool) does not, so
    a retry on the calling domain is not re-injected. *)
val map_result :
  t -> ('a -> 'b) -> 'a list -> ('b, exn * Printexc.raw_backtrace) result list

(** [shutdown pool] drains the queue (all submitted tasks complete) and
    joins the workers. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] — [create], run [f], always [shutdown]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [default_jobs ()] — [Domain.recommended_domain_count ()] capped at 8. *)
val default_jobs : unit -> int
