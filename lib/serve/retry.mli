(** Seeded retry with exponential backoff and deterministic jitter.

    Transient failures (a daemon restarting, a torn connection, a shed
    request) are retried with exponentially growing delays. The jitter
    that de-synchronizes retrying clients is drawn from the
    {!Faults.uniform} splitmix64 finalizer, so a given [(seed, salt)]
    replays the exact same delay sequence on every run — retry timing is
    part of the deterministic test surface, not noise. *)

type policy = {
  attempts : int;  (** total tries including the first (>= 1) *)
  base_delay_s : float;  (** delay before the first retry *)
  multiplier : float;  (** delay growth per retry *)
  max_delay_s : float;  (** cap on any single delay *)
  jitter : float;
      (** fraction in [0, 1]: each delay is scaled by a factor drawn
          uniformly from [1 - jitter, 1 + jitter] *)
  seed : int;  (** jitter stream seed *)
}

(** 5 attempts, 50 ms base, x2 growth, 2 s cap, 25% jitter, seed 1. *)
val default : policy

(** [delay_s p ~salt ~attempt] — the backoff before retry [attempt]
    (1-based: the delay after the first failure has [attempt = 1]). A
    pure function of [(p, salt, attempt)]. [salt] distinguishes
    independent retry loops sharing one seed. *)
val delay_s : policy -> salt:int -> attempt:int -> float

(** [with_retries ?policy ?retryable f] — run [f], retrying on
    exceptions [retryable e] (default: every exception except
    [Stack_overflow] / [Out_of_memory] / [Assert_failure]) with
    {!delay_s} sleeps (salt 0) between attempts. The final attempt's
    exception propagates. *)
val with_retries : ?policy:policy -> ?retryable:(exn -> bool) -> (unit -> 'a) -> 'a
