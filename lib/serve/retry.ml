(** Seeded retry with exponential backoff and deterministic jitter (see
    the interface for the contract). *)

type policy = {
  attempts : int;
  base_delay_s : float;
  multiplier : float;
  max_delay_s : float;
  jitter : float;
  seed : int;
}

let default =
  {
    attempts = 5;
    base_delay_s = 0.05;
    multiplier = 2.0;
    max_delay_s = 2.0;
    jitter = 0.25;
    seed = 1;
  }

let delay_s (p : policy) ~(salt : int) ~(attempt : int) : float =
  let attempt = Stdlib.max 1 attempt in
  let raw = p.base_delay_s *. (p.multiplier ** float_of_int (attempt - 1)) in
  let capped = Float.min p.max_delay_s raw in
  (* uniform in [0,1) -> factor in [1 - jitter, 1 + jitter) *)
  let u = Faults.uniform ~seed:p.seed ~salt ~call:attempt in
  let factor = 1.0 +. (p.jitter *. ((2.0 *. u) -. 1.0)) in
  Float.max 0.0 (capped *. factor)

let fatal = function
  | Stack_overflow | Out_of_memory | Assert_failure _ -> true
  | _ -> false

let with_retries ?(policy = default) ?(retryable = fun e -> not (fatal e)) (f : unit -> 'a) : 'a =
  let rec go attempt =
    match f () with
    | v -> v
    | exception e when attempt < policy.attempts && retryable e ->
      let d = delay_s policy ~salt:0 ~attempt in
      if d > 0.0 then Unix.sleepf d;
      go (attempt + 1)
  in
  go 1
