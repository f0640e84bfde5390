(** Fixed-size domain pool with deterministic fan-out/fan-in.

    A from-scratch OCaml 5 work-sharing pool (no domainslib): [jobs] worker
    domains are spawned once at pool creation and pull thunks from a single
    mutex/condition-protected queue. The design goals, in order:

    - {b determinism at the API}: {!map_result} returns results in input
      order, so callers observe identical behaviour for any worker count —
      the property the orchestrator's bit-identical-plans guarantee rests
      on;
    - {b exception transparency}: a task that raises fills its own result
      slot with the exception and the captured backtrace. Workers never die
      from task exceptions;
    - {b zero overhead when sequential}: [jobs <= 1] spawns no domains at
      all — every task runs inline on the calling domain. *)

(* Set on pool worker domains only: the [worker] fault site fires there
   and nowhere else. *)
let on_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  has_work : Condition.t;  (** signalled on push and on close *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let rec worker_loop (pool : t) =
  Mutex.lock pool.lock;
  let rec next () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
      if pool.closed then None
      else begin
        Condition.wait pool.has_work pool.lock;
        next ()
      end
  in
  let task = next () in
  Mutex.unlock pool.lock;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop pool

let max_jobs = 128

let create ~jobs : t =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  let jobs = min jobs max_jobs in
  let pool =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
      domains = [];
    }
  in
  if jobs > 1 then
    pool.domains <-
      List.init jobs (fun i ->
          Domain.spawn (fun () ->
              Domain.DLS.set on_worker true;
              (* Label this domain's track in exported traces, whether or
                 not tracing is on yet — registration is one mutexed list
                 append per worker lifetime. *)
              Obs.Trace.name_track (Printf.sprintf "pool worker %d" i);
              worker_loop pool));
  pool

(** [shutdown pool] drains the queue (workers finish every submitted task)
    and joins all worker domains. Idempotent. *)
let shutdown (pool : t) =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* One task, captured: the [worker] fault site fires only on real pool
   workers — an inline (sequential) execution is not a worker-domain
   failure, which is what lets callers retry a failed task on the main
   domain without re-injecting the same fault. *)
let run_task (f : unit -> 'a) : ('a, exn * Printexc.raw_backtrace) result =
  try
    if Domain.DLS.get on_worker then Faults.check Faults.Worker;
    Ok (Obs.Span.with_ ~name:"pool.task" f)
  with e -> Error (e, Printexc.get_raw_backtrace ())

let enqueue (pool : t) (task : unit -> unit) =
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  Queue.push task pool.queue;
  Condition.signal pool.has_work;
  Mutex.unlock pool.lock

let submit (pool : t) (f : unit -> unit) : unit =
  let task () = ignore (run_task f) in
  if pool.jobs <= 1 then task () else enqueue pool task

(** [map_result pool f l] — every task fills its own slot; the caller
    waits until the last slot is filled. Order preserved. *)
let map_result (pool : t) (f : 'a -> 'b) (l : 'a list) :
    ('b, exn * Printexc.raw_backtrace) result list =
  let capture x = try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  let arr = Array.of_list l in
  let n = Array.length arr in
  if pool.jobs <= 1 || n <= 1 then List.map capture l
  else begin
    let slots = Array.make n None in
    let left = ref n and lock = Mutex.create () and all_done = Condition.create () in
    Array.iteri
      (fun i x ->
        enqueue pool (fun () ->
            let r = run_task (fun () -> f x) in
            Mutex.lock lock;
            slots.(i) <- Some r;
            decr left;
            if !left = 0 then Condition.signal all_done;
            Mutex.unlock lock))
      arr;
    Mutex.lock lock;
    while !left > 0 do
      Condition.wait all_done lock
    done;
    Mutex.unlock lock;
    Array.to_list (Array.map Option.get slots)
  end

let with_pool ~jobs (f : t -> 'a) : 'a =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(** [default_jobs ()] — [Domain.recommended_domain_count ()] capped at 8:
    beyond a handful of segments per model there is nothing left to farm
    out, and over-subscribing domains on small machines costs more in
    spawn/contention than it buys. *)
let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))
