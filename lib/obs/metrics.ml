(** Process-wide metrics registry (see the interface for the contract).
    Handles hold atomics, so updates are lock-free and domain-safe; the
    registry itself is touched only at registration and snapshot time,
    under one mutex. *)

type counter = { c_v : int Atomic.t }
type gauge = { g_v : float Atomic.t }

type histogram = {

  bounds : float array;  (** ascending upper bounds; an overflow bucket follows *)
  buckets : int Atomic.t array;  (** length = [Array.length bounds + 1] *)
  h_sum : float Atomic.t;
}

(* ------------------------------ registry ------------------------------ *)

let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter (name : string) : counter =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_v = Atomic.make 0 } in
        Hashtbl.replace counters name c;
        c)

let gauge (name : string) : gauge =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
        let g = { g_v = Atomic.make 0.0 } in
        Hashtbl.replace gauges name g;
        g)

let default_bounds = [| 10.0; 100.0; 1e3; 1e4; 1e5; 1e6; 1e7 |]

let histogram ?(bounds = default_bounds) (name : string) : histogram =
  if bounds = [||] then invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly ascending")
    bounds;
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {

            bounds = Array.copy bounds;
            buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0;
          }
        in
        Hashtbl.replace histograms name h;
        h)

(* ------------------------------ updates ------------------------------- *)

let add (c : counter) (n : int) = ignore (Atomic.fetch_and_add c.c_v n)
let incr (c : counter) = add c 1
let count (c : counter) = Atomic.get c.c_v

let set (g : gauge) (v : float) = Atomic.set g.g_v v
let gauge_value (g : gauge) = Atomic.get g.g_v

(* Lock-free float accumulation by compare-and-set. *)
let rec atomic_add_float (a : float Atomic.t) (x : float) =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let observe (h : histogram) (v : float) =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  ignore (Atomic.fetch_and_add h.buckets.(bucket 0) 1);
  atomic_add_float h.h_sum v

(* ------------------------------ snapshot ------------------------------ *)

type histogram_snapshot = {
  bounds : float array;
  counts : int array;  (** per-bucket counts; last is the overflow bucket *)
  sum : float;
  total : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () : snapshot =
  locked (fun () ->
      {
        counters = List.map (fun (k, c) -> (k, Atomic.get c.c_v)) (sorted_bindings counters);
        gauges = List.map (fun (k, g) -> (k, Atomic.get g.g_v)) (sorted_bindings gauges);
        histograms =
          List.map
            (fun (k, h) ->
              let counts = Array.map Atomic.get h.buckets in
              ( k,
                {
                  bounds = Array.copy h.bounds;
                  counts;
                  sum = Atomic.get h.h_sum;
                  total = Array.fold_left ( + ) 0 counts;
                } ))
            (sorted_bindings histograms);
      })

(* Percentile estimate from bucketed counts: find the bucket holding the
   q-th observation and interpolate linearly inside it. The overflow
   bucket has no upper bound, so it reports its lower edge.

   The bucket walk is integer-exact. The float product [q * total] can
   land an epsilon above the exact cumulative boundary of a bucket
   (e.g. 0.1 * 30 = 3.0000000000000004), and the old float-cumulative
   walk then skipped the occupied bucket ending exactly at that
   boundary — and any empty run after it — landing one bucket too high.
   We snap the rank to the nearest integer when it is within float
   error of one, select the 1-based observation index k = ceil(rank)
   (clamped so q = 0 reads the first observation and q = 1 the last),
   and walk integer cumulative counts to the first occupied bucket
   containing observation #k. *)
let percentile (h : histogram_snapshot) (q : float) : float =
  if h.total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int h.total in
    let nearest = Float.round rank in
    let rank =
      if Float.abs (rank -. nearest) <= 1e-9 *. Float.max 1.0 nearest then nearest else rank
    in
    let k = min h.total (max 1 (int_of_float (Float.ceil rank))) in
    let n = Array.length h.bounds in
    let rec find i cum =
      if i >= n then h.bounds.(n - 1) (* overflow: lower edge *)
      else
        let c = h.counts.(i) in
        if c > 0 && cum + c >= k then begin
          let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
          let hi = h.bounds.(i) in
          let frac = (rank -. float_of_int cum) /. float_of_int c in
          lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac))
        end
        else find (i + 1) (cum + c)
    in
    find 0 0
  end

let snapshot_to_json (s : snapshot) : Jsonw.t =
  Jsonw.Obj
    [
      ("counters", Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Int v)) s.counters));
      ("gauges", Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Float v)) s.gauges));
      ( "histograms",
        Jsonw.Obj
          (List.map
             (fun (k, h) ->
               ( k,
                 Jsonw.Obj
                   [
                     ("bounds", Jsonw.List (Array.to_list (Array.map (fun b -> Jsonw.Float b) h.bounds)));
                     ("counts", Jsonw.List (Array.to_list (Array.map (fun c -> Jsonw.Int c) h.counts)));
                     ("sum", Jsonw.Float h.sum);
                     ("count", Jsonw.Int h.total);
                   ] ))
             s.histograms) );
    ]

let to_json () : Jsonw.t = snapshot_to_json (snapshot ())
