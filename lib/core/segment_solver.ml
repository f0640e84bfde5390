(** Exact per-segment kernel orchestration: A* over published sets
    (§4.1's execution states, §4.2's objective). *)

open Ir

type solution = { order : int list; cost : float; settled : int }
type failure = Budget_exhausted of int | Unreachable of int

let failure_to_string = function
  | Budget_exhausted n -> Printf.sprintf "settled-state budget exhausted after %d states" n
  | Unreachable n -> Printf.sprintf "no path publishes the segment outputs (%d states settled)" n

let m_solves = Obs.Metrics.counter "segment_solver.solves"
let m_settled = Obs.Metrics.counter "segment_solver.settled"

(* A queued path: its priority (cost plus the state's bound), its cost,
   its candidate indices latest first (shared tails), and the state it
   reaches. The path determines the state, so (priority, cost, sequence)
   orders queued paths totally. Cost breaks priority ties, so where
   rounding makes two priorities equal a state is still settled by the
   path Dijkstra's order would pick; between two paths to one state the
   order is that of (cost, sequence). Sequences are compared first to
   last, which only happens on equal costs. *)
let compare_key (f1, c1, p1) (f2, c2, p2) =
  match Float.compare f1 f2 with
  | 0 -> (
    match Float.compare c1 c2 with
    | 0 -> List.compare Int.compare (List.rev p1) (List.rev p2)
    | c -> c)
  | c -> c

module Queue = Set.Make (struct
  type t = (float * float * int list) * Bitset.t

  let compare (k1, _) (k2, _) = compare_key k1 k2
end)

(* What the search knows of a reached state. *)
type mark = Settled | Queued of (float * float * int list)

let solve ?(disjoint = false) ~budget (g : Primgraph.t) (candidates : Candidate.t array) =
  Faults.check Faults.Ilp_solve;
  Obs.Span.with_ ~name:"segment_solver"
    ~args:[ ("candidates", Obs.Jsonw.Int (Array.length candidates)) ]
  @@ fun () ->
  Obs.Metrics.incr m_solves;
  (* One bitset holds both halves of a state: primitive [j] has executed
     when bit [j] is set (tracked only when [disjoint]) and is published
     when bit [n + j] is set. Sources are always available, so they never
     enter a state. *)
  let n = Graph.length g in
  let published ids =
    Bitset.of_list (2 * n)
      (List.filter_map
         (fun j -> if Primitive.is_source (Graph.op g j) then None else Some (n + j))
         ids)
  in
  let goal = published g.Graph.outputs in
  let needs = Array.map (fun (c : Candidate.t) -> published c.Candidate.ext_inputs) candidates in
  let outs = Array.map (fun (c : Candidate.t) -> published c.Candidate.outputs) candidates in
  let runs =
    Array.map
      (fun (c : Candidate.t) ->
        Bitset.of_list (2 * n) (if disjoint then Bitset.elements c.Candidate.members else []))
      candidates
  in
  let adds = Array.mapi (fun i o -> Bitset.union o runs.(i)) outs in
  (* The A* bound: the largest, over goal outputs a state has not
     published, of the cheapest latency of a candidate publishing it. *)
  let cheapest =
    List.map
      (fun b ->
        let l = ref Float.infinity in
        Array.iteri
          (fun i o -> if Bitset.mem o b then l := Float.min !l candidates.(i).Candidate.latency_us)
          outs;
        (b, !l))
      (Bitset.elements goal)
  in
  let bound state =
    List.fold_left (fun h (b, l) -> if Bitset.mem state b then h else Float.max h l) 0.0 cheapest
  in
  (* Every reached state. A cheaper path to a queued state replaces its
     entry instead of queueing a duplicate. *)
  let seen = Bitset.Table.create 256 in
  let start = Bitset.empty (2 * n) in
  let rec loop queue settled =
    match Queue.min_elt_opt queue with
    | None -> Error (Unreachable settled)
    | Some (((_, cost, path), state) as entry) ->
      let queue = Queue.remove entry queue in
      let settled = settled + 1 in
      Bitset.Table.replace seen state Settled;
      if Bitset.subset goal state then Ok { order = List.rev path; cost; settled }
      else if settled >= budget then Error (Budget_exhausted settled)
      else begin
        let queue = ref queue in
        Array.iteri
          (fun i (c : Candidate.t) ->
            if
              Bitset.subset needs.(i) state
              && (not (Bitset.subset outs.(i) state))
              && Bitset.is_empty (Bitset.inter runs.(i) state)
            then begin
              let next = Bitset.union state adds.(i) in
              let cost = cost +. c.Candidate.latency_us in
              let key = (cost +. bound next, cost, i :: path) in
              match Bitset.Table.find_opt seen next with
              | Some Settled -> ()
              | Some (Queued old) when compare_key old key <= 0 -> ()
              | mark ->
                (match mark with
                | Some (Queued old) -> queue := Queue.remove (old, next) !queue
                | _ -> ());
                Bitset.Table.replace seen next (Queued key);
                queue := Queue.add (key, next) !queue
            end)
          candidates;
        loop !queue settled
      end
  in
  let r = loop (Queue.singleton ((bound start, 0.0, []), start)) 0 in
  Obs.Metrics.add m_settled
    (match r with Ok s -> s.settled | Error (Budget_exhausted k | Unreachable k) -> k);
  r
