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
let m_expanded = Obs.Metrics.counter "segment_solver.expanded"

(* Candidate-index sequences are kept latest first, so paths share their
   tails. [compare_seq] orders them first to last, as [List.compare] on
   the reversed lists would, without building those lists: past the
   longer one's extra latest entries, the deciding difference is the
   deepest one, and a physically shared tail holds none. *)
let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l)

let rec deepest_diff (a : int list) (b : int list) c =
  if a == b then c
  else
    match (a, b) with
    | x :: a', y :: b' -> deepest_diff a' b' (if x = y then c else Int.compare x y)
    | _ -> c

let compare_seq p1 p2 =
  let l1 = List.length p1 and l2 = List.length p2 in
  let l = Int.min l1 l2 in
  match deepest_diff (drop (l1 - l) p1) (drop (l2 - l) p2) 0 with
  | 0 -> Int.compare l1 l2
  | c -> c

(* A queued path: its priority (cost plus the state's bound), its cost,
   its candidate indices latest first, and the state it reaches. The
   path determines the state, so (priority, cost, sequence) orders
   queued paths totally. Cost breaks priority ties, so where rounding
   makes two priorities equal a state is still settled by the path
   Dijkstra's order would pick; between two paths to one state the order
   is that of (cost, sequence). *)
type entry = { f : float; cost : float; path : int list; state : Bitset.t }

let compare_entry a b =
  match Float.compare a.f b.f with
  | 0 -> ( match Float.compare a.cost b.cost with 0 -> compare_seq a.path b.path | c -> c)
  | c -> c

(* A binary min-heap of entries. A cheaper path to a queued state does not
   remove the old entry: the old one goes stale. Its key is the larger,
   so it surfaces only after the cheaper path has settled the state, and
   is skipped then; the live entries pop in the order a set of them
   would. *)
module Heap = struct
  type t = { mutable data : entry array; mutable size : int }

  let create e = { data = Array.make 64 e; size = 0 }

  (* Move the hole at [i] up to where [e] belongs, and put it there. *)
  let rec sift_up data e i =
    let parent = (i - 1) / 2 in
    if i > 0 && compare_entry e data.(parent) < 0 then begin
      data.(i) <- data.(parent);
      sift_up data e parent
    end
    else data.(i) <- e

  (* Move the hole at [i] down to where [e] belongs, and put it there. *)
  let rec sift_down data size e i =
    let l = (2 * i) + 1 in
    if l >= size then data.(i) <- e
    else begin
      let c = if l + 1 < size && compare_entry data.(l + 1) data.(l) < 0 then l + 1 else l in
      if compare_entry data.(c) e < 0 then begin
        data.(i) <- data.(c);
        sift_down data size e c
      end
      else data.(i) <- e
    end

  let push h e =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) e in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    sift_up h.data e h.size;
    h.size <- h.size + 1

  (* The minimum; [h] must not be empty. *)
  let pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then sift_down h.data h.size h.data.(h.size) 0;
    top
end

(* What the search knows of a reached state: settled, or the entry of its
   cheapest queued path. *)
type mark = Settled | Queued of entry

(* The candidates a state may run, grouped by what they wait for: one
   group per distinct [needs] set, its members in index order. *)
type index = { group_needs : Bitset.t array; members : int array array; kept : int }

(* Build the index, dropping exact duplicates. Candidate [j] is kept only
   if its latency is strictly below that of every earlier candidate with
   the same (needs, adds): such an earlier [i] is runnable wherever [j]
   is, reaches the same state, and float addition is monotone, so its
   key (cost + bound, cost, sequence) is never above [j]'s at any state
   — on equal sums the earlier index wins the sequence tie-break. [j]
   would therefore never change the queue. "Keep the cheapest" instead
   would be wrong: a cheaper later duplicate can round to the same sum
   and must then lose to the lower index. *)
let build_index (needs : Bitset.t array) (adds : Bitset.t array) (lat : float array) : index =
  let groups = Bitset.Table.create 64 and order = ref [] and kept = ref 0 in
  Array.iteri
    (fun i need ->
      let lowest, members =
        match Bitset.Table.find_opt groups need with
        | Some g -> g
        | None ->
          let g = (Bitset.Table.create 4, ref []) in
          Bitset.Table.replace groups need g;
          order := need :: !order;
          g
      in
      match Bitset.Table.find_opt lowest adds.(i) with
      | Some l when Float.compare lat.(i) l >= 0 -> ()
      | _ ->
        Bitset.Table.replace lowest adds.(i) lat.(i);
        members := i :: !members;
        incr kept)
    needs;
  let group_needs = Array.of_list (List.rev !order) in
  let members =
    Array.map
      (fun need -> Array.of_list (List.rev !(snd (Bitset.Table.find groups need))))
      group_needs
  in
  { group_needs; members; kept = !kept }

let solve ?(disjoint = false) ~budget (g : Primgraph.t) (candidates : Candidate.t array) =
  Faults.check Faults.Solve;
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
  let lat = Array.map (fun (c : Candidate.t) -> c.Candidate.latency_us) candidates in
  let needs = Array.map (fun (c : Candidate.t) -> published c.Candidate.ext_inputs) candidates in
  let outs = Array.map (fun (c : Candidate.t) -> published c.Candidate.outputs) candidates in
  let runs =
    if disjoint then
      Array.map
        (fun (c : Candidate.t) -> Bitset.of_list (2 * n) (Bitset.elements c.Candidate.members))
        candidates
    else [||]
  in
  let adds = if disjoint then Array.mapi (fun i o -> Bitset.union o runs.(i)) outs else outs in
  let { group_needs; members; kept } = build_index needs adds lat in
  (* The A* bound at a state: the largest, over goal outputs the state
     has not published, of the cheapest latency of a candidate
     publishing it. *)
  let goal_bits = Array.of_list (Bitset.elements goal) in
  let goal_lat =
    Array.map
      (fun b ->
        let l = ref Float.infinity in
        Array.iteri (fun i o -> if Bitset.mem o b then l := Float.min !l lat.(i)) outs;
        !l)
      goal_bits
  in
  let bound state =
    let h = ref 0.0 in
    for k = 0 to Array.length goal_bits - 1 do
      if not (Bitset.mem state goal_bits.(k)) then h := Float.max !h goal_lat.(k)
    done;
    !h
  in
  Obs.Span.with_ ~name:"segment_solver"
    ~args:
      [
        ("candidates", Obs.Jsonw.Int (Array.length candidates));
        ("kept", Obs.Jsonw.Int kept);
        ("groups", Obs.Jsonw.Int (Array.length group_needs));
      ]
  @@ fun () ->
  (* Every reached state, and the queue of paths to unsettled ones. *)
  let seen = Bitset.Table.create 256 in
  let start = Bitset.empty (2 * n) in
  let first = { f = bound start; cost = 0.0; path = []; state = start } in
  let queue = Heap.create first in
  Bitset.Table.replace seen start (Queued first);
  Heap.push queue first;
  let expanded = ref 0 in
  let rec loop settled =
    if queue.Heap.size = 0 then Error (Unreachable settled)
    else
      let { cost; path; state; _ } = Heap.pop queue in
      match Bitset.Table.find_opt seen state with
      | Some Settled ->
        (* A stale entry: a cheaper path to its state was queued later,
           popped first and settled it. *)
        loop settled
      | _ ->
        let settled = settled + 1 in
        Bitset.Table.replace seen state Settled;
        if Bitset.subset goal state then Ok { order = List.rev path; cost; settled }
        else if settled >= budget then Error (Budget_exhausted settled)
        else begin
          (* One inputs test per group, then per member only whether it
             adds anything (and, disjoint, re-executes nothing). The
             successor is looked up before it is priced. *)
          for gi = 0 to Array.length group_needs - 1 do
            if Bitset.subset group_needs.(gi) state then begin
              let group = members.(gi) in
              for k = 0 to Array.length group - 1 do
                let i = group.(k) in
                if
                  (not (Bitset.subset outs.(i) state))
                  && ((not disjoint) || Bitset.is_empty (Bitset.inter runs.(i) state))
                then begin
                  let next = Bitset.union state adds.(i) in
                  incr expanded;
                  match Bitset.Table.find_opt seen next with
                  | Some Settled -> ()
                  | mark ->
                    let c = cost +. lat.(i) in
                    let f = c +. bound next in
                    (* [compare_entry], before the entry is built. *)
                    let better =
                      match mark with
                      | Some (Queued old) -> (
                        match Float.compare f old.f with
                        | 0 -> (
                          match Float.compare c old.cost with
                          | 0 -> compare_seq (i :: path) old.path < 0
                          | x -> x < 0)
                        | x -> x < 0)
                      | _ -> true
                    in
                    if better then begin
                      let e = { f; cost = c; path = i :: path; state = next } in
                      Bitset.Table.replace seen next (Queued e);
                      Heap.push queue e
                    end
                end
              done
            end
          done;
          loop settled
        end
  in
  let r = loop 0 in
  Obs.Metrics.add m_settled
    (match r with Ok s -> s.settled | Error (Budget_exhausted k | Unreachable k) -> k);
  Obs.Metrics.add m_expanded !expanded;
  r
