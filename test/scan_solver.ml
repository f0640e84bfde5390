(* The full-scan segment solver: the test-side reference that
   Korch.Segment_solver is checked against.

   The same A* search over published sets, with the same bound and the
   same queue key (cost plus bound, cost, candidate-index sequence), but
   every settled state tests every candidate in index order: its inputs,
   its outputs and, in the disjoint ablation, its executed set. Nothing
   is deduplicated or indexed, so the library solver must return the same
   order, the same cost bits and the same settled count. *)

open Ir

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

type mark = Settled | Queued of (float * float * int list)

let solve ?(disjoint = false) ~budget (g : Primgraph.t) (candidates : Korch.Candidate.t array) :
    (Korch.Segment_solver.solution, Korch.Segment_solver.failure) result =
  let n = Graph.length g in
  let published ids =
    Bitset.of_list (2 * n)
      (List.filter_map
         (fun j -> if Primitive.is_source (Graph.op g j) then None else Some (n + j))
         ids)
  in
  let goal = published g.Graph.outputs in
  let needs = Array.map (fun (c : Korch.Candidate.t) -> published c.Korch.Candidate.ext_inputs) candidates in
  let outs = Array.map (fun (c : Korch.Candidate.t) -> published c.Korch.Candidate.outputs) candidates in
  let runs =
    Array.map
      (fun (c : Korch.Candidate.t) ->
        Bitset.of_list (2 * n) (if disjoint then Bitset.elements c.Korch.Candidate.members else []))
      candidates
  in
  let adds = Array.mapi (fun i o -> Bitset.union o runs.(i)) outs in
  let cheapest =
    List.map
      (fun b ->
        let l = ref Float.infinity in
        Array.iteri
          (fun i o ->
            if Bitset.mem o b then l := Float.min !l candidates.(i).Korch.Candidate.latency_us)
          outs;
        (b, !l))
      (Bitset.elements goal)
  in
  let bound state =
    List.fold_left (fun h (b, l) -> if Bitset.mem state b then h else Float.max h l) 0.0 cheapest
  in
  let seen = Bitset.Table.create 256 in
  let start = Bitset.empty (2 * n) in
  let rec loop queue settled =
    match Queue.min_elt_opt queue with
    | None -> Error (Korch.Segment_solver.Unreachable settled)
    | Some (((_, cost, path), state) as entry) ->
      let queue = Queue.remove entry queue in
      let settled = settled + 1 in
      Bitset.Table.replace seen state Settled;
      if Bitset.subset goal state then
        Ok { Korch.Segment_solver.order = List.rev path; cost; settled }
      else if settled >= budget then Error (Korch.Segment_solver.Budget_exhausted settled)
      else begin
        let queue = ref queue in
        Array.iteri
          (fun i (c : Korch.Candidate.t) ->
            if
              Bitset.subset needs.(i) state
              && (not (Bitset.subset outs.(i) state))
              && Bitset.is_empty (Bitset.inter runs.(i) state)
            then begin
              let next = Bitset.union state adds.(i) in
              let cost = cost +. c.Korch.Candidate.latency_us in
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
  loop (Queue.singleton ((bound start, 0.0, []), start)) 0
