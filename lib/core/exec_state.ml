(** Execution-state enumeration (Definition 2, first half of Algorithm 1).

    An execution state is a downward-closed set of primitives — "what has
    been computed so far". The DFS starts from the source-only state and
    adds any primitive whose predecessors are all present. The number of
    states grows linearly with depth but exponentially with width (§4), so
    enumeration is guarded by [max_states]; callers partition wider graphs
    first. *)

open Ir

(** [enumerate_bounded g ~max_states] — execution states of [g] up to the
    bound, each including every source node, plus a truncation flag. When
    the bound binds, the states found so far are returned with
    [truncated = true]: every pairwise difference of genuine execution
    states is still a valid convex subgraph (Theorem 1 needs no
    completeness), so callers can degrade to a sparser candidate set
    instead of aborting. *)
let enumerate_bounded (g : Primgraph.t) ~(max_states : int) : Bitset.t list * bool =
  Faults.check Faults.Enumerate;
  let n = Graph.length g in
  let sources =
    Array.fold_left
      (fun acc nd -> if Primitive.is_source nd.Graph.op then Bitset.add acc nd.Graph.id else acc)
      (Bitset.empty n) g.Graph.nodes
  in
  let db = Bitset.Table.create 256 in
  Bitset.Table.replace db sources ();
  let count = ref 1 in
  let truncated = ref false in
  let rec dfs (x : Bitset.t) =
    for v = 0 to n - 1 do
      if not (Bitset.mem x v) then begin
        let ready = List.for_all (fun p -> Bitset.mem x p) (Graph.preds g v) in
        if ready then begin
          let x' = Bitset.add x v in
          if not (Bitset.Table.mem db x') then begin
            if !count >= max_states then truncated := true
            else begin
              incr count;
              Bitset.Table.replace db x' ();
              dfs x'
            end
          end
        end
      end
    done
  in
  dfs sources;
  (Bitset.Table.fold (fun s () acc -> s :: acc) db [], !truncated)

(** [theorem1_check g s] — test oracle for Theorem 1: [s] (a set of
    non-source nodes) is a convex subgraph iff it is the difference of two
    execution states. Used by the property-based tests. *)
let is_difference_of_states (states : Bitset.t list) (s : Bitset.t) : bool =
  List.exists
    (fun d2 ->
      Bitset.subset s d2
      && List.exists (fun d1 -> Bitset.subset d1 d2 && Bitset.equal s (Bitset.diff d2 d1)) states)
    states
