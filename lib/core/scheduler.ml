(** Sequencing selected kernels (executable generation, §5.3).

    §4.2's Eq. 4 guarantees every needed tensor has a publisher but not that a
    deadlock-free order exists (two selected kernels may feed each other).
    The greedy list scheduler below runs any kernel whose external inputs
    are available; if it gets stuck, the remaining kernel set is returned
    so greedy fusion can reject the merge that caused it. *)

open Ir

(** [schedule g candidates ~selected] — order the selected candidate
    indices so every kernel's external inputs are published before it
    runs. [Error stuck] lists the unschedulable remainder. *)
let schedule (g : Primgraph.t) (candidates : Candidate.t array) ~(selected : int list) :
    (int list, int list) result =
  let available = Hashtbl.create 64 in
  Array.iter
    (fun nd -> if Primitive.is_source nd.Graph.op then Hashtbl.replace available nd.Graph.id ())
    g.Graph.nodes;
  let remaining = ref selected in
  let order = ref [] in
  let progress = ref true in
  while !progress && !remaining <> [] do
    progress := false;
    let runnable, blocked =
      List.partition
        (fun k ->
          List.for_all
            (fun j -> Hashtbl.mem available j)
            candidates.(k).Candidate.ext_inputs)
        !remaining
    in
    if runnable <> [] then begin
      progress := true;
      List.iter
        (fun k ->
          order := k :: !order;
          List.iter (fun o -> Hashtbl.replace available o ()) candidates.(k).Candidate.outputs)
        runnable;
      remaining := blocked
    end
  done;
  if !remaining = [] then Ok (List.rev !order) else Error !remaining
