(** Sequencing selected kernels (executable generation, §5.3).

    §4.2's Eq. 4 guarantees every needed tensor a publisher but not that a
    deadlock-free order exists: two selected kernels may feed each other
    (expressible in Eq. 4, not executable). The greedy list scheduler runs
    any kernel whose external inputs are available; a stuck remainder is
    returned, which greedy fusion uses to reject a merge. *)

open Ir

(** [schedule g candidates ~selected] — order the selected candidate
    indices so that every kernel's external inputs are published before it
    runs. [Error stuck] lists the unschedulable remainder (each of its
    members waits on a tensor only another stuck member publishes). *)
val schedule :
  Primgraph.t -> Candidate.t array -> selected:int list -> (int list, int list) result
