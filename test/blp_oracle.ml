(* The binary program of kernel orchestration (§4.2, Eqs. 2–4) and a
   brute-force solver for it: the test-side oracle that
   Korch.Segment_solver is checked against.

   One binary variable per candidate. The objective is the sum of the
   selected kernels' latencies (Eq. 2). Output rows (Eq. 3) force every
   non-source graph output to be published; dependency rows (Eq. 4)
   force every non-source external input of a selected kernel to be
   published by some selected kernel. Source nodes (graph inputs and
   constants) are always available and generate no rows.

   The program says nothing about order: a selection can satisfy every
   row and still admit no deadlock-free schedule (see Korch.Scheduler).
   Callers that want the schedulable optimum filter with the scheduler. *)

open Ir

(* Every coefficient is 0 or ±1 and every assignment is 0/1, so rows are
   checked exactly, in integers. *)
type row =
  | At_least of int array * int  (** [Σ coeffs·x ≥ b]: Eqs. 3 and 4 *)
  | At_most of int array * int  (** [Σ coeffs·x ≤ b]: the disjoint ablation *)

type problem = { minimize : float array; rows : row list }

(* [build ?disjoint g candidates] — the instance. With [disjoint] (the
   ablation of §4.2's redundancy relaxation) every primitive may be
   executed by at most one selected kernel. *)
let build ?(disjoint = false) (g : Primgraph.t) (candidates : Korch.Candidate.t array) : problem =
  let m = Array.length candidates in
  let minimize = Array.map (fun (c : Korch.Candidate.t) -> c.Korch.Candidate.latency_us) candidates in
  let publishers = Array.make (Graph.length g) [] in
  Array.iteri
    (fun i (c : Korch.Candidate.t) ->
      List.iter (fun j -> publishers.(j) <- i :: publishers.(j)) c.Korch.Candidate.outputs)
    candidates;
  let published_by j =
    let row = Array.make m 0 in
    List.iter (fun i -> row.(i) <- 1) publishers.(j);
    row
  in
  let non_source j = not (Primitive.is_source (Graph.op g j)) in
  (* Eq. 3: output covering. *)
  let outputs =
    List.filter_map
      (fun j -> if non_source j then Some (At_least (published_by j, 1)) else None)
      g.Graph.outputs
  in
  (* Eq. 4: one row per (kernel, non-source external input). *)
  let dependencies =
    List.concat
      (List.mapi
         (fun k (c : Korch.Candidate.t) ->
           List.filter_map
             (fun j ->
               if non_source j then begin
                 let row = published_by j in
                 row.(k) <- row.(k) - 1;
                 Some (At_least (row, 0))
               end
               else None)
             c.Korch.Candidate.ext_inputs)
         (Array.to_list candidates))
  in
  let disjointness =
    if not disjoint then []
    else begin
      let executors = Array.make (Graph.length g) [] in
      Array.iteri
        (fun i (c : Korch.Candidate.t) ->
          Bitset.iter (fun j -> executors.(j) <- i :: executors.(j)) c.Korch.Candidate.members)
        candidates;
      List.filter_map
        (function
          | [] | [ _ ] -> None
          | execs ->
            let row = Array.make m 0 in
            List.iter (fun i -> row.(i) <- 1) execs;
            Some (At_most (row, 1)))
        (Array.to_list executors)
    end
  in
  { minimize; rows = outputs @ dependencies @ disjointness }

let feasible (p : problem) (x : int array) : bool =
  let lhs coeffs =
    let s = ref 0 in
    Array.iteri (fun j c -> s := !s + (c * x.(j))) coeffs;
    !s
  in
  List.for_all
    (function At_least (coeffs, b) -> lhs coeffs >= b | At_most (coeffs, b) -> lhs coeffs <= b)
    p.rows

(* Selected latencies summed in index order. *)
let objective (p : problem) (x : int array) : float =
  let o = ref 0.0 in
  Array.iteri (fun j c -> if x.(j) = 1 then o := !o +. c) p.minimize;
  !o

(* [solve p] enumerates all [2^n] assignments and returns an optimal one
   with its objective, or [None] when no assignment is feasible. Raises
   [Invalid_argument] above 25 variables. *)
let solve (p : problem) : (int array * float) option =
  let n = Array.length p.minimize in
  if n > 25 then invalid_arg "Blp_oracle.solve: too many variables";
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> (mask lsr j) land 1) in
    if feasible p x then begin
      let obj = objective p x in
      match !best with Some (_, b) when b <= obj -> () | _ -> best := Some (x, obj)
    end
  done;
  !best
