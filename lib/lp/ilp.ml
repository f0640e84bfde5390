(** Binary integer linear programming by branch-and-bound over LP
    relaxations (the "off-the-shelf BLP solver" role, §4.2/§5.2).

    Variables are binary. The LP relaxation drops integrality but keeps
    [x >= 0]; for Korch's orchestration constraints (covering rows and
    dependency rows with unit coefficients and positive costs) the
    relaxation always admits an optimal solution with [x <= 1], so explicit
    upper-bound rows are unnecessary. *)

type problem = {
  minimize : float array;
  rows : (float array * Simplex.relation * float) list;
}

type status = Optimal | TimeLimit | Infeasible

type solution = {
  x : int array;
  objective : float;
  status : status;
  nodes_explored : int;
  time_limit_hit : bool;
}

(* ------------------------------------------------------------------ *)
(* Numerical tolerances.                                               *)
(*                                                                     *)
(* Every threshold in this solver is one of the named constants below; *)
(* do not introduce new magic literals ({!Simplex} documents its own   *)
(* set). In particular, [feas_eps] is the single feasibility slack     *)
(* used both to accept integral incumbents and to separate violated    *)
(* lazy rows — the two checks must agree, or an incumbent rejected by  *)
(* the tighter check can fail to activate any row under the looser one *)
(* and be dropped silently.                                            *)
(* ------------------------------------------------------------------ *)

(* An LP-relaxation value within [integrality_eps] of an integer is
   treated as integral when choosing a branching variable. Looser than
   [feas_eps]: simplex round-off on a long elimination chain easily
   exceeds 1e-9 without the vertex being meaningfully fractional. *)
let integrality_eps = 1e-6

(* Constraint-feasibility slack for row checks: accepting a candidate
   incumbent, validating a warm start, and deciding whether an inactive
   lazy row is violated by a (possibly fractional) point. *)
let feas_eps = 1e-9

(* Coefficients (and homogeneous right-hand sides) with magnitude at most
   [zero_eps] are structurally zero: used to detect trivially-empty
   reduced rows and to recognize the homogeneous [>= 0] dependency rows
   eligible for lazy activation. *)
let zero_eps = 1e-12

(* A new incumbent must beat the old one by at least [improve_eps]
   (before the user-supplied gaps) for a node bound to stay interesting;
   prevents re-exploring ties produced by round-off. *)
let improve_eps = 1e-9

(* One row's check under the single [feas_eps] slack. *)
let satisfied (rel : Simplex.relation) (lhs : float) (b : float) =
  match rel with
  | Simplex.Ge -> lhs >= b -. feas_eps
  | Le -> lhs <= b +. feas_eps
  | Eq -> Float.abs (lhs -. b) <= feas_eps

let is_feasible_binary (p : problem) (x : int array) : bool =
  List.for_all
    (fun (coeffs, rel, b) ->
      let lhs = ref 0.0 in
      Array.iteri (fun j c -> lhs := !lhs +. (c *. float_of_int x.(j))) coeffs;
      satisfied rel !lhs b)
    p.rows

let objective_of (p : problem) (x : int array) : float =
  let o = ref 0.0 in
  Array.iteri (fun j c -> o := !o +. (c *. float_of_int x.(j))) p.minimize;
  !o

(** [solve ?time_limit_s ?max_nodes ?rel_gap ?abs_gap ?lazy_dependencies
    ?warm_start p] — minimization by branch-and-bound. [warm_start] seeds
    the incumbent with a known feasible assignment (infeasible seeds are
    ignored). [rel_gap]/[abs_gap] prune nodes whose LP bound is within the
    given distance of the incumbent — 0 gives a proof of optimality, small
    positive values trade a bounded suboptimality for far fewer nodes.
    Exact (up to the gaps) unless the node or time budget is hit, in which
    case the best incumbent (if any) is returned with [TimeLimit] status.

    With [lazy_dependencies] the
    homogeneous covering rows ([>= 0], Korch's Eq. 4 dependency
    constraints) start outside the LP and are activated lazily when an
    integral candidate violates them: most are slack at the optimum, and
    dropping them shrinks each LP dramatically. Bounds from the reduced
    LPs remain valid (a relaxation of a relaxation). *)
(* Per-solver metrics: cumulative branch-and-bound work and incumbent
   improvements across every solve in the process. *)
let m_solves = Obs.Metrics.counter "ilp.solves"
let m_nodes = Obs.Metrics.counter "ilp.nodes"
let m_incumbents = Obs.Metrics.counter "ilp.incumbents"
let m_time_limit_hits = Obs.Metrics.counter "ilp.time_limit_hits"

let solve ?(time_limit_s = 60.0) ?(max_nodes = 200_000) ?(rel_gap = 0.0) ?(abs_gap = 0.0)
    ?(lazy_dependencies = false) ?(warm_start : int array option) (p : problem) :
    solution option =
  Obs.Metrics.incr m_solves;
  Obs.Span.with_ ~name:"ilp.solve"
    ~args:
      [
        ("vars", Obs.Jsonw.Int (Array.length p.minimize));
        ("rows", Obs.Jsonw.Int (List.length p.rows));
      ]
  @@ fun () ->
  let n = Array.length p.minimize in
  (* Monotonic wall clock, never [Sys.time]: CPU time counts every
     domain's work, so under the pool it would expire the budget jobs×
     early. *)
  let start_us = Obs.Clock.now_us () in
  let all_rows = Array.of_list p.rows in
  (* Each row's nonzero columns, found once per solve: node LPs,
     separation and incumbent checks touch only these. A skipped term is
     [c *. x] with [c = 0], so every sum is the dense one. *)
  let row_cols = Array.map (fun (coeffs, _, _) -> Simplex.nonzero_cols coeffs) all_rows in
  let row_satisfied i (x : float array) =
    let coeffs, rel, b = all_rows.(i) and cols = row_cols.(i) in
    let lhs = ref 0.0 in
    for q = 0 to Array.length cols - 1 do
      let j = cols.(q) in
      lhs := !lhs +. (coeffs.(j) *. x.(j))
    done;
    satisfied rel !lhs b
  in
  let feasible (x : float array) =
    let rec from i = i = Array.length all_rows || (row_satisfied i x && from (i + 1)) in
    from 0
  in
  let incumbent = ref None in
  let incumbent_obj = ref Float.infinity in
  (match warm_start with
  | Some x when Array.length x = n && feasible (Array.map float_of_int x) ->
    incumbent := Some (Array.copy x);
    incumbent_obj := objective_of p x
  | _ -> ());
  let row_active =
    Array.map
      (fun (_, rel, b) ->
        not (lazy_dependencies && rel = Simplex.Ge && Float.abs b <= zero_eps))
      all_rows
  in
  let pool_version = ref 0 in
  let cached_version = ref (-1) in
  let cached_rows = ref [] in
  let active_rows () =
    if !cached_version <> !pool_version then begin
      cached_rows := List.filter (fun i -> row_active.(i)) (List.init (Array.length all_rows) Fun.id);
      cached_version := !pool_version
    end;
    !cached_rows
  in
  (* Inactive rows violated by a (possibly fractional) point. Same
     [feas_eps] as the incumbent check: a rejected incumbent must always
     find at least one violated row to activate. *)
  let violated_rows_float (x : float array) =
    let out = ref [] in
    Array.iteri (fun i active -> if not (active || row_satisfied i x) then out := i :: !out) row_active;
    !out
  in
  (* The active rows of a node's LP. [col.(j)] is free variable [j]'s LP
     column; fixed variables move into the right-hand sides. A row with no
     free coefficient left is dropped when it holds and becomes the
     infeasible [0 = 1] otherwise. *)
  let node_rows (fixed : int array) (col : int array) =
    List.filter_map
      (fun i ->
        let coeffs, rel, b = all_rows.(i) and cols = row_cols.(i) in
        let rhs = ref b and n_free = ref 0 and trivially_zero = ref true in
        for q = 0 to Array.length cols - 1 do
          let j = cols.(q) in
          if fixed.(j) = 1 then rhs := !rhs -. coeffs.(j)
          else if fixed.(j) < 0 then begin
            incr n_free;
            if not (Float.abs coeffs.(j) < zero_eps) then trivially_zero := false
          end
        done;
        if !trivially_zero then
          if satisfied rel 0.0 !rhs then None
          else Some { Simplex.cols = [||]; coeffs = [||]; rel = Eq; rhs = 1.0 }
        else begin
          let free_cols = Array.make !n_free 0 and free_coeffs = Array.make !n_free 0.0 in
          let k = ref 0 in
          for q = 0 to Array.length cols - 1 do
            let j = cols.(q) in
            if fixed.(j) < 0 then begin
              free_cols.(!k) <- col.(j);
              free_coeffs.(!k) <- coeffs.(j);
              incr k
            end
          done;
          Some { Simplex.cols = free_cols; coeffs = free_coeffs; rel; rhs = !rhs }
        end)
      (active_rows ())
    |> Array.of_list
  in
  (* Solve the node LP, separating violated lazy rows against each
     fractional optimum until none remain: the final bound equals the
     full-row LP bound while the active pool stays small. *)
  let solve_node_lp fixed =
    let col = Array.make n (-1) in
    let nf = ref 0 in
    Array.iteri
      (fun j v ->
        if v < 0 then begin
          col.(j) <- !nf;
          incr nf
        end)
      fixed;
    let free = Array.make !nf 0 in
    Array.iteri (fun j c -> if c >= 0 then free.(c) <- j) col;
    let minimize = Array.map (fun j -> p.minimize.(j)) free in
    let fixed_cost = ref 0.0 in
    for j = 0 to n - 1 do
      if fixed.(j) = 1 then fixed_cost := !fixed_cost +. p.minimize.(j)
    done;
    let rec go rounds =
      match Simplex.solve_sparse ~minimize (node_rows fixed col) with
      | Simplex.Optimal sol when rounds < 50 ->
        let xf = Array.make n 0.0 in
        Array.iteri (fun j v -> if v = 1 then xf.(j) <- 1.0) fixed;
        Array.iteri (fun i v -> xf.(free.(i)) <- v) sol.Simplex.x;
        (match violated_rows_float xf with
        | [] -> Simplex.Optimal sol
        | viol ->
          List.iter (fun i -> row_active.(i) <- true) viol;
          incr pool_version;
          go (rounds + 1))
      | outcome -> outcome
    in
    (go 0, free, !fixed_cost)
  in
  let nodes = ref 0 in
  let timed_out = ref false in
  (* Distinguish the two budgets: the node limit is the deterministic one,
     the CPU-time limit a safety net whose binding callers want to know
     about (it reintroduces timing sensitivity). *)
  let time_hit = ref false in
  (* DFS stack of fixing vectors. *)
  let stack = Stack.create () in
  Stack.push (Array.make n (-1)) stack;
  while (not (Stack.is_empty stack)) && not !timed_out do
    if Obs.Clock.now_us () -. start_us > time_limit_s *. 1e6 then begin
      timed_out := true;
      time_hit := true;
      Obs.Metrics.incr m_time_limit_hits
    end
    else if !nodes >= max_nodes then timed_out := true
    else begin
      let fixed = Stack.pop stack in
      incr nodes;
      match solve_node_lp fixed with
      | Simplex.Infeasible, _, _ -> ()
      | Unbounded, _, _ ->
        (* Cannot happen for covering objectives; if a partial row pool
           caused it, activate everything and retry this node once. *)
        let changed = ref false in
        Array.iteri
          (fun i act ->
            if not act then begin
              row_active.(i) <- true;
              changed := true
            end)
          row_active;
        if !changed then begin
          incr pool_version;
          Stack.push fixed stack
        end
      | Optimal sol, free, fixed_cost ->
        let bound = sol.Simplex.objective +. fixed_cost in
        let prune_threshold =
          if Float.is_finite !incumbent_obj then
            !incumbent_obj
            -. Float.max improve_eps (Float.max abs_gap (rel_gap *. Float.abs !incumbent_obj))
          else Float.infinity
        in
        if bound < prune_threshold then begin
          (* Branch on the fractional variable with the largest
             fractionality-weighted cost: high-impact decisions first. *)
          let frac_j = ref (-1) in
          let frac_score = ref 0.0 in
          Array.iteri
            (fun i v ->
              let d = Float.abs (v -. Float.round v) in
              if d > integrality_eps then begin
                let score = d *. (1.0 +. Float.abs p.minimize.(free.(i))) in
                if score > !frac_score then begin
                  frac_score := score;
                  frac_j := free.(i)
                end
              end)
            sol.Simplex.x;
          if !frac_j < 0 then begin
            (* Integral: candidate incumbent. *)
            let x = Array.make n 0 in
            Array.iteri (fun j v -> if v = 1 then x.(j) <- 1) fixed;
            Array.iteri
              (fun i v -> x.(free.(i)) <- (if v > 0.5 then 1 else 0))
              sol.Simplex.x;
            let xf = Array.map float_of_int x in
            if feasible xf then begin
              let obj = objective_of p x in
              if obj < !incumbent_obj then begin
                incumbent_obj := obj;
                incumbent := Some x;
                Obs.Metrics.incr m_incumbents
              end
            end
            else begin
              (* Violates rows outside the active pool: activate them and
                 re-solve this node with the richer LP. *)
              match violated_rows_float xf with
              | [] -> () (* violates an active row: numerically impossible *)
              | viol ->
                List.iter (fun i -> row_active.(i) <- true) viol;
                incr pool_version;
                Stack.push fixed stack
            end
          end
          else begin
            let j = !frac_j in
            let zero = Array.copy fixed and one = Array.copy fixed in
            zero.(j) <- 0;
            one.(j) <- 1;
            (* Explore the x_j = 1 branch first: for covering problems it
               reaches feasible incumbents quickly. *)
            Stack.push zero stack;
            Stack.push one stack
          end
        end
    end
  done;
  Obs.Metrics.add m_nodes !nodes;
  match !incumbent with
  | None ->
    if !timed_out then None
    else
      Some
        { x = [||]; objective = 0.0; status = Infeasible; nodes_explored = !nodes;
          time_limit_hit = !time_hit }
  | Some x ->
    Some
      {
        x;
        objective = !incumbent_obj;
        status = (if !timed_out then TimeLimit else Optimal);
        nodes_explored = !nodes;
        time_limit_hit = !time_hit;
      }
