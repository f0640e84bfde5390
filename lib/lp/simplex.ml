(** Two-phase primal simplex for linear programs in inequality form.

    Minimize [c . x] subject to rows [a_i . x (>=|<=|=) b_i] and [x >= 0].
    Rows come in by their nonzeros; the tableau is dense, but each pivot
    touches only the nonzero columns of its normalized pivot row. Dantzig
    pricing with a Bland's-rule anti-cycling fallback. This is the
    LP-relaxation engine behind the binary-linear-programming solver (the
    paper uses PuLP/CBC, §5.2). *)

type relation = Ge | Le | Eq

type problem = {
  minimize : float array;  (** objective coefficients, length n *)
  rows : (float array * relation * float) list;  (** constraint rows *)
}

type sparse_row = { cols : int array; coeffs : float array; rel : relation; rhs : float }

type solution = { x : float array; objective : float }

type outcome = Optimal of solution | Infeasible | Unbounded

(* ------------------------------------------------------------------ *)
(* Numerical tolerances.                                               *)
(*                                                                     *)
(* Every threshold in this solver is one of the named constants below; *)
(* do not introduce new magic literals. The {!Ilp} layer has its own   *)
(* (documented) set; keep the two in sync when changing semantics.     *)
(* ------------------------------------------------------------------ *)

(* Tableau entries with magnitude <= [pivot_eps] are numerical dust left
   by earlier eliminations: they are never used as pivot or ratio-test
   denominators, and row elimination skips them (explicitly zeroing the
   pivot-column entry) instead of performing a row update that would
   smear the dust back across cleaned entries. *)
let pivot_eps = 1e-9

(* A column prices in only when its reduced cost is below [-price_eps];
   anything closer to zero is treated as optimal to avoid stalling on
   round-off. *)
let price_eps = 1e-9

(* Slack used when comparing ratio-test ratios (and breaking ties via
   Bland's rule). *)
let ratio_eps = 1e-9

(* A right-hand side with |b| <= [rhs_eps] is treated as exactly zero
   when choosing the initial basis (a [>=] row with zero RHS can make its
   surplus basic instead of spending an artificial). *)
let rhs_eps = 1e-9

(* Phase 1 declares the problem feasible when the residual artificial
   mass is at most [feas_eps]. Looser than [pivot_eps]: the sum of m
   artificial values accumulates m rows' worth of elimination error. *)
let feas_eps = 1e-6

(* Minimum magnitude of an entry used to pivot a degenerate basic
   artificial out of the basis after phase 1. Deliberately looser than
   [pivot_eps]: pivoting on a barely-nonzero element is numerically
   dangerous, and a row whose entries are all below this is redundant
   and safely left with its artificial basic at value 0. *)
let drive_out_eps = 1e-7

let nonzero_cols (coeffs : float array) : int array =
  let k = ref 0 in
  for j = 0 to Array.length coeffs - 1 do
    if coeffs.(j) <> 0.0 then incr k
  done;
  let cols = Array.make !k 0 in
  k := 0;
  for j = 0 to Array.length coeffs - 1 do
    if coeffs.(j) <> 0.0 then begin
      cols.(!k) <- j;
      incr k
    end
  done;
  cols

(* The tableau holds [m] constraint rows in equality form over columns
   [0 .. total_cols-1] plus the RHS column; [basis.(r)] is the column basic
   in row [r]. Row operations keep RHS nonnegative. [z] is the current
   phase's reduced-cost row; [z.(total)] = -objective. *)
type tableau = {
  m : int;
  total : int;
  a : float array array;  (* m rows, total+1 cols (last = rhs) *)
  basis : int array;
  z : float array;
}

(* Pivot on [a.(row).(col)] and return the nonzero columns of the
   normalized pivot row. Only those columns of the other rows change:
   every other column of the pivot row is zero, and [x -. f *. 0.0] is
   [x]. The returned array is small and dies young; a buffer sized to the
   tableau and kept for the whole solve raised the peak heap instead. The
   update loop is the solver's hot spot and skips bounds checks: every
   [nz.(q)] is a column below [total + 1], the length of every tableau
   row. *)
let pivot (t : tableau) ~(row : int) ~(col : int) : int array =
  let arow = t.a.(row) in
  let p = arow.(col) in
  let nz = nonzero_cols arow in
  for q = 0 to Array.length nz - 1 do
    let j = nz.(q) in
    arow.(j) <- arow.(j) /. p
  done;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let ai = t.a.(i) in
      let f = ai.(col) in
      if Float.abs f > pivot_eps then
        for q = 0 to Array.length nz - 1 do
          let j = Array.unsafe_get nz q in
          Array.unsafe_set ai j (Array.unsafe_get ai j -. (f *. Array.unsafe_get arow j))
        done
      else if f <> 0.0 then
        (* Dust: skip the row update, but restore the unit-column
           invariant so the dust cannot re-contaminate later pivots. *)
        ai.(col) <- 0.0
    end
  done;
  t.basis.(row) <- col;
  nz

(* Optimize the phase objective the caller has put in [t.z]. *)
let run_phase (t : tableau) : [ `Optimal | `Unbounded ] =
  let z = t.z in
  (* Make reduced costs of basic columns zero. *)
  for r = 0 to t.m - 1 do
    let cb = z.(t.basis.(r)) in
    if Float.abs cb > pivot_eps then begin
      let ar = t.a.(r) in
      for j = 0 to t.total do
        let v = ar.(j) in
        if v <> 0.0 then z.(j) <- z.(j) -. (cb *. v)
      done
    end
    else if cb <> 0.0 then
      (* Dust: the basic column's reduced cost must be zero; zero it
         directly instead of eliminating a negligible multiple of the
         whole row. *)
      z.(t.basis.(r)) <- 0.0
  done;
  let iter = ref 0 in
  let max_dantzig = 20 * (t.m + t.total) in
  let result = ref None in
  while !result = None do
    incr iter;
    let bland = !iter > max_dantzig in
    (* Entering column: most negative reduced cost (Dantzig), or first
       negative (Bland) once the iteration budget suggests cycling. *)
    let enter = ref (-1) in
    let best = ref (-.price_eps) in
    (try
       for j = 0 to t.total - 1 do
         if z.(j) < -.price_eps then
           if bland then begin
             enter := j;
             raise Exit
           end
           else if z.(j) < !best then begin
             best := z.(j);
             enter := j
           end
       done
     with Exit -> ());
    if !enter < 0 then result := Some `Optimal
    else begin
      let col = !enter in
      (* Leaving row: min ratio test; Bland tie-break on basis index. *)
      let leave = ref (-1) in
      let best_ratio = ref Float.infinity in
      for i = 0 to t.m - 1 do
        let aij = t.a.(i).(col) in
        if aij > pivot_eps then begin
          let ratio = t.a.(i).(t.total) /. aij in
          if
            ratio < !best_ratio -. ratio_eps
            || (ratio < !best_ratio +. ratio_eps && !leave >= 0
                && t.basis.(i) < t.basis.(!leave))
          then begin
            best_ratio := ratio;
            leave := i
          end
        end
      done;
      if !leave < 0 then result := Some `Unbounded
      else begin
        let row = !leave in
        (* Update the z row alongside the pivot: after the pivot the row is
           normalized (pivot element 1), so z := z - z.(col) * new_row. *)
        let zc = z.(col) in
        let nz = pivot t ~row ~col in
        let ar = t.a.(row) in
        for q = 0 to Array.length nz - 1 do
          let j = nz.(q) in
          z.(j) <- z.(j) -. (zc *. ar.(j))
        done
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

let solve_sparse ~(minimize : float array) (rows : sparse_row array) : outcome =
  let n = Array.length minimize in
  let m = Array.length rows in
  (* Normalize rows to equality form with nonnegative RHS. Column layout:
     [0..n-1] structural, [n..n+m-1] slack/surplus (0 coeff for Eq rows),
     then one artificial column per row that needs one (Eq rows and Ge rows
     with positive RHS after sign normalization). *)
  let normalized r =
    if r.rhs < 0.0 then (-1.0, match r.rel with Ge -> Le | Le -> Ge | Eq -> Eq) else (1.0, r.rel)
  in
  let needs_artificial r =
    match normalized r with
    | _, Le -> false
    | _, Eq -> true
    | sign, Ge -> sign *. r.rhs > rhs_eps
  in
  let n_artificial = Array.fold_left (fun acc r -> if needs_artificial r then acc + 1 else acc) 0 rows in
  let total = n + m + n_artificial in
  let a = Array.make_matrix m (total + 1) 0.0 in
  let basis = Array.make m (-1) in
  let artificial_used = ref [] in
  let next_artificial = ref (n + m) in
  Array.iteri
    (fun i r ->
      let sign, rel = normalized r in
      let rhs = sign *. r.rhs in
      (* A [>=] row with zero RHS is negated so its surplus coefficient
         turns positive and can be basic at value 0 instead of spending an
         artificial. *)
      let negate = rel = Ge && rhs <= rhs_eps in
      let sign = if negate then -.sign else sign in
      let ai = a.(i) in
      for q = 0 to Array.length r.cols - 1 do
        ai.(r.cols.(q)) <- sign *. r.coeffs.(q)
      done;
      ai.(total) <- (if negate then -.rhs else rhs);
      (* Choose initial basis: slack if it can be basic with value >= 0. *)
      match rel with
      | Le ->
        ai.(n + i) <- 1.0;
        basis.(i) <- n + i
      | Ge when negate ->
        ai.(n + i) <- 1.0;
        basis.(i) <- n + i
      | Ge | Eq ->
        if rel = Ge then ai.(n + i) <- -1.0;
        let art = !next_artificial in
        incr next_artificial;
        ai.(art) <- 1.0;
        basis.(i) <- art;
        artificial_used := art :: !artificial_used)
    rows;
  let t = { m; total; a; basis; z = Array.make (total + 1) 0.0 } in
  (* Phase 1: minimize the sum of artificials, when any exist. *)
  let feasible =
    if !artificial_used = [] then true
    else begin
      List.iter (fun j -> t.z.(j) <- 1.0) !artificial_used;
      match run_phase t with
      | `Unbounded -> false (* cannot happen: phase-1 objective bounded below by 0 *)
      | `Optimal ->
        let obj =
          List.fold_left
            (fun acc j ->
              (* Value of artificial j: rhs of its row if basic, else 0. *)
              let v = ref 0.0 in
              for i = 0 to m - 1 do
                if t.basis.(i) = j then v := t.a.(i).(total)
              done;
              acc +. !v)
            0.0 !artificial_used
        in
        obj <= feas_eps
    end
  in
  if not feasible then Infeasible
  else begin
    (* Drive any remaining basic artificials out (degenerate): pivot on any
       nonzero structural column in that row, or drop the redundant row by
       leaving the artificial basic at value 0. *)
    List.iter
      (fun art ->
        for i = 0 to m - 1 do
          if t.basis.(i) = art then begin
            let found = ref false in
            for j = 0 to n + m - 1 do
              if (not !found) && Float.abs t.a.(i).(j) > drive_out_eps then begin
                ignore (pivot t ~row:i ~col:j);
                found := true
              end
            done
          end
        done)
      !artificial_used;
    (* Forbid artificials from re-entering. *)
    List.iter
      (fun art ->
        for i = 0 to m - 1 do
          t.a.(i).(art) <- 0.0
        done)
      !artificial_used;
    (* Phase 2: original objective. *)
    Array.fill t.z 0 (total + 1) 0.0;
    Array.blit minimize 0 t.z 0 n;
    match run_phase t with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let x = Array.make n 0.0 in
      for i = 0 to m - 1 do
        if t.basis.(i) < n then x.(t.basis.(i)) <- t.a.(i).(total)
      done;
      let objective = ref 0.0 in
      for j = 0 to n - 1 do
        objective := !objective +. (minimize.(j) *. x.(j))
      done;
      Optimal { x; objective = !objective }
  end

let solve (p : problem) : outcome =
  let n = Array.length p.minimize in
  let sparse (coeffs, rel, rhs) =
    if Array.length coeffs <> n then invalid_arg "Simplex.solve: row width mismatch";
    let cols = nonzero_cols coeffs in
    { cols; coeffs = Array.map (fun j -> coeffs.(j)) cols; rel; rhs }
  in
  solve_sparse ~minimize:p.minimize (Array.of_list (List.map sparse p.rows))
