(** Two-phase primal simplex for linear programs in inequality form.

    This is the LP-relaxation engine behind the binary-linear-programming
    solver ({!Ilp}) that plays the role of PuLP/CBC in the paper (§5.2).

    The implementation is a two-phase primal simplex:
    phase 1 minimizes the sum of artificial variables (only rows that need
    one — equalities and [>=] rows with positive right-hand side after
    sign normalization — get an artificial column); phase 2 optimizes the
    original objective. Pricing is Dantzig's rule with an automatic switch
    to Bland's anti-cycling rule when an iteration budget suggests
    degeneracy-induced cycling.

    Constraint rows enter by their nonzeros ({!sparse_row}) through one
    tableau builder. The tableau itself is dense and lives for one solve,
    but a pivot updates the other rows and the reduced-cost row only at
    the nonzero columns of the normalized pivot row, so an iteration costs
    in proportion to the nonzeros it touches rather than to rows × columns.
    Skipping a zero column is exact ([x -. f *. 0.0] is [x]): the sparse
    and dense forms of a problem take the same pivots. *)

(** Row relation: [a . x >= b], [a . x <= b] or [a . x = b]. *)
type relation = Ge | Le | Eq

type problem = {
  minimize : float array;  (** objective coefficients, one per variable *)
  rows : (float array * relation * float) list;
      (** constraint rows; each coefficient vector must have the same
          width as {!field-minimize} *)
}

type solution = {
  x : float array;  (** an optimal vertex (nonnegative variables) *)
  objective : float;  (** objective value at [x] *)
}

type outcome =
  | Optimal of solution
  | Infeasible  (** phase 1 could not drive the artificials to zero *)
  | Unbounded  (** some improving ray has no blocking constraint *)

(** One constraint row by its nonzeros: [coeffs.(k)] multiplies variable
    [cols.(k)], every other coefficient is zero. *)
type sparse_row = { cols : int array; coeffs : float array; rel : relation; rhs : float }

(** [nonzero_cols coeffs] — the ascending indices [j] with
    [coeffs.(j) <> 0.0]. *)
val nonzero_cols : float array -> int array

(** [solve_sparse ~minimize rows] minimizes [minimize . x] subject to
    [rows] and [x >= 0]. Every column index must be below
    [Array.length minimize] and appear at most once per row. *)
val solve_sparse : minimize:float array -> sparse_row array -> outcome

(** [solve p] minimizes [p.minimize . x] subject to [p.rows] and
    [x >= 0]: it takes each dense row's nonzeros and calls
    {!solve_sparse}.

    Raises [Invalid_argument] if a row's width differs from the
    objective's. Upper bounds on variables must be encoded as [Le] rows
    when needed; the orchestration BLPs of {!module:Korch} never need
    them (see the note in [lib/lp/ilp.ml]). *)
val solve : problem -> outcome
