(* Tests for the LP/BLP solver: simplex on known programs, branch-and-bound
   vs exhaustive enumeration on random covering instances. *)

let solve_lp p = Lp.Simplex.solve p

let check_opt msg expected p =
  match solve_lp p with
  | Lp.Simplex.Optimal s -> Alcotest.(check (float 1e-6)) msg expected s.Lp.Simplex.objective
  | Infeasible -> Alcotest.failf "%s: unexpectedly infeasible" msg
  | Unbounded -> Alcotest.failf "%s: unexpectedly unbounded" msg

let test_simplex_basic () =
  (* min x + 2y s.t. x + y >= 1 -> 1 at (1, 0) *)
  check_opt "basic" 1.0
    { Lp.Simplex.minimize = [| 1.; 2. |]; rows = [ ([| 1.; 1. |], Lp.Simplex.Ge, 1.) ] }

let test_simplex_le_rows () =
  (* min -x - y s.t. x <= 2, y <= 3, x + y <= 4 -> -4 *)
  check_opt "le rows" (-4.0)
    {
      Lp.Simplex.minimize = [| -1.; -1. |];
      rows =
        [ ([| 1.; 0. |], Lp.Simplex.Le, 2.); ([| 0.; 1. |], Lp.Simplex.Le, 3.);
          ([| 1.; 1. |], Lp.Simplex.Le, 4.) ];
    }

let test_simplex_eq () =
  (* min x + y s.t. x + 2y = 4, x >= 0 -> y=2 x=0 obj 2 *)
  check_opt "eq row" 2.0
    { Lp.Simplex.minimize = [| 1.; 1. |]; rows = [ ([| 1.; 2. |], Lp.Simplex.Eq, 4.) ] }

let test_simplex_infeasible () =
  match
    solve_lp
      {
        Lp.Simplex.minimize = [| 1. |];
        rows = [ ([| 1. |], Lp.Simplex.Le, 1.); ([| 1. |], Lp.Simplex.Ge, 2.) ];
      }
  with
  | Lp.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  match
    solve_lp { Lp.Simplex.minimize = [| -1. |]; rows = [ ([| 1. |], Lp.Simplex.Ge, 0.) ] }
  with
  | Lp.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_degenerate () =
  (* Multiple redundant constraints through the optimum. *)
  check_opt "degenerate" 2.0
    {
      Lp.Simplex.minimize = [| 3.; 2.; 4. |];
      rows =
        [ ([| 1.; 1.; 0. |], Lp.Simplex.Ge, 1.); ([| 0.; 1.; 1. |], Lp.Simplex.Ge, 1.);
          ([| 1.; 1.; 0. |], Lp.Simplex.Ge, 1.) ];
    }

let test_simplex_fractional_cover () =
  (* Odd cycle cover: LP relaxation gives 1.5 with all x = 0.5. *)
  check_opt "odd cycle" 1.5
    {
      Lp.Simplex.minimize = [| 1.; 1.; 1. |];
      rows =
        [ ([| 1.; 1.; 0. |], Lp.Simplex.Ge, 1.); ([| 0.; 1.; 1. |], Lp.Simplex.Ge, 1.);
          ([| 1.; 0.; 1. |], Lp.Simplex.Ge, 1.) ];
    }

let test_simplex_dust_coefficients () =
  (* Coefficients of magnitude ~1e-15 are numerical dust below pivot_eps:
     the pivot guards must skip them rather than divide by them. Before
     the guards, `Float.abs f > 0.0` admitted these entries and a dust
     denominator manufactured astronomically wrong bases. *)
  check_opt "dust" 1.0
    {
      Lp.Simplex.minimize = [| 1.; 2. |];
      rows =
        [ ([| 1.; 1. |], Lp.Simplex.Ge, 1.);
          ([| 1. +. 1e-15; 1. |], Lp.Simplex.Ge, 1.);
          ([| 1e-15; 1. |], Lp.Simplex.Le, 5.);
          ([| 1.; -1e-15 |], Lp.Simplex.Le, 2.) ];
    }

let test_ilp_odd_cycle () =
  let p =
    {
      Lp.Ilp.minimize = [| 1.; 1.; 1. |];
      rows =
        [ ([| 1.; 1.; 0. |], Lp.Simplex.Ge, 1.); ([| 0.; 1.; 1. |], Lp.Simplex.Ge, 1.);
          ([| 1.; 0.; 1. |], Lp.Simplex.Ge, 1.) ];
    }
  in
  match Lp.Ilp.solve p with
  | Some s ->
    Alcotest.(check (float 1e-9)) "ilp obj" 2.0 s.Lp.Ilp.objective;
    Alcotest.(check bool) "optimal" true (s.Lp.Ilp.status = Lp.Ilp.Optimal)
  | None -> Alcotest.fail "no solution"

let test_ilp_infeasible () =
  let p =
    {
      Lp.Ilp.minimize = [| 1. |];
      rows = [ ([| 1. |], Lp.Simplex.Ge, 1.); ([| 1. |], Lp.Simplex.Le, 0.) ];
    }
  in
  match Lp.Ilp.solve p with
  | Some s -> Alcotest.(check bool) "infeasible" true (s.Lp.Ilp.status = Lp.Ilp.Infeasible)
  | None -> Alcotest.fail "expected a status"

let test_ilp_warm_start_used () =
  (* Warm start matching the optimum: solver must return it (or better). *)
  let p =
    {
      Lp.Ilp.minimize = [| 2.; 3. |];
      rows = [ ([| 1.; 1. |], Lp.Simplex.Ge, 1.) ];
    }
  in
  match Lp.Ilp.solve ~warm_start:[| 1; 0 |] p with
  | Some s -> Alcotest.(check (float 1e-9)) "warm obj" 2.0 s.Lp.Ilp.objective
  | None -> Alcotest.fail "no solution"

let test_ilp_node_budget () =
  (* Three disjoint 5-cycle covers: each has LP optimum 2.5 at x = 0.5
     and integral optimum 3, so the tree branches on every cycle. A budget
     of [k] nodes must explore exactly [k] and return the warm-start
     incumbent. *)
  let cycles = 3 and len = 5 in
  let n = cycles * len in
  let p =
    {
      Lp.Ilp.minimize = Array.make n 1.0;
      rows =
        List.init n (fun v ->
            let row = Array.make n 0.0 in
            row.(v) <- 1.0;
            row.((v / len * len) + ((v + 1) mod len)) <- 1.0;
            (row, Lp.Simplex.Ge, 1.0));
    }
  in
  let warm_start = Array.make n 1 in
  let k = 5 in
  (match Lp.Ilp.solve ~warm_start p with
  | Some s ->
    Alcotest.(check (float 1e-9)) "optimum" 9.0 s.Lp.Ilp.objective;
    Alcotest.(check bool) "the full search needs more than k nodes" true (s.Lp.Ilp.nodes_explored > k)
  | None -> Alcotest.fail "no solution");
  match Lp.Ilp.solve ~max_nodes:k ~warm_start p with
  | Some s ->
    Alcotest.(check bool) "budget hit" true (s.Lp.Ilp.status = Lp.Ilp.TimeLimit);
    Alcotest.(check int) "nodes explored" k s.Lp.Ilp.nodes_explored;
    Alcotest.(check bool) "not the time limit" false s.Lp.Ilp.time_limit_hit
  | None -> Alcotest.fail "no solution"

let test_exhaustive_matches_known () =
  let p =
    {
      Lp.Ilp.minimize = [| 1.; 1.; 1. |];
      rows =
        [ ([| 1.; 1.; 0. |], Lp.Simplex.Ge, 1.); ([| 0.; 1.; 1. |], Lp.Simplex.Ge, 1.);
          ([| 1.; 0.; 1. |], Lp.Simplex.Ge, 1.) ];
    }
  in
  match Lp.Exhaustive.solve p with
  | Some (_, obj) -> Alcotest.(check (float 1e-9)) "exhaustive" 2.0 obj
  | None -> Alcotest.fail "exhaustive found nothing"

(* Random covering+dependency instances shaped like the orchestration BLP:
   n variables, covering rows over random subsets, dependency rows
   (sum of publishers - u_k >= 0) and the orchestrator's no-good cuts
   (sum over S of u_k <= |S| - 1). Fixing variables to 1 moves their
   coefficients into the right-hand sides: a dependency row's turns
   negative, which the simplex normalizes by negating the row, and a cut
   whose members are all fixed becomes the infeasible row 0 = 1. *)
let random_instance =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* n_cover = int_range 1 4 in
  let* n_dep = int_range 0 4 in
  let* costs = list_size (return n) (float_range 0.5 10.0) in
  let subset = list_size (return n) (int_range 0 1) in
  let* covers = list_size (return n_cover) subset in
  let* deps = list_size (return n_dep) (pair subset (int_range 0 (n - 1))) in
  let* cuts = list_size (int_range 0 2) subset in
  let rows =
    List.map
      (fun s ->
        let row = Array.of_list (List.map float_of_int s) in
        (row, Lp.Simplex.Ge, 1.0))
      covers
    @ List.map
        (fun (s, k) ->
          let row = Array.of_list (List.map float_of_int s) in
          row.(k) <- row.(k) -. 1.0;
          (row, Lp.Simplex.Ge, 0.0))
        deps
    @ List.filter_map
        (fun s ->
          let size = List.fold_left ( + ) 0 s in
          if size = 0 then None
          else
            Some (Array.of_list (List.map float_of_int s), Lp.Simplex.Le, float_of_int (size - 1)))
        cuts
  in
  return { Lp.Ilp.minimize = Array.of_list costs; rows }

(* Both row pools: every row from the start, and the lazy dependency rows
   the orchestrator always asks for. *)
let prop_ilp_matches_exhaustive =
  QCheck2.Test.make ~name:"branch-and-bound matches exhaustive" ~count:150 random_instance
    (fun p ->
      let ex = Lp.Exhaustive.solve p in
      List.for_all
        (fun lazy_dependencies ->
          match (Lp.Ilp.solve ~time_limit_s:10.0 ~lazy_dependencies p, ex) with
          | Some s, Some (_, obj) when s.Lp.Ilp.status = Lp.Ilp.Optimal ->
            Float.abs (s.Lp.Ilp.objective -. obj) <= 1e-6
          | Some s, None -> s.Lp.Ilp.status = Lp.Ilp.Infeasible
          | Some _, Some _ -> false (* timed out on a tiny instance *)
          | None, _ -> false)
        [ false; true ])

let prop_lp_lower_bounds_ilp =
  QCheck2.Test.make ~name:"LP relaxation lower-bounds the ILP" ~count:100 random_instance
    (fun p ->
      match (Lp.Simplex.solve { Lp.Simplex.minimize = p.Lp.Ilp.minimize; rows = p.Lp.Ilp.rows },
             Lp.Exhaustive.solve p)
      with
      | Lp.Simplex.Optimal lp, Some (_, ilp) -> lp.Lp.Simplex.objective <= ilp +. 1e-6
      | Lp.Simplex.Infeasible, None -> true
      | Lp.Simplex.Infeasible, Some _ -> false
      | _, None -> true
      | Lp.Simplex.Unbounded, _ -> false)

(* Near-degenerate variants of the covering instances: every row is
   duplicated, and the duplicate's nonzero coefficients carry ±1e-15
   dust — strictly below every named tolerance in the solver. Exercises
   the dust-skip pivot guards in {!Lp.Simplex} and the shared
   feasibility epsilons in {!Lp.Ilp}: branch-and-bound must still agree
   with the exhaustive oracle on the same perturbed instance. *)
let near_degenerate_instance =
  let open QCheck2.Gen in
  let* p = random_instance in
  let* noises = list_size (return (List.length p.Lp.Ilp.rows)) (int_range (-1) 1) in
  let rows =
    List.concat
      (List.map2
         (fun (row, rel, b) noise ->
           let dusted =
             Array.map
               (fun c -> if c <> 0.0 then c +. (float_of_int noise *. 1e-15) else c)
               row
           in
           [ (row, rel, b); (dusted, rel, b) ])
         p.Lp.Ilp.rows noises)
  in
  return { p with Lp.Ilp.rows = rows }

let prop_near_degenerate_matches_exhaustive =
  QCheck2.Test.make ~name:"near-degenerate pivots match exhaustive" ~count:150
    near_degenerate_instance (fun p ->
      match (Lp.Ilp.solve ~time_limit_s:10.0 p, Lp.Exhaustive.solve p) with
      | Some s, Some (_, obj) when s.Lp.Ilp.status = Lp.Ilp.Optimal ->
        Float.abs (s.Lp.Ilp.objective -. obj) <= 1e-6
      | Some s, None -> s.Lp.Ilp.status = Lp.Ilp.Infeasible
      | Some _, Some _ -> false
      | None, _ -> false)

let prop_solution_is_feasible =
  QCheck2.Test.make ~name:"returned assignments satisfy all rows" ~count:150 random_instance
    (fun p ->
      match Lp.Ilp.solve p with
      | Some s when s.Lp.Ilp.status <> Lp.Ilp.Infeasible -> Lp.Ilp.is_feasible_binary p s.Lp.Ilp.x
      | _ -> true)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [ Alcotest.test_case "basic" `Quick test_simplex_basic;
          Alcotest.test_case "le rows" `Quick test_simplex_le_rows;
          Alcotest.test_case "eq row" `Quick test_simplex_eq;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "fractional cover" `Quick test_simplex_fractional_cover;
          Alcotest.test_case "dust coefficients" `Quick test_simplex_dust_coefficients ] );
      ( "ilp",
        [ Alcotest.test_case "odd cycle" `Quick test_ilp_odd_cycle;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "warm start" `Quick test_ilp_warm_start_used;
          Alcotest.test_case "node budget" `Quick test_ilp_node_budget;
          Alcotest.test_case "exhaustive known" `Quick test_exhaustive_matches_known ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ilp_matches_exhaustive; prop_lp_lower_bounds_ilp; prop_solution_is_feasible;
            prop_near_degenerate_matches_exhaustive ]
      );
    ]
