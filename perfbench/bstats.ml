(* Summary statistics for the benchmark's latency samples. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median with the two middle samples averaged on an even count; 0 on no
   samples. *)
let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. *)
let percentile (xs : float list) (q : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank [q] percentile of [n] samples. *)
let beyond ~n q = n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let tail_quantiles = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The tail a sample supports: the highest of [tail_quantiles] with at
   least 10 samples beyond it, so a single outlier never is the tail. With
   fewer than 20 samples no quantile qualifies and the maximum is
   reported, as quantile 1. Returns [(q, value)]. *)
let tail (xs : float list) : float * float =
  let n = List.length xs in
  match List.find_opt (fun q -> beyond ~n q >= 10) tail_quantiles with
  | Some q -> (q, percentile xs q)
  | None -> (1.0, List.fold_left Float.max 0.0 xs)

let quantile_label q =
  if q >= 1.0 then "max"
  else Printf.sprintf "p%g" (q *. 100.0)

let sum = List.fold_left ( +. ) 0.0

(* Metric names: what the benchmark's JSON and BENCHMARK.json accept. *)
let valid_name (s : string) : bool =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s > 0 && String.length s <= 64 && alnum s.[0] && String.for_all ok_char s
