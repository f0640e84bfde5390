(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) under the simulated-GPU substitution documented
   in DESIGN.md. Run all experiments with `dune exec bench/main.exe`, or a
   subset with `-- --only fig6,tab2`. *)

let experiments : (string * string * (unit -> unit)) list =
  [ ("tab1", "primitive taxonomy (Table 1)", Exp_tab1.run);
    ("fig5", "GPU generation trends (Figure 5)", Exp_fig5.run);
    ("fig6", "end-to-end performance (Figure 6)", Exp_fig6.run);
    ("fig7", "fission adaptation study (Figure 7)", Exp_fig7.run);
    ("fig4", "softmax attention orchestration (Figures 2/4)", Exp_fig4.run);
    ("fig10", "EfficientViT case study (Figures 8-10)", Exp_fig10.run);
    ("fig12", "Candy InstanceNorm case study (Figure 12)", Exp_fig12.run);
    ("fig13", "greedy-fusion crossover (Figures 11/13)", Exp_fig13.run);
    ("tab2", "tuning statistics (Table 2)", Exp_tab2.run);
    ("ablation", "design-choice ablations", Exp_ablation.run);
    ("parallel", "multicore segment orchestration speedup", Exp_parallel.run);
    ("native", "interpreter vs native C backend (extension)", Exp_native.run);
    ("decode", "transformer-decode plan tables over batch 1..256 (extension)", Exp_decode.run);
    ("micro", "bechamel microbenchmarks", Microbench.run);
    ("smoke", "exact plan gate workload (candy, segformer, decode)", Exp_smoke.run) ]

let usage () =
  prerr_endline "usage: main.exe [--list] [--only ID,...] [-j N] [--bench-json FILE] [--trace FILE]";
  exit 2

let () =
  let only = ref None in
  let bench_json = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: v :: rest ->
      only := Some (String.split_on_char ',' v);
      parse rest
    | "--list" :: _ ->
      List.iter (fun (id, d, _) -> Printf.printf "%-10s %s\n" id d) experiments;
      exit 0
    | ("-j" | "--jobs") :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> Bench_common.jobs := n
      | _ ->
        Printf.eprintf "-j expects a positive integer, got %s\n" v;
        usage ());
      parse rest
    | "--bench-json" :: v :: rest ->
      bench_json := Some v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      parse rest
    | x :: _ ->
      Printf.eprintf "unknown argument %s\n" x;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match !only with
    | None -> experiments
    | Some ids ->
      List.iter
        (fun id ->
          if not (List.exists (fun (e, _, _) -> e = id) experiments) then begin
            Printf.eprintf "unknown experiment %s (see --list)\n" id;
            usage ()
          end)
        ids;
      List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  Printf.printf "Korch benchmark harness — %d experiment(s)\n" (List.length selected);
  if !trace <> None then Obs.Trace.start ();
  (* Wall clock, not [Sys.time]: CPU time counts every worker domain and
     overstates -j > 1 runs (the same trap that once shrank the BLP
     budget — see DESIGN.md). *)
  List.iter
    (fun (_, _, run) ->
      let t0 = Bench_common.wall_clock () in
      run ();
      Printf.printf "[%.1fs]\n" (Bench_common.wall_clock () -. t0))
    selected;
  (match !trace with
  | Some path ->
    Obs.Trace.stop ();
    let oc = open_out path in
    output_string oc (Obs.Trace.export ());
    close_out oc;
    Printf.printf "wrote trace to %s\n" path
  | None -> ());
  match !bench_json with
  | Some path ->
    let oc = open_out path in
    output_string oc (Bench_common.bench_json ());
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote bench document to %s\n" path
  | None -> ()
