(* bench_gate — the bench-regression gate CI runs.

   Compares a freshly produced bench document (schema korch-bench/1, from
   `bench/main.exe --bench-json`) against a committed baseline and exits
   nonzero when any entry's plan latency regressed beyond the latency
   tolerance, any entry's planned peak memory regressed beyond the memory
   tolerance, or when an entry present in the baseline is missing from
   the current run. Improvements and new entries are reported but never
   fail the gate; refreshing the baseline is an explicit `--update` run.

   A baseline entry without the (newer) "peak_mem_bytes" field skips the
   memory check for that entry with a note telling the operator how to
   refresh — an old-but-valid baseline must not turn into a bare failure.
   The document schema is declared once, in Korch.Report.bench_codec,
   which the bench harness writes with; members it does not declare are
   ignored, and unknown top-level blocks are noted.

   Exit codes: 0 OK, 1 regression or missing entry, 2 usage/parse error. *)

open Cmdliner

let refresh_hint path =
  Printf.sprintf
    "regenerate it with `dune exec bench/main.exe -- --only smoke --bench-json %s` and commit \
     the result"
    path

let read_file path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf
      "bench_gate: baseline/current file %s does not exist.\n\
       If this is the committed baseline, %s.\n"
      path (refresh_hint path);
    exit 2
  end;
  let ic = open_in path in
  let len = in_channel_length ic in
  let doc = really_input_string ic len in
  close_in ic;
  doc

let parse_doc path =
  match Onnx.Json.of_string (read_file path) with
  | j -> j
  | exception Onnx.Json.Parse_error (msg, off) ->
    Printf.eprintf "bench_gate: %s: parse error at byte %d: %s\n" path off msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "bench_gate: %s\n" msg;
    exit 2

let entries_of path (j : Onnx.Json.t) : Korch.Report.bench_entry list =
  let entries =
    match Onnx.Codec.decode Korch.Report.bench_codec j with
    | Ok l -> l
    | Error m ->
      Printf.eprintf "bench_gate: %s: %s\n" path m;
      exit 2
  in
  (* Forward compatibility: a korch-bench/1 document may grow top-level
     blocks this gate predates (e.g. "serving"). Anything other than the
     two fields the gate consumes is noted and ignored — an enriched
     document must not turn into a bare failure. *)
  (match j with
  | Onnx.Json.Obj fields ->
    List.iter
      (fun (k, _) ->
        if k <> "schema" && k <> "entries" then
          Printf.printf
            "note       %-40s document carries a top-level %S block this gate does not \
             consume — informational, ignored\n"
            path k)
      fields
  | _ -> ());
  entries

(* An entry's identity: experiment + model + gpu + precision. *)
let key (e : Korch.Report.bench_entry) =
  Printf.sprintf "%s/%s/%s/%s" e.Korch.Report.experiment e.Korch.Report.model e.Korch.Report.gpu
    e.Korch.Report.precision

let gate baseline_path current_path tolerance_pct mem_tolerance_pct =
  let baseline = entries_of baseline_path (parse_doc baseline_path) in
  let current = entries_of current_path (parse_doc current_path) in
  let failures = ref 0 in
  List.iter
    (fun b ->
      let k = key b in
      match List.find_opt (fun c -> key c = k) current with
      | None ->
        incr failures;
        Printf.printf "MISSING    %-40s (in baseline, not in current run)\n" k
      | Some c ->
        let delta_pct =
          if b.latency_us = 0.0 then 0.0
          else (c.latency_us -. b.latency_us) /. b.latency_us *. 100.0
        in
        if delta_pct > tolerance_pct then begin
          incr failures;
          Printf.printf "REGRESSION %-40s %.2f us -> %.2f us (%+.2f%% > %+.2f%% tolerance)\n"
            k b.latency_us c.latency_us delta_pct tolerance_pct
        end
        else
          Printf.printf "ok         %-40s %.2f us -> %.2f us (%+.2f%%, %d kernels)\n" k
            b.latency_us c.latency_us delta_pct c.kernels;
        (* Peak-memory gate, when both sides carry the field. *)
        match (b.Korch.Report.peak_mem_bytes, c.Korch.Report.peak_mem_bytes) with
        | Some bm, Some cm ->
          let bm = float_of_int bm and cm = float_of_int cm in
          let mem_delta_pct = if bm = 0.0 then 0.0 else (cm -. bm) /. bm *. 100.0 in
          if mem_delta_pct > mem_tolerance_pct then begin
            incr failures;
            Printf.printf
              "REGRESSION %-40s peak mem %.0f B -> %.0f B (%+.2f%% > %+.2f%% tolerance)\n"
              k bm cm mem_delta_pct mem_tolerance_pct
          end
          else
            Printf.printf "ok         %-40s peak mem %.0f B -> %.0f B (%+.2f%%)\n" k bm cm
              mem_delta_pct
        | None, _ ->
          Printf.printf
            "note       %-40s baseline lacks \"peak_mem_bytes\" — memory gate skipped; %s\n"
            k (refresh_hint baseline_path)
        | Some _, None ->
          Printf.printf
            "note       %-40s current run lacks \"peak_mem_bytes\" — memory gate skipped \
             (bench harness predates the memory planner?)\n"
            k)
    baseline;
  List.iter
    (fun c ->
      if not (List.exists (fun b -> key b = key c) baseline) then
        Printf.printf "new        %-40s %.2f us (not in baseline — commit a refresh)\n" (key c)
          c.latency_us)
    current;
  if !failures > 0 then begin
    Printf.printf "bench gate: FAILED (%d regression(s)/missing entrie(s))\n" !failures;
    exit 1
  end
  else print_endline "bench gate: OK"

let () =
  (* [string], not [file]: a missing baseline must produce the actionable
     refresh hint above, not cmdliner's bare "no such file" usage error. *)
  let baseline =
    Arg.(required & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Committed korch-bench/1 baseline document.")
  in
  let current =
    Arg.(required & opt (some string) None & info [ "current" ] ~docv:"FILE"
           ~doc:"Freshly produced korch-bench/1 document to gate.")
  in
  let tolerance =
    Arg.(value & opt float 2.0 & info [ "tolerance" ] ~docv:"PCT"
           ~doc:"Allowed plan-latency increase per entry, in percent.")
  in
  let mem_tolerance =
    Arg.(value & opt float 5.0 & info [ "mem-tolerance" ] ~docv:"PCT"
           ~doc:"Allowed planned peak-memory increase per entry, in percent.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench_gate" ~doc:"Fail when a bench run regresses against its baseline")
      Term.(const gate $ baseline $ current $ tolerance $ mem_tolerance)
  in
  exit (Cmd.eval cmd)
