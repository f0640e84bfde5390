(* Zoo lint runner, driven by the dune [@analyze] alias (a dependency of
   [@runtest]). Runs the abstract-interpretation analyses end to end on
   the executable zoo models — value ranges and dead code on each
   fissioned primitive graph, then the orchestrator's memory-planner
   hazard cross-check of its plan — writes every finding to a JSON
   artifact (one korch-lint/1 document per model), and fails the build
   if any model produces an error or the cross-check did not run. *)

let models = [ "candy"; "yolox"; "yolov4"; "segformer" ]

let () =
  let out = ref "" in
  let verbose = ref false in
  let spec =
    [
      ("-o", Arg.Set_string out, "FILE write the findings JSON document to FILE");
      ("-v", Arg.Set verbose, " print every finding, not just errors and warnings");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "analyze_zoo [options]";
  let failed = ref false in
  let docs =
    List.map
      (fun name ->
        let entry =
          match Models.Registry.find name with
          | Some e -> e
          | None ->
            Printf.eprintf "analyze: unknown zoo model %S\n" name;
            exit 2
        in
        let g =
          Fission.Canonicalize.fold_batch_norms (entry.Models.Registry.build_small ~batch:1 ())
        in
        let pg, _ = Fission.Engine.run g in
        (* Orchestrate under check_invariants (the default): the
           orchestrator runs the memory-planner hazard cross-check on the
           stitched plan and records its findings, which the artifact
           carries. A cross-check that did not run fails the gate. *)
        let cfg =
          { Korch.Orchestrator.default_config with
            Korch.Orchestrator.partition_max_prims = 12 }
        in
        let r = Korch.Orchestrator.run_primgraph cfg pg in
        let hazard =
          match r.Korch.Orchestrator.analysis with
          | Korch.Orchestrator.Analysis_checked rep -> rep
          | o ->
            [ Verify.Diagnostics.error ~pass:Analysis.Hazard.pass ~loc:Verify.Diagnostics.Whole
                "hazard cross-check did not run (%s)"
                (Korch.Orchestrator.analysis_outcome_to_string o) ]
        in
        let report = Analysis.graph_report pg @ hazard in
        let e, w, i = Verify.Diagnostics.count_severity report in
        Printf.printf "%-10s %d error(s), %d warning(s), %d info\n" name e w i;
        List.iter
          (fun (d : Verify.Diagnostics.diag) ->
            if !verbose || d.Verify.Diagnostics.severity <> Verify.Diagnostics.Info then
              Format.printf "  %a@." Verify.Diagnostics.pp_diag d)
          report;
        if Verify.Diagnostics.has_errors report then failed := true;
        ( name,
          Analysis.Lint.to_json
            ~meta:[ ("source", Obs.Jsonw.Str name); ("variant", Obs.Jsonw.Str "small") ]
            report ))
      models
  in
  if !out <> "" then begin
    let doc =
      Obs.Jsonw.Obj
        [ ("schema", Obs.Jsonw.Str "korch-lint-suite/1"); ("models", Obs.Jsonw.Obj docs) ]
    in
    let oc = open_out !out in
    output_string oc (Obs.Jsonw.to_string doc);
    close_out oc;
    Printf.printf "wrote findings document to %s\n" !out
  end;
  if !failed then begin
    print_endline "analyze: FAILED (error findings)";
    exit 1
  end
  else print_endline "analyze: OK"
