(* Command-line converters shared by korch_cli and korch_serve. *)

open Cmdliner

let spec_conv =
  let parse s =
    match Gpu.Spec.by_name s with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown GPU %S (p100|v100|a100|h100)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.Gpu.Spec.name)

let precision_conv =
  let parse s =
    match Gpu.Precision.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown precision %S (fp32|tf32|fp16)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Gpu.Precision.to_string p))

let inject_conv =
  let parse s =
    match Faults.parse_rule s with Ok r -> Ok r | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf (site, spec) ->
        Format.fprintf ppf "%s:%s" (Faults.site_to_string site) (Faults.spec_to_string spec) )
