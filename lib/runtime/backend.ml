(** Executor backend selection (see the interface for the contract).

    The native implementation lives in [lib/codegen], which sits above
    [lib/runtime] in the library stack; it registers itself here through
    {!register_native} from a module initializer (the codegen library is
    linked with [-linkall] so merely depending on it installs the hook).
    Keeping the hook in this module lets {!Executor.run} dispatch without
    a dependency cycle. *)

open Ir
open Tensor

type t = Interp | Native

let to_string = function Interp -> "interp" | Native -> "native"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Some Interp
  | "native" | "c" -> Some Native
  | _ -> None

let env_var = "KORCH_BACKEND"

let warned_env = ref false

(* Read once per process: the suite-wide switch (CI runs the whole test
   suite a second time under KORCH_BACKEND=native) must not flip
   mid-process. *)
let env_default =
  lazy
    (match Sys.getenv_opt env_var with
    | None | Some "" -> Interp
    | Some s -> begin
      match of_string s with
      | Some b -> b
      | None ->
        if not !warned_env then begin
          warned_env := true;
          Printf.eprintf "korch: ignoring %s=%S (expected interp|native)\n%!" env_var s
        end;
        Interp
    end)

let default () = Lazy.force env_default

type exec_stats = {
  mutable native_kernels : int;
  mutable interp_kernels : int;
  mutable fallbacks : (int * string) list;
  mutable kernel_times_us : (int * float) list;
}

let fresh_exec_stats () =
  { native_kernels = 0; interp_kernels = 0; fallbacks = []; kernel_times_us = [] }

type native_kernel = {
  ext_ids : int array;
  out_ids : int array;
  call : Nd.t array -> Nd.t array * float;
}

type native_impl = Primgraph.t -> Plan.t -> unit -> (native_kernel, string) result list

let impl : native_impl option ref = ref None

let register_native f = impl := Some f

let native_impl () = !impl
