(** Executor backend selection.

    The executor runs each kernel of a stitched plan one of two ways:
    through the reference primitive interpreter ({!Prim_interp}), or as a
    compiled native kernel (the C code generator in [lib/codegen]). This
    module names the two backends, reads the process-wide default from
    the [KORCH_BACKEND] environment variable, and holds the plan
    resolver the native implementation installs at link time —
    [lib/codegen] sits above [lib/runtime], so the executor can only
    reach it through this inversion. *)

open Ir
open Tensor

type t =
  | Interp  (** the reference primitive interpreter *)
  | Native  (** C-compiled kernels, per-kernel fallback to the interpreter *)

val to_string : t -> string

(** Accepts ["interp"]/["interpreter"] and ["native"]/["c"],
    case-insensitively. *)
val of_string : string -> t option

(** The environment variable consulted by {!default} ([KORCH_BACKEND]). *)
val env_var : string

(** The process-wide default backend: [KORCH_BACKEND] if set and valid
    (read once, so the choice cannot flip mid-process), else {!Interp}.
    An invalid value warns once on stderr and falls back to {!Interp}. *)
val default : unit -> t

(** Per-run execution accounting for the native backend. Kernel indices
    are 0-based plan positions. [fallbacks] records kernels the native
    backend handed to the interpreter and why (compile failure, injected
    fault, unsupported primitive, failed differential verification);
    [kernel_times_us] records the measured wall-clock of each native
    kernel call. *)
type exec_stats = {
  mutable native_kernels : int;
  mutable interp_kernels : int;
  mutable fallbacks : (int * string) list;
  mutable kernel_times_us : (int * float) list;
}

val fresh_exec_stats : unit -> exec_stats

(** One kernel the native backend resolved to compiled code: the graph
    ids of its external inputs and of its outputs, and the call that
    computes the outputs' values from the inputs' values, in those
    orders, and also returns its own wall-clock in µs. *)
type native_kernel = {
  ext_ids : int array;
  out_ids : int array;
  call : Nd.t array -> Nd.t array * float;
}

(** The hook the native backend registers, in two stages. [impl g plan]
    signs every kernel of a plan that passed {!Plan.check}; {!Executor.run}
    calls it once per plan and keeps the result. Each call of the
    returned function resolves every kernel to compiled code, or gives
    the reason it runs on the interpreter instead — one result per
    kernel, in plan order. {!Executor.run} calls it once per run, before
    the walk, so faults, the kernel cache and verification verdicts are
    consulted on every run. *)
type native_impl = Primgraph.t -> Plan.t -> unit -> (native_kernel, string) result list

(** Called by the codegen library's initializer; last registration wins. *)
val register_native : native_impl -> unit

val native_impl : unit -> native_impl option
