(** Executor backend selection.

    The executor can run a stitched plan two ways: through the reference
    primitive interpreter ({!Prim_interp}), or through compiled native
    kernels (the C code generator in [lib/codegen]). This module names the
    two backends, reads the process-wide default from the [KORCH_BACKEND]
    environment variable, and holds the registration hook the native
    implementation installs at link time — [lib/codegen] sits above
    [lib/runtime], so the executor can only reach it through this
    inversion. *)

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

(** The signature the native backend registers: same contract as
    {!Executor.run} with reuse off. Only {!Executor.run} calls it, on a
    plan that already passed {!Plan.check}. *)
type native_impl =
  stats:exec_stats ->
  Primgraph.t ->
  Plan.t ->
  inputs:(string * Nd.t) list ->
  Nd.t list

(** Called by the codegen library's initializer; last registration wins. *)
val register_native : native_impl -> unit

val native_impl : unit -> native_impl option

(** Is a native implementation linked into this process? *)
val native_available : unit -> bool

(** Warn once on stderr that {!Native} was requested without an
    implementation linked. *)
val warn_native_missing : unit -> unit
