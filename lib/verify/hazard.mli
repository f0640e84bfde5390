(** Alias & hazard analysis: independently recomputes every tensor
    lifetime from the executor's step stream and audits the memory
    planner's arena-slot assignment against it — slot tenants must have
    strictly disjoint live ranges (same-step read/write rejected), fit
    their slot's capacity, and appear in the death schedule. A second
    implementation cross-checking {!Runtime.Memplan}, the way the rule
    linter differentially tests rewrite rules. *)

open Ir
open Tensor
open Runtime

(** An independently recomputed live range, in executor steps. *)
type interval = {
  key : Memplan.key;
  shape : Shape.t;
  bytes : int;
  first : int;  (** first defining evaluation step *)
  last : int;  (** last reading step; the end sentinel for graph outputs *)
}

(** [lifetimes ?bytes_per_element g plan] — the recomputed live range of
    every tensor instance [plan] materializes, sorted by (first, key). *)
val lifetimes : ?bytes_per_element:int -> Primgraph.t -> Plan.t -> interval list

(** Pass name used in findings (["hazard"]). *)
val pass : string

(** [check ?bytes_per_element g plan mp] audits [mp] against the
    recomputed lifetimes. Every problem is an [Error]: lifetime or size
    disagreements with the planner, lost or invented instances,
    out-of-range or overflowing slots, aliasing tenants, same-step
    read/write hazards, death-schedule omissions. Never raises. *)
val check :
  ?bytes_per_element:int -> Primgraph.t -> Plan.t -> Memplan.t -> Diagnostics.report
