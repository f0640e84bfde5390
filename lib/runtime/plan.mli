(** Orchestration plans — the output of the kernel orchestration optimizer
    and the input of the executable generator (§5.3).

    A plan is an ordered list of kernels; each names the primitives it
    executes (a convex subgraph), the subset it publishes, and the
    latency/backend the profiler assigned. Because Korch allows redundant
    computation (§4.2), a primitive id may appear in several kernels. *)

type kernel = {
  prims : int list;  (** primitive node ids executed inside this kernel *)
  outputs : int list;  (** subset of [prims] whose results are published *)
  latency_us : float;  (** profiled latency, microseconds *)
  backend : string;  (** which backend generated the kernel (tvm/vendor/...) *)
}

type t = {
  kernels : kernel list;  (** in execution (dependency) order *)
  total_latency_us : float;  (** sum of kernel latencies, Eq. (2) *)
}

(** [make kernels] computes the Eq. (2) total. *)
val make : kernel list -> t

(** Number of kernels launched. *)
val kernel_count : t -> int

(** All primitive ids executed, with multiplicity. *)
val executed_prims : t -> int list

(** (total primitive executions) − (distinct primitives): 0 for disjoint
    partitions, positive when Korch exploits redundant computation. *)
val redundancy : t -> int

val pp : Format.formatter -> t -> unit

(** Where a structural plan error sits: a kernel (by 0-based position)
    or a declared graph output (by node id). *)
type location = Kernel of int | Output of int

type error = { loc : location; message : string }

(** ["kernel 3: ..."] / ["output 7: ..."]. *)
val error_to_string : error -> string

(** [check g p] — structural validity of [p] against primitive graph [g],
    the single statement of it every consumer calls ({!Executor.run},
    {!Executor.validate}, the plan cache, the static verifier):

    - every kernel executes at least one primitive, and its ids are in
      range, executable (non-source) and listed once;
    - each kernel's member set is a convex subgraph (Definition 1) with
      [outputs ⊆ prims];
    - every value a kernel consumes is a graph source or was published
      by an earlier kernel (the Eq. 4 dependency constraints);
    - every declared graph output is published by some kernel;
    - latencies are finite and non-negative.

    Returns every error, in kernel order with graph-output errors last;
    [[]] means valid. Never raises. *)
val check : Ir.Primgraph.t -> t -> error list

(** [member_orders g p] — for each kernel of [p], its members, each
    once, in the order {!Ir.Graph.topo_order} lists them. Every member
    id must be in range. *)
val member_orders : Ir.Primgraph.t -> t -> int list array
