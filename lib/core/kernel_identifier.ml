(** The kernel identifier (Algorithm 1).

    Enumerates all execution states, takes pairwise differences to obtain
    every convex subgraph (Theorem 1), enumerates possible output sets
    (Definition 3), and profiles each candidate. Candidates the profiler
    rejects — too many primitives, multiple linear primitives, opaque
    companions — are discarded, mirroring §6.5's observation that simple
    heuristics reject most of the quadratic candidate space. *)

open Ir

(** Guard for {!Exec_state.enumerate_bounded}. *)
let max_states = 200_000

(** Enumerate all output subsets when the kernel boundary has at most
    this many nodes; otherwise only the full boundary set is used. *)
let max_boundary_enum = 2

let kernel_cap ~max_tvm_prims = Int.max max_tvm_prims (1 + Gpu.Profiler.max_vendor_companions)

type stats = {
  states : int;
  states_truncated : bool;
      (** enumeration stopped at [max_states]: the candidate set below is
          valid but incomplete, and callers should surface the truncation *)
  distinct_subgraphs : int;
  profiled : int;  (** candidate (subgraph, output-set) pairs profiled *)
  accepted : int;
  rejected : int;
  profile_failures : int;
      (** profiler calls that {e raised} (injected faults / crashed
          measurements), counted within [rejected] — per-candidate
          measurement failure is routine, not fatal *)
}

let empty_stats =
  {
    states = 0;
    states_truncated = false;
    distinct_subgraphs = 0;
    profiled = 0;
    accepted = 0;
    rejected = 0;
    profile_failures = 0;
  }

let nonempty_subsets (l : int list) : int list list =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
      let subs = go rest in
      subs @ List.map (fun s -> x :: s) subs
  in
  List.filter (fun s -> s <> []) (go l)

(* Enumeration census across every segment of every run. *)
let m_states = Obs.Metrics.counter "identifier.states"
let m_truncated = Obs.Metrics.counter "identifier.states_truncated"
let m_accepted = Obs.Metrics.counter "identifier.candidates_accepted"

(** [identify ~max_tvm_prims ~spec ~precision ~cache g] — all accepted
    candidate kernels of [g], plus enumeration statistics. *)
let identify ~max_tvm_prims ~(spec : Gpu.Spec.t) ~(precision : Gpu.Precision.t)
    ~(cache : Gpu.Profile_cache.t) (g : Primgraph.t) : Candidate.t array * stats =
  Obs.Span.with_ ~name:"identify" ~args:[ ("nodes", Obs.Jsonw.Int (Graph.length g)) ]
  @@ fun () ->
  let states, states_truncated = Exec_state.enumerate_bounded g ~max_states in
  let n_states = List.length states in
  (* Execution states hold every source node, so a state difference holds
     only executable primitives and its cardinality is the kernel's
     primitive count. Nothing larger than the profiler's biggest
     acceptable kernel (a generated one, or a vendor primitive with its
     companions) is worth keeping. *)
  let max_prims = kernel_cap ~max_tvm_prims in
  (* Distinct convex subgraphs from pairwise differences. *)
  let subgraphs = Bitset.Table.create 256 in
  List.iter
    (fun d1 ->
      List.iter
        (fun d2 ->
          if (not (Bitset.equal d1 d2)) && Bitset.subset d1 d2 then begin
            let p' = Bitset.diff d2 d1 in
            let size = Bitset.cardinal p' in
            if size > 0 && size <= max_prims then
              if not (Bitset.Table.mem subgraphs p') then
                Bitset.Table.replace subgraphs p' ()
          end)
        states)
    states;
  let facts = Gpu.Profiler.facts g in
  let profiled = ref 0 and accepted = ref [] and rejected = ref 0 in
  let profile_failures = ref 0 in
  Bitset.Table.iter
    (fun members () ->
      let boundary = Graph.boundary_outputs ~succs:facts.Gpu.Profiler.succs g members in
      let ext_inputs = Graph.external_inputs g members in
      let output_sets =
        if List.length boundary <= max_boundary_enum then begin
          (* Graph outputs inside the kernel must always be publishable by
             someone, but a candidate may legally publish any non-empty
             boundary subset (Definition 3). *)
          nonempty_subsets boundary
        end
        else [ boundary ]
      in
      List.iter
        (fun outputs ->
          incr profiled;
          match
            Gpu.Profile_cache.profile ~facts ~ext_inputs cache ~max_tvm_prims ~spec ~precision g
              members ~outputs
          with
          | Some r ->
            let c =
              Candidate.
                {
                  members;
                  outputs;
                  ext_inputs;
                  latency_us = r.Gpu.Profiler.latency_us;
                  backend = r.Gpu.Profiler.backend;
                }
            in
            accepted := c :: !accepted
          | None -> incr rejected
          | exception Faults.Injected _ ->
            (* A measurement failed mid-tuning. TVM-style tuners treat this
               as routine — log the candidate as rejected and keep going. *)
            incr rejected;
            incr profile_failures)
        output_sets)
    subgraphs;
  let candidates = Array.of_list (List.rev !accepted) in
  Obs.Metrics.add m_states n_states;
  if states_truncated then Obs.Metrics.incr m_truncated;
  Obs.Metrics.add m_accepted (Array.length candidates);
  ( candidates,
    {
      states = n_states;
      states_truncated;
      distinct_subgraphs = Bitset.Table.length subgraphs;
      profiled = !profiled;
      accepted = Array.length candidates;
      rejected = !rejected;
      profile_failures = !profile_failures;
    } )
