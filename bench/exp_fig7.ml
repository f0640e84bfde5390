(* Figure 7: adaptation study of operator fission over TensorRT (§6.3).

   Instead of Korch's ILP orchestration, the post-fission primitive graph
   is handed to a TensorRT-style greedy orchestrator (pointwise chains
   fuse, linear primitives absorb a few layout/elementwise companions,
   everything else runs alone). The speedup over TensorRT on the operator
   graph isolates the benefit of fission itself. *)

open Ir

(* Greedy rule-based kernel formation directly on a primitive graph,
   mirroring what a framework does when handed the fissioned graph:
   injective primitives (elementwise / broadcast / layout) chain greedily,
   a reduction absorbs its injective producers and then keeps absorbing a
   short injective tail, a linear primitive takes a small epilogue, and
   groups are capped at the generated-kernel size limit. Greedy and
   rule-based — no ILP, no redundancy. *)
let greedy_prim_plan ~spec ~precision (g : Primgraph.t) : Runtime.Plan.t =
  let max_tvm_prims = Gpu.Profiler.max_tvm_prims in
  let succs = Graph.succs g in
  let n = Graph.length g in
  let group_of = Hashtbl.create 64 in
  let groups : (int, int list * bool * bool) Hashtbl.t = Hashtbl.create 64 in
  (* gid -> members, has_linear, has_reduce *)
  let next = ref 0 in
  List.iter
    (fun id ->
      let op = Graph.op g id in
      if not (Primitive.is_source op) then begin
        let cat = Primitive.category op in
        let preds =
          List.filter (fun p -> not (Primitive.is_source (Graph.op g p))) (Graph.preds g id)
        in
        let attach =
          match preds with
          | [ p ] when succs.(p) = [ id ] && not (List.mem p g.Graph.outputs) -> begin
            match Hashtbl.find_opt group_of p with
            | Some gid ->
              let members, has_linear, has_reduce = Hashtbl.find groups gid in
              let size = List.length members in
              let ok =
                match cat with
                | Primitive.Elementwise | Broadcasting | Layout ->
                  (not has_linear || size < 4) && size < max_tvm_prims
                | Reduction -> (not has_reduce) && (not has_linear) && size < 8
                | Linear | Unknown | Source -> false
              in
              if ok then Some (gid, members, has_linear, has_reduce) else None
            | None -> None
          end
          | _ -> None
        in
        match attach with
        | Some (gid, members, has_linear, has_reduce) ->
          Hashtbl.replace groups gid
            (id :: members, has_linear, has_reduce || cat = Primitive.Reduction);
          Hashtbl.replace group_of id gid
        | None ->
          let gid = !next in
          incr next;
          Hashtbl.replace groups gid
            ([ id ], cat = Primitive.Linear, cat = Primitive.Reduction);
          Hashtbl.replace group_of id gid
      end)
    (Graph.topo_order g);
  (* Post-pass: a small group whose members feed exactly one other group
     merges into it when the union stays inside the generated-kernel
     envelope — the "pointwise stitching" engines apply after their main
     fusion pass. *)
  let try_merge () =
    let merged = ref false in
    let gids = Hashtbl.fold (fun gid _ acc -> gid :: acc) groups [] in
    List.iter
      (fun gid ->
        if Hashtbl.mem groups gid then begin
          let members, sl, sr = Hashtbl.find groups gid in
          if List.length members <= 2 then begin
            let consumer_groups =
              List.concat_map
                (fun id ->
                  List.filter_map
                    (fun s ->
                      match Hashtbl.find_opt group_of s with
                      | Some g' when g' <> gid -> Some g'
                      | _ -> None)
                    succs.(id))
                members
              |> List.sort_uniq compare
            in
            let escapes_graph = List.exists (fun id -> List.mem id g.Graph.outputs) members in
            match consumer_groups with
            | [ target ] when (not escapes_graph) && Hashtbl.mem groups target ->
              let tm, tl, tr = Hashtbl.find groups target in
              let union = members @ tm in
              let mset = Bitset.of_list n union in
              let acceptable =
                List.length union <= max_tvm_prims
                && (not (sl && tl))
                && Graph.is_convex g mset
                && Gpu.Profiler.profile ~max_tvm_prims ~spec ~precision g mset
                     ~outputs:(Graph.boundary_outputs g mset)
                   <> None
              in
              if acceptable then begin
                Hashtbl.replace groups target (union, sl || tl, sr || tr);
                Hashtbl.remove groups gid;
                List.iter (fun id -> Hashtbl.replace group_of id target) members;
                merged := true
              end
            | _ -> ()
          end
        end)
      gids;
    !merged
  in
  let rounds = ref 0 in
  while try_merge () && !rounds < 10 do
    incr rounds
  done;
  let kernels = ref [] in
  let emitted = Hashtbl.create 64 in
  List.iter
    (fun id ->
      if not (Primitive.is_source (Graph.op g id)) then begin
        let gid = Hashtbl.find group_of id in
        if not (Hashtbl.mem emitted gid) then begin
          Hashtbl.replace emitted gid ();
          let members, _, _ = Hashtbl.find groups gid in
          let group = List.rev members in
          let mset = Bitset.of_list n group in
          let outputs = Graph.boundary_outputs g mset in
          let latency_us, backend =
            match Gpu.Profiler.profile ~max_tvm_prims ~spec ~precision g mset ~outputs with
            | Some r ->
              (r.Gpu.Profiler.latency_us, Gpu.Cost_model.backend_to_string r.Gpu.Profiler.backend)
            | None ->
              ( Gpu.Cost_model.latency_us ~spec ~precision
                  ~backend:Gpu.Cost_model.OpaqueExec g
                  (Gpu.Stats.kernel_stats g mset ~outputs),
                "framework" )
          in
          kernels := Runtime.Plan.{ prims = group; outputs; latency_us; backend } :: !kernels
        end
      end)
    (Graph.topo_order g);
  Runtime.Plan.make (List.rev !kernels)

let run () =
  Bench_common.section "Figure 7: operator fission adaptation study over TensorRT (Segformer, V100)";
  let spec, precision = Bench_common.v100_fp32 in
  let g =
    Fission.Canonicalize.fold_batch_norms (Models.Registry.segformer.Models.Registry.build ())
  in
  let env = Baselines.Common.make_env ~spec ~precision g in
  let trt_plan = Baselines.Trt.run env in
  let trt = trt_plan.Runtime.Plan.total_latency_us in
  let pg, _ = Fission.Engine.run g in
  let fission_plan = greedy_prim_plan ~spec ~precision pg in
  let fission_only = fission_plan.Runtime.Plan.total_latency_us in
  Printf.printf "kernel counts: trt=%d fission+greedy=%d\n"
    (Runtime.Plan.kernel_count trt_plan) (Runtime.Plan.kernel_count fission_plan);
  let korch =
    (Bench_common.run_korch Bench_common.v100_fp32 g).Korch.Orchestrator.plan
      .Runtime.Plan.total_latency_us
  in
  Printf.printf "%-38s %10s %9s\n" "configuration" "ms" "speedup";
  Printf.printf "%-38s %10.2f %9s\n" "TensorRT (operator graph)" (trt /. 1000.) "1.00x";
  Printf.printf "%-38s %10.2f %8.2fx\n" "fission + TensorRT-style orchestration"
    (fission_only /. 1000.)
    (Bench_common.speedup trt fission_only);
  Printf.printf "%-38s %10.2f %8.2fx\n" "fission + ILP orchestration (Korch)" (korch /. 1000.)
    (Bench_common.speedup trt korch);
  Printf.printf "shape check: fission alone already beats TensorRT (paper: 1.24x)\n"
