(* Property-based test layer (qcheck):

   - Korch.Kernel_identifier vs a fresh, uncached profile of every
     (subgraph, output set) pair, on test-scale zoo segments and random
     primitive graphs;
   - Korch.Segment_solver vs a brute-force oracle (every candidate subset
     that satisfies Blp_oracle's Eqs. 3–4 and schedules) on random small
     segments, cyclic-dependency instances included, in both redundancy
     modes;
   - Ir.Bitset vs a naive bool-array reference model, including the
     63/64/65-bit word-boundary widths;
   - broadcast/shape algebra and Tensor.View strided views vs the dense
     Ops_layout reference copies;
   - every strided lib/tensor kernel vs the per-element kernels of
     Ref_tensor_ops, bit for bit, and the test-scale zoo plans on the
     interpreter vs those kernels.

   All generators run under the fixed seed below so failures reproduce;
   qcheck prints the shrunk counterexample on failure, and rerunning with
   QCHECK_SEED=<seed> reproduces the exact stream. *)

open Tensor

let qcheck_seed = 0x5EED5

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

(* ------------------------------------------------------------------ *)
(* Bitset vs bool-array reference model.                               *)
(* ------------------------------------------------------------------ *)

(* Widths concentrate on the 63/64/65 word boundaries (one OCaml word
   holds 63 bits), plus the two-word boundary at 126/127. *)
let bitset_case =
  let open QCheck2.Gen in
  let* width = frequency [ (2, int_range 1 130); (3, oneofl [ 63; 64; 65; 126; 127 ]) ] in
  let idx = int_range 0 (width - 1) in
  let* a = list_size (int_range 0 (2 * width)) idx in
  let* b = list_size (int_range 0 (2 * width)) idx in
  return (width, a, b)

let print_bitset_case (width, a, b) =
  Printf.sprintf "width=%d a=[%s] b=[%s]" width
    (String.concat ";" (List.map string_of_int a))
    (String.concat ";" (List.map string_of_int b))

(* The reference model: membership as a bool array. *)
let model width l =
  let m = Array.make width false in
  List.iter (fun i -> m.(i) <- true) l;
  m

let model_elements m =
  List.filter (fun i -> m.(i)) (List.init (Array.length m) Fun.id)

let bitset_matches_model (s : Ir.Bitset.t) (m : bool array) =
  Ir.Bitset.elements s = model_elements m
  && Ir.Bitset.cardinal s = List.length (model_elements m)
  && Array.for_all Fun.id (Array.mapi (fun i v -> Ir.Bitset.mem s i = v) m)
  && Ir.Bitset.is_empty s = Array.for_all not m

let prop_bitset_model =
  QCheck2.Test.make ~name:"Bitset set algebra agrees with the bool-array model" ~count:300
    ~print:print_bitset_case bitset_case (fun (width, la, lb) ->
      let a = Ir.Bitset.of_list width la and b = Ir.Bitset.of_list width lb in
      let ma = model width la and mb = model width lb in
      let zip2 f = Array.init width (fun i -> f ma.(i) mb.(i)) in
      bitset_matches_model a ma && bitset_matches_model b mb
      && bitset_matches_model (Ir.Bitset.union a b) (zip2 ( || ))
      && bitset_matches_model (Ir.Bitset.inter a b) (zip2 ( && ))
      && bitset_matches_model (Ir.Bitset.diff a b) (zip2 (fun x y -> x && not y))
      && Ir.Bitset.subset a b
         = Array.for_all Fun.id (zip2 (fun x y -> (not x) || y))
      && Ir.Bitset.equal a b = (ma = mb)
      && Ir.Bitset.fold (fun i acc -> i :: acc) a [] = List.rev (model_elements ma))

let prop_bitset_persistence =
  QCheck2.Test.make ~name:"Bitset add/remove are persistent" ~count:300
    ~print:print_bitset_case bitset_case (fun (width, la, lb) ->
      let a = Ir.Bitset.of_list width la in
      let before = Ir.Bitset.elements a in
      let i = match lb with x :: _ -> x | [] -> 0 in
      let _grown = Ir.Bitset.add a i and _shrunk = Ir.Bitset.remove a i in
      Ir.Bitset.elements a = before
      && Ir.Bitset.mem (Ir.Bitset.add a i) i
      && not (Ir.Bitset.mem (Ir.Bitset.remove a i) i))

(* The same algebra against sorted duplicate-free lists, on widths 1–200
   (up to four words), with [hash] modelled too: the words a list sets,
   hashed as an int array. The hash fixes [Bitset.Table]'s iteration
   order, and with it the kernel identifier's candidate order. *)
let bitset_wide_case =
  let open QCheck2.Gen in
  let* width = int_range 1 200 in
  let idx = int_range 0 (width - 1) in
  let* a = list_size (int_range 0 (2 * width)) idx in
  let* b = list_size (int_range 0 (2 * width)) idx in
  (* A second spelling of [a], so [equal] and [hash] also see equal sets. *)
  let* a' = shuffle_l a in
  let* b = oneofl [ b; a'; List.filteri (fun i _ -> i mod 2 = 0) a ] in
  return (width, a, b)

let prop_bitset_list_model =
  QCheck2.Test.make ~name:"Bitset agrees with a sorted-list model on widths 1-200, hash included"
    ~count:500 ~print:print_bitset_case bitset_wide_case (fun (width, la, lb) ->
      let a = Ir.Bitset.of_list width la and b = Ir.Bitset.of_list width lb in
      let la = List.sort_uniq compare la and lb = List.sort_uniq compare lb in
      let hash l =
        let words = Array.make ((width + 62) / 63) 0 in
        List.iter (fun i -> words.(i / 63) <- words.(i / 63) lor (1 lsl (i mod 63))) l;
        Hashtbl.hash words
      in
      Ir.Bitset.elements (Ir.Bitset.union a b) = List.sort_uniq compare (la @ lb)
      && Ir.Bitset.elements (Ir.Bitset.inter a b) = List.filter (fun i -> List.mem i lb) la
      && Ir.Bitset.elements (Ir.Bitset.diff a b) = List.filter (fun i -> not (List.mem i lb)) la
      && Ir.Bitset.subset a b = List.for_all (fun i -> List.mem i lb) la
      && Ir.Bitset.subset b a = List.for_all (fun i -> List.mem i la) lb
      && Ir.Bitset.equal a b = (la = lb)
      && Ir.Bitset.hash a = hash la
      && Ir.Bitset.hash b = hash lb)

(* ------------------------------------------------------------------ *)
(* Shape broadcasting and strided views.                               *)
(* ------------------------------------------------------------------ *)

(* A broadcast-compatible pair: both operands are the base shape with a
   random suffix kept and random dimensions squashed to 1. *)
let broadcast_pair =
  let open QCheck2.Gen in
  let* base = array_size (int_range 0 4) (int_range 1 5) in
  let rank = Array.length base in
  let variant =
    let* keep = int_range 0 rank in
    let* squash = list_size (return keep) bool in
    let tail = Array.sub base (rank - keep) keep in
    return (Array.of_list (List.mapi (fun i d -> if List.nth squash i then 1 else d) (Array.to_list tail)))
  in
  let* a = variant and* b = variant in
  return (base, a, b)

let print_shapes (base, a, b) =
  Printf.sprintf "base=%s a=%s b=%s" (Shape.to_string base) (Shape.to_string a)
    (Shape.to_string b)

let prop_broadcast_commutative =
  QCheck2.Test.make ~name:"Shape.broadcast is commutative-compatible" ~count:300
    ~print:print_shapes broadcast_pair (fun (base, a, b) ->
      let ab = Shape.broadcast a b in
      Shape.equal ab (Shape.broadcast b a)
      (* both operands embed in the result, and the result embeds in base *)
      && Shape.equal (Shape.broadcast ab a) ab
      && Shape.equal (Shape.broadcast ab b) ab
      && Shape.equal (Shape.broadcast base ab) base)

let prop_broadcast_scalar_identity =
  QCheck2.Test.make ~name:"broadcasting with a scalar is the identity" ~count:300
    ~print:print_shapes broadcast_pair (fun (_, a, _) ->
      Shape.equal (Shape.broadcast a [||]) a && Shape.equal (Shape.broadcast [||] a) a)

(* ------------------------------------------------------------------ *)
(* Differential fuzzer: native C backend vs the interpreter.           *)
(* ------------------------------------------------------------------ *)

(* Random primitive graphs built from a small template/shape pool (so
   kernel signatures repeat across cases and the compilation cache
   bounds cc invocations), partitioned into random contiguous-interval
   plans, executed on both backends, and compared to <= 1 ULP (bit
   identity is the norm; the allowance covers libm call-site drift).

   The generator emits a list of small-integer steps and derives the
   graph deterministically from it, so qcheck's list shrinking yields a
   minimal failing graph; the property reports the first differing
   kernel of the shrunk case. *)

open Ir

(* One step: (template code, selector a, selector b). Selectors index
   into the current node list / parameter pools modulo their size, so
   every step list is valid by construction. *)
type fuzz_case = { steps : (int * int * int) list; cuts : int list }

let fuzz_unaries =
  [|
    Primitive.Exp; Primitive.Tanh; Primitive.Relu; Primitive.Sigmoid; Primitive.Gelu;
    Primitive.Abs; Primitive.Square; Primitive.Neg; Primitive.AddConst 0.25;
    Primitive.MulConst (-0.75); Primitive.Clip (-1.0, 1.0); Primitive.LeakyRelu 0.1;
    Primitive.Silu; Primitive.Sqrt; Primitive.Log;
  |]

let fuzz_binaries =
  [|
    Primitive.Add; Primitive.Sub; Primitive.Mul; Primitive.Max; Primitive.Min;
    Primitive.Div;
  |]

(* A non-empty interval [[start, stop)] of [[0, d)] derived from [sel]
   (every fuzz-graph dimension is at least 1). *)
let fuzz_interval sel d =
  let start = sel mod d in
  (start, start + 1 + (sel / d mod (d - start)))

(* Build the graph from the step list. Tracks computed (non-source) node
   ids and which of them are consumed, so sinks become graph outputs.
   With [consts], x1 and x2 are seeded constants, a constant 0.5 joins
   the sources and matmul weights are constants, so whole subgraphs fold. *)
let build_fuzz_graph ?(consts = false) (steps : (int * int * int) list) : Primgraph.t =
  let b = Primgraph.B.create () in
  let x0 = Primgraph.B.input b "x0" [| 2; 3 |] in
  let source name shape c =
    if consts then Primgraph.B.const b c else Primgraph.B.input b name shape
  in
  let x1 = source "x1" [| 2; 3 |] (Const.randn_scaled [| 2; 3 |] 1 0.5) in
  let x2 = source "x2" [| 3; 2 |] (Const.randn [| 3; 2 |] 2) in
  let half = if consts then [ Primgraph.B.const b (Const.value [| 2; 3 |] 0.5) ] else [] in
  let nodes = ref (half @ [ x2; x1; x0 ]) in
  let consumed = Hashtbl.create 16 in
  let computed = ref [] in
  let pick sel = List.nth !nodes (sel mod List.length !nodes) in
  let emit op inputs =
    List.iter (fun i -> Hashtbl.replace consumed i ()) inputs;
    let id = Primgraph.B.add b op inputs in
    nodes := id :: !nodes;
    computed := id :: !computed
  in
  List.iter
    (fun (code, a, bsel) ->
      let n1 = pick a in
      let s1 = Primgraph.B.shape_of b n1 in
      let r1 = Shape.rank s1 in
      match code mod 10 with
      | 0 -> emit (Primitive.Unary fuzz_unaries.(bsel mod Array.length fuzz_unaries)) [ n1 ]
      | 1 -> begin
        (* binary on two equal-shaped nodes (n1 paired with the first
           match scanning from bsel; itself if none) *)
        let len = List.length !nodes in
        let rec find k =
          if k = len then n1
          else
            let cand = List.nth !nodes ((bsel + k) mod len) in
            if Shape.equal (Primgraph.B.shape_of b cand) s1 then cand else find (k + 1)
        in
        let n2 = find 0 in
        emit (Primitive.Binary fuzz_binaries.(a mod Array.length fuzz_binaries)) [ n1; n2 ]
      end
      | 2 ->
        if r1 > 0 then emit (Primitive.Reduce (Ops_reduce.Sum, bsel mod r1)) [ n1 ]
        else emit (Primitive.Unary Primitive.Exp) [ n1 ]
      | 3 ->
        if r1 > 0 && bsel mod 2 = 0 then
          emit (Primitive.Reduce (Ops_reduce.Max, bsel mod r1)) [ n1 ]
        else emit (Primitive.Broadcast (bsel mod (r1 + 1), 2)) [ n1 ]
      | 4 ->
        let perm = Array.init r1 (fun i -> (i + 1 + bsel) mod r1) in
        let seen = Array.make r1 false in
        let ok = Array.for_all (fun p -> if seen.(p) then false else (seen.(p) <- true; true)) perm in
        if r1 >= 2 && ok then emit (Primitive.Transpose perm) [ n1 ]
        else emit (Primitive.Unary Primitive.Tanh) [ n1 ]
      | 5 -> emit (Primitive.Reshape [| Shape.numel s1 |]) [ n1 ]
      | 6 ->
        (* matmul against a fresh weight input (keeps shapes compatible
           without searching) *)
        if r1 = 2 then begin
          let k = s1.(1) in
          let w =
            if consts then Primgraph.B.const b (Const.randn_scaled [| k; 2 |] (List.length !nodes) 0.5)
            else Primgraph.B.input b (Printf.sprintf "w%d" (List.length !nodes)) [| k; 2 |]
          in
          nodes := w :: !nodes;
          emit Primitive.Matmul [ n1; w ]
        end
        else emit (Primitive.Unary Primitive.Sigmoid) [ n1 ]
      | 7 ->
        (* concat of a node with a bsel-sized slice of itself along the
           axis: parts of different sizes, and for even bsel the node
           twice, whose duplicate input edges exercise ext/member dedup
           in the emitter *)
        if r1 >= 1 then begin
          let axis = bsel mod r1 in
          let start, stop = fuzz_interval bsel s1.(axis) in
          emit
            (Primitive.Slice
               { starts = Shape.set_axis (Array.make r1 0) axis start;
                 stops = Shape.set_axis s1 axis stop })
            [ n1 ];
          let part = List.hd !nodes in
          emit (Primitive.Concat axis) (if bsel mod 2 = 0 then [ n1; part; n1 ] else [ part; n1 ])
        end
        else emit (Primitive.Unary Primitive.Abs) [ n1 ]
      | 8 ->
        if r1 >= 1 then begin
          let box = Array.mapi (fun i d -> fuzz_interval (bsel + i) d) s1 in
          emit (Primitive.Slice { starts = Array.map fst box; stops = Array.map snd box }) [ n1 ]
        end
        else emit (Primitive.Unary Primitive.Square) [ n1 ]
      | _ ->
        let before = Array.init r1 (fun i -> (bsel + i) mod 3) in
        let after = Array.init r1 (fun i -> (bsel / 3 + (2 * i)) mod 3) in
        emit (Primitive.Pad { before; after; value = 0.5 }) [ n1 ])
    steps;
  (* Outputs: every computed node nobody consumed (ensures the plan must
     publish real results), or the last node when everything is consumed. *)
  let sinks = List.filter (fun id -> not (Hashtbl.mem consumed id)) !computed in
  let outs = match (sinks, !computed) with
    | [], last :: _ -> [ last ]
    | s, _ -> List.rev s
  in
  Primgraph.B.set_outputs b outs;
  Primgraph.B.finish b

(* Partition the non-source nodes (ascending id = topological order;
   every edge goes low id -> high id, and no path re-enters an id
   interval, so contiguous intervals are convex) at the given cut
   points. Each kernel publishes its boundary. *)
let fuzz_plan (g : Primgraph.t) (cuts : int list) : Runtime.Plan.t =
  let prims = Primgraph.non_source_nodes g in
  let n_prims = List.length prims in
  let n = Graph.length g in
  let cutset =
    List.sort_uniq compare
      (List.filter_map
         (fun c -> if n_prims <= 1 then None else Some (1 + (c mod (n_prims - 1))))
         cuts)
  in
  let rec split i acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | id :: rest ->
      if List.mem i cutset && cur <> [] then split (i + 1) (List.rev cur :: acc) [ id ] rest
      else split (i + 1) acc (id :: cur) rest
  in
  let groups = split 0 [] [] prims in
  Runtime.Plan.make
    (List.map
       (fun members ->
         let outputs = Graph.boundary_outputs g (Bitset.of_list n members) in
         { Runtime.Plan.prims = members; outputs; latency_us = 1.0; backend = "fuzz" })
       groups)

let fuzz_inputs (g : Primgraph.t) : (string * Nd.t) list =
  Array.to_list g.Graph.nodes
  |> List.filter_map (fun nd ->
         match nd.Graph.op with
         | Primitive.Input name ->
           let rng = Rng.create (1 + Hashtbl.hash name) in
           Some (name, Nd.create nd.Graph.shape (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
         | _ -> None)

let gen_fuzz_case =
  let open QCheck2.Gen in
  let* steps =
    list_size (int_range 1 8) (triple (int_range 0 9) (int_range 0 30) (int_range 0 30))
  in
  let* cuts = list_size (int_range 0 3) (int_range 0 30) in
  return { steps; cuts }

let print_fuzz_case (c : fuzz_case) =
  let g = build_fuzz_graph c.steps in
  let plan = fuzz_plan g c.cuts in
  Format.asprintf "steps=[%s] cuts=[%s]@.%a@.%a"
    (String.concat "; "
       (List.map (fun (c', a, b) -> Printf.sprintf "(%d,%d,%d)" c' a b) c.steps))
    (String.concat ";" (List.map string_of_int c.cuts))
    Primgraph.pp g Runtime.Plan.pp plan

let prop_native_backend_differential =
  QCheck2.Test.make
    ~name:"native C backend matches the interpreter on random graphs and plans (<= 1 ULP)"
    ~count:500 ~print:print_fuzz_case gen_fuzz_case (fun c ->
      if not (Codegen.Kernel_cache.available ()) then true
      else begin
        let g = build_fuzz_graph c.steps in
        let plan = fuzz_plan g c.cuts in
        (match Runtime.Executor.validate g plan with
        | Ok () -> ()
        | Error m -> QCheck2.Test.fail_reportf "fuzzer built an invalid plan: %s" m);
        let inputs = fuzz_inputs g in
        let expected = Runtime.Executor.run ~backend:Runtime.Backend.Interp g plan ~inputs in
        let es = Runtime.Backend.fresh_exec_stats () in
        let got =
          Runtime.Executor.run ~backend:Runtime.Backend.Native ~exec_stats:es g plan
            ~inputs
        in
        (* Every generated primitive is emitter-supported: a fallback is
           a compile or verify failure, i.e. a codegen bug. *)
        (match es.Runtime.Backend.fallbacks with
        | [] -> ()
        | (ki, reason) :: _ ->
          QCheck2.Test.fail_reportf "kernel %d fell back to the interpreter: %s" (ki + 1)
            reason);
        List.iteri
          (fun oi (e, a) ->
            if not (Shape.equal (Nd.shape e) (Nd.shape a)) then
              QCheck2.Test.fail_reportf "output %d: shape %s vs %s" oi
                (Shape.to_string (Nd.shape a))
                (Shape.to_string (Nd.shape e));
            for k = 0 to Nd.numel e - 1 do
              let u = Codegen.Native.ulp_diff (Nd.get_linear e k) (Nd.get_linear a k) in
              if u > 1 then begin
                (* Identify the first kernel whose published value
                   diverges: the minimal failing kernel of this case. *)
                let bad_node =
                  List.find_opt
                    (fun id -> List.mem id g.Graph.outputs)
                    (List.concat_map
                       (fun (k' : Runtime.Plan.kernel) -> k'.Runtime.Plan.outputs)
                       plan.Runtime.Plan.kernels)
                in
                QCheck2.Test.fail_reportf
                  "output %d element %d: native %h vs interp %h (%d ulp; first published output node %s)"
                  oi k (Nd.get_linear a k) (Nd.get_linear e k) u
                  (match bad_node with Some id -> string_of_int id | None -> "?")
              end
            done)
          (List.combine expected got);
        true
      end)

(* ------------------------------------------------------------------ *)
(* Kernel identification vs a fresh profile of every candidate.        *)
(* ------------------------------------------------------------------ *)

(* The reference profiles every (convex subgraph, output set) pair, with
   no size cut, by a fresh uncached [Gpu.Profiler.profile]. [identify] must
   accept exactly the same candidates with the same external inputs,
   backend and latency bits, and its cache must charge exactly the tuning
   time of the distinct accepted signatures. The graphs share one cache,
   so hits across graphs are exercised too. A cached price equals the
   fresh one only if structurally different kernels never share a
   signature; random graphs have kernels that read one tensor twice next
   to kernels that read two same-shaped tensors, which the signature must
   tell apart. Returns a mismatch description. *)
let identify_matches_reference (graphs : Primgraph.t list) : string option =
  let open Ir in
  let spec = Gpu.Spec.v100 and precision = Gpu.Precision.FP32 in
  let max_tvm_prims = Gpu.Profiler.max_tvm_prims in
  let cache = Gpu.Profile_cache.create () in
  (* Signature -> fresh profile of its first accepted candidate. *)
  let first = Hashtbl.create 256 in
  let check g =
    let got, _ = Korch.Kernel_identifier.identify ~max_tvm_prims ~spec ~precision ~cache g in
    let want = Hashtbl.create 64 in
    let states, _ = Korch.Exec_state.enumerate_bounded g ~max_states:max_int in
    List.iter
      (fun d1 ->
        List.iter
          (fun d2 ->
            if Bitset.subset d1 d2 && not (Bitset.equal d1 d2) then begin
              let members = Bitset.diff d2 d1 in
              let boundary = Graph.boundary_outputs g members in
              List.iter
                (fun outputs ->
                  Gpu.Profiler.profile ~max_tvm_prims ~spec ~precision g members ~outputs
                  |> Option.iter (Hashtbl.replace want (Bitset.elements members, outputs)))
                (if List.length boundary > Korch.Kernel_identifier.max_boundary_enum then
                   [ boundary ]
                 else
                   List.fold_left
                     (fun subs x -> subs @ List.map (fun s -> s @ [ x ]) ([] :: subs))
                     [] boundary)
            end)
          states)
      states;
    if Array.length got <> Hashtbl.length want then
      Some
        (Printf.sprintf "identify accepted %d candidates, the reference %d" (Array.length got)
           (Hashtbl.length want))
    else
      Array.to_list got
      |> List.find_map (fun (c : Korch.Candidate.t) ->
             let members = c.Korch.Candidate.members and outputs = c.Korch.Candidate.outputs in
             match Hashtbl.find_opt want (Bitset.elements members, outputs) with
             | None -> Some (Format.asprintf "the reference rejects %a" Korch.Candidate.pp c)
             | Some r ->
               let sig_ = Gpu.Profiler.signature g members ~outputs ~spec ~precision in
               if not (Hashtbl.mem first sig_) then Hashtbl.replace first sig_ r;
               if
                 c.Korch.Candidate.ext_inputs = Graph.external_inputs g members
                 && c.Korch.Candidate.backend = r.Gpu.Profiler.backend
                 && Int64.equal
                      (Int64.bits_of_float c.Korch.Candidate.latency_us)
                      (Int64.bits_of_float r.Gpu.Profiler.latency_us)
               then None
               else
                 Some
                   (Format.asprintf "%a ext=[%s] %h; the reference prices it %h %s"
                      Korch.Candidate.pp c
                      (String.concat "," (List.map string_of_int c.Korch.Candidate.ext_inputs))
                      c.Korch.Candidate.latency_us r.Gpu.Profiler.latency_us
                      (Gpu.Cost_model.backend_to_string r.Gpu.Profiler.backend)))
  in
  match List.find_map check graphs with
  | Some _ as mismatch -> mismatch
  | None ->
    (* Tuning times are multiples of 0.5 s, so any summation order is exact. *)
    let want = Hashtbl.fold (fun _ r acc -> acc +. r.Gpu.Profiler.tuning_time_s) first 0.0 in
    let got = Gpu.Profile_cache.tuning_time_s cache in
    if got = want then None
    else Some (Printf.sprintf "tuning time %g s, distinct accepted signatures sum to %g s" got want)

let test_identify_zoo_segments () =
  let max_prims = Korch.Orchestrator.default_config.Korch.Orchestrator.partition_max_prims in
  List.iter
    (fun (e : Models.Registry.entry) ->
      let pg = Korch.Orchestrator.fission (e.Models.Registry.build_small ()) in
      let segs = List.map (fun s -> s.Korch.Partition.local) (Korch.Partition.split pg ~max_prims) in
      match identify_matches_reference segs with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" e.Models.Registry.name m)
    Models.Registry.all

let prop_identify_random_graphs =
  QCheck2.Test.make ~name:"identify = fresh profile of every candidate on random graphs"
    ~count:200 ~print:print_fuzz_case gen_fuzz_case (fun c ->
      match identify_matches_reference [ build_fuzz_graph c.steps ] with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* ------------------------------------------------------------------ *)
(* Constant folding by shape vs the eager folder.                      *)
(* ------------------------------------------------------------------ *)

(* The first difference between two graphs: a node's op, inputs or
   shape, a constant payload's bits, or the outputs. A fold ([Apply])
   compares by the bits it evaluates to. *)
let graph_diff (a : Primgraph.t) (b : Primgraph.t) : string option =
  let bits (t : Nd.t) = Array.map Int64.bits_of_float t.Nd.data in
  let payload = function
    | Primitive.Constant ({ Const.fill = Const.Data _ | Const.Apply _; _ } as c) ->
      Some (Runtime.Prim_interp.materialize c)
    | _ -> None
  in
  let same_op (x : Primitive.t) (y : Primitive.t) =
    match (payload x, payload y) with
    | Some p, Some q -> Shape.equal p.Nd.shape q.Nd.shape && bits p = bits q
    | None, None -> x = y
    | _ -> false
  in
  let show (nd : Primitive.t Graph.node) =
    Printf.sprintf "%s%s (%s)" (Primitive.to_string nd.Graph.op) (Shape.to_string nd.Graph.shape)
      (String.concat "," (List.map string_of_int nd.Graph.inputs))
  in
  let node_diff i =
    let x = Graph.node a i and y = Graph.node b i in
    if same_op x.Graph.op y.Graph.op && x.Graph.inputs = y.Graph.inputs
       && Shape.equal x.Graph.shape y.Graph.shape
    then None
    else Some (Printf.sprintf "node %d: %s vs %s" i (show x) (show y))
  in
  if Graph.length a <> Graph.length b then
    Some (Printf.sprintf "%d nodes vs %d" (Graph.length a) (Graph.length b))
  else
    match List.find_map node_diff (List.init (Graph.length a) Fun.id) with
    | Some _ as d -> d
    | None -> if a.Graph.outputs = b.Graph.outputs then None else Some "outputs differ"

let folded_payloads (g : Primgraph.t) =
  Array.fold_left
    (fun n nd ->
      match nd.Graph.op with Primitive.Constant { Const.fill = Const.Data _; _ } -> n + 1 | _ -> n)
    0 g.Graph.nodes

(* [Constfold.fold] and [Optimizer.optimize] against the eager folder and
   the search built on it; adds the payloads the eager side folded to
   [folds]. *)
let constfold_matches_eager ~folds (g : Primgraph.t) : string option =
  let spec = Gpu.Spec.v100 and precision = Gpu.Precision.FP32 in
  let check what got want =
    folds := !folds + folded_payloads want - folded_payloads g;
    Option.map (Printf.sprintf "%s: %s" what) (graph_diff got want)
  in
  match check "Constfold.fold" (Transform.Constfold.fold g) (Eager_constfold.run g) with
  | Some _ as d -> d
  | None ->
    check "Optimizer.optimize"
      (Transform.Optimizer.optimize ~spec ~precision g)
      (Eager_constfold.optimize ~spec ~precision g)

let test_constfold_zoo_segments () =
  let max_prims = Korch.Orchestrator.default_config.Korch.Orchestrator.partition_max_prims in
  let folds = ref 0 in
  List.iter
    (fun (e : Models.Registry.entry) ->
      let pg = Korch.Orchestrator.fission (e.Models.Registry.build_small ()) in
      List.iteri
        (fun i seg ->
          match constfold_matches_eager ~folds seg.Korch.Partition.local with
          | None -> ()
          | Some m -> Alcotest.failf "%s segment %d: %s" e.Models.Registry.name i m)
        (Korch.Partition.split pg ~max_prims))
    Models.Registry.all;
  Alcotest.(check bool) (Printf.sprintf "folds compared (%d)" !folds) true (!folds > 0)

let test_constfold_random_graphs () =
  let folds = ref 0 in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck2.Test.make ~name:"fold by shape = eager fold on random graphs with constants"
       ~count:200 ~print:print_fuzz_case gen_fuzz_case (fun c ->
         match constfold_matches_eager ~folds (build_fuzz_graph ~consts:true c.steps) with
         | None -> true
         | Some m -> QCheck2.Test.fail_report m));
  Alcotest.(check bool) (Printf.sprintf "folds compared (%d)" !folds) true (!folds > 0)

(* ------------------------------------------------------------------ *)
(* Segment solver: the cheapest path vs a brute-force oracle.          *)
(* ------------------------------------------------------------------ *)

(* A random segment: a DAG of [k] executable primitives over one input,
   and a few candidates whose member sets need not be convex, so mutually
   dependent kernels — selections that satisfy Eqs. 3–4 but have no
   deadlock-free order — are common. The full singletons are usually
   present, as the orchestrator guarantees; without them some instances
   have no plan at all. At most 12 candidates keep the 2^m oracle small. *)
type segment_case = {
  preds : int list list;  (** inputs of executable node [i + 1], ids <= i *)
  extra_outputs : bool list;
  kernels : (bool list * bool list * float) list;  (** members, outputs, latency *)
  singletons : float list option;
}

let gen_segment_case =
  let open QCheck2.Gen in
  let* k = int_range 2 5 in
  let* preds = flatten_l (List.init k (fun i -> list_size (int_range 1 2) (int_range 0 i))) in
  let* extra_outputs = list_size (return k) bool in
  let mask = list_size (return k) bool in
  let* kernels = list_size (int_range 1 7) (triple mask mask (float_range 0.5 10.0)) in
  let* singletons = opt ~ratio:0.8 (list_size (return k) (float_range 2.0 12.0)) in
  return { preds; extra_outputs; kernels; singletons }

let build_segment (c : segment_case) : Ir.Primgraph.t * Korch.Candidate.t array =
  let open Ir in
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 4 |] in
  let ids = ref [| x |] in
  List.iter
    (fun inputs ->
      let inputs = List.map (fun i -> !ids.(i)) inputs in
      let op =
        match inputs with
        | [ _ ] -> Primitive.Unary Primitive.Relu
        | _ -> Primitive.Binary Primitive.Add
      in
      ids := Array.append !ids [| Primgraph.B.add b op inputs |])
    c.preds;
  let k = List.length c.preds in
  let node i = !ids.(i + 1) in
  let pick mask = List.filteri (fun i _ -> List.nth mask i) (List.init k node) in
  Primgraph.B.set_outputs b (List.sort_uniq compare (node (k - 1) :: pick c.extra_outputs));
  let g = Primgraph.B.finish b in
  let n = Graph.length g in
  let cand members outputs latency_us =
    let members = Bitset.of_list n members in
    Korch.Candidate.
      { members; outputs; ext_inputs = Graph.external_inputs g members; latency_us;
        backend = Gpu.Cost_model.Tvm }
  in
  let kernels =
    List.map
      (fun (members, outputs, latency) ->
        let members = match pick members with [] -> [ node (k - 1) ] | l -> l in
        let outputs =
          match List.filter (fun o -> List.mem o members) (pick outputs) with
          | [] -> [ List.hd (List.rev members) ]
          | l -> l
        in
        cand members outputs latency)
      c.kernels
  in
  let singletons =
    match c.singletons with
    | None -> []
    | Some costs -> List.mapi (fun i l -> cand [ node i ] [ node i ] l) costs
  in
  (g, Array.of_list (kernels @ singletons))

let print_segment_case (c : segment_case) =
  let g, cands = build_segment c in
  Format.asprintf "%a@.%s" Ir.Primgraph.pp g
    (String.concat "\n"
       (Array.to_list (Array.mapi (fun i cd -> Format.asprintf "%d: %a" i Korch.Candidate.pp cd) cands)))

(* The oracle: every subset of the candidates, kept when it satisfies the
   BLP's rows (Eqs. 3–4, plus disjointness in the ablation) and
   [Scheduler.schedule] orders it. Also returns the BLP optimum without
   the schedule check, to tell cyclic instances apart. *)
let oracle ~disjoint g (cands : Korch.Candidate.t array) =
  let m = Array.length cands in
  let blp = Blp_oracle.build ~disjoint g cands in
  let best_blp = ref None and best = ref None in
  let better r c = match !r with Some b when b <= c -> () | _ -> r := Some c in
  for mask = 0 to (1 lsl m) - 1 do
    let x = Array.init m (fun i -> (mask lsr i) land 1) in
    if Blp_oracle.feasible blp x then begin
      let cost = Blp_oracle.objective blp x in
      better best_blp cost;
      let selected = List.filter (fun i -> x.(i) = 1) (List.init m Fun.id) in
      if Result.is_ok (Korch.Scheduler.schedule g cands ~selected) then better best cost
    end
  done;
  (!best_blp, !best)

(* Replays a returned path: each kernel runs only once its non-source
   inputs are published, never re-executes a primitive in the ablation,
   and the path ends with the outputs published at its stated cost. *)
let path_is_valid ~disjoint g (cands : Korch.Candidate.t array) (s : Korch.Segment_solver.solution) =
  let open Ir in
  let pub = Hashtbl.create 8 and ran = Hashtbl.create 8 in
  let available j = Primitive.is_source (Graph.op g j) || Hashtbl.mem pub j in
  let ok =
    List.for_all
      (fun i ->
        let c = cands.(i) in
        let members = Bitset.elements c.Korch.Candidate.members in
        let ready =
          List.for_all available c.Korch.Candidate.ext_inputs
          && ((not disjoint) || not (List.exists (Hashtbl.mem ran) members))
        in
        List.iter (fun j -> Hashtbl.replace ran j ()) members;
        List.iter (fun j -> Hashtbl.replace pub j ()) c.Korch.Candidate.outputs;
        ready)
      s.Korch.Segment_solver.order
  in
  ok
  && List.for_all available g.Graph.outputs
  && s.Korch.Segment_solver.cost
     = List.fold_left (fun a i -> a +. cands.(i).Korch.Candidate.latency_us) 0.0
         s.Korch.Segment_solver.order

let test_segment_solver_oracle ~disjoint () =
  let cyclic = ref 0 and infeasible = ref 0 in
  let prop =
    QCheck2.Test.make
      ~name:(Printf.sprintf "cheapest path = brute-force schedulable optimum (disjoint=%b)" disjoint)
      ~count:400 ~print:print_segment_case gen_segment_case (fun c ->
        let g, cands = build_segment c in
        let best_blp, best = oracle ~disjoint g cands in
        (match (best_blp, best) with
        | Some b, Some s when b < s -. 1e-9 -> incr cyclic
        | Some _, None -> incr cyclic
        | None, _ -> incr infeasible
        | _ -> ());
        match (Korch.Segment_solver.solve ~disjoint ~budget:1_000_000 g cands, best) with
        | Ok s, Some cost ->
          if not (path_is_valid ~disjoint g cands s) then
            QCheck2.Test.fail_reportf "invalid path [%s]"
              (String.concat ";" (List.map string_of_int s.Korch.Segment_solver.order));
          Float.abs (s.Korch.Segment_solver.cost -. cost) <= 1e-9 *. Float.max 1.0 cost
        | Error (Korch.Segment_solver.Unreachable _), None -> true
        | Ok s, None ->
          QCheck2.Test.fail_reportf "path of cost %g where the oracle has none"
            s.Korch.Segment_solver.cost
        | Error f, _ ->
          QCheck2.Test.fail_reportf "%s; the oracle has %s" (Korch.Segment_solver.failure_to_string f)
            (match best with Some c -> string_of_float c | None -> "no plan"))
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| qcheck_seed |]) prop;
  Alcotest.(check bool)
    (Printf.sprintf "cyclic instances exercised (%d)" !cyclic)
    true (!cyclic > 0);
  Alcotest.(check bool)
    (Printf.sprintf "instances without a plan exercised (%d)" !infeasible)
    true (!infeasible > 0)

(* ------------------------------------------------------------------ *)
(* Segment solver: the indexed search vs the full scan.               *)
(* ------------------------------------------------------------------ *)

(* The library solver drops exact duplicates and scans candidates by what
   they wait for; [Scan_solver] tests every candidate at every settled
   state. They must agree exactly: the same order, the same cost bits,
   the same settled count, the same failure. *)
let same_solve ~disjoint ?(budget = 1_000_000) g cands : string option =
  let show = function
    | Ok (s : Korch.Segment_solver.solution) ->
      Printf.sprintf "[%s] %h settled %d"
        (String.concat ";" (List.map string_of_int s.Korch.Segment_solver.order))
        s.Korch.Segment_solver.cost s.Korch.Segment_solver.settled
    | Error f -> Korch.Segment_solver.failure_to_string f
  in
  let got = show (Korch.Segment_solver.solve ~disjoint ~budget g cands)
  and want = show (Scan_solver.solve ~disjoint ~budget g cands) in
  if got = want then None
  else Some (Printf.sprintf "disjoint=%b: indexed %s, full scan %s" disjoint got want)

let test_solver_matches_scan_on_zoo () =
  let cfg = Korch.Orchestrator.default_config in
  let compared = ref 0 in
  List.iter
    (fun (e : Models.Registry.entry) ->
      let pg = Korch.Orchestrator.fission (e.Models.Registry.build_small ()) in
      let cache = Gpu.Profile_cache.create () in
      List.iteri
        (fun i seg ->
          let r = Korch.Orchestrator.solve_segment cfg ~cache ~seg_index:i seg in
          let g = r.Korch.Orchestrator.transformed and cands = r.Korch.Orchestrator.candidates in
          List.iter
            (fun disjoint ->
              incr compared;
              match same_solve ~disjoint g cands with
              | None -> ()
              | Some m -> Alcotest.failf "%s segment %d: %s" e.Models.Registry.name i m)
            [ false; true ])
        (Korch.Partition.split pg ~max_prims:cfg.Korch.Orchestrator.partition_max_prims))
    Models.Registry.all;
  Alcotest.(check bool) (Printf.sprintf "solves compared (%d)" !compared) true (!compared > 100)

let prop_solver_matches_scan_on_segments =
  QCheck2.Test.make ~name:"random segments: indexed solve = full scan, both modes" ~count:400
    ~print:print_segment_case gen_segment_case (fun c ->
      let g, cands = build_segment c in
      (* Append a copy of every candidate at half, equal or double its
         latency in turn, so the duplicate rule sees later copies that
         are cheaper, tied and dearer. *)
      let cands =
        Array.append cands
          (Array.mapi
             (fun i (cd : Korch.Candidate.t) ->
               { cd with
                 Korch.Candidate.latency_us =
                   cd.Korch.Candidate.latency_us *. [| 0.5; 1.0; 2.0 |].(i mod 3) })
             cands)
      in
      match List.find_map (fun disjoint -> same_solve ~disjoint g cands) [ false; true ] with
      | None -> (
        (* A budget that binds must bind at the same count. *)
        match same_solve ~disjoint:false ~budget:2 g cands with
        | None -> true
        | Some m -> QCheck2.Test.fail_report m)
      | Some m -> QCheck2.Test.fail_report m)

let prop_solver_matches_scan_on_graphs =
  QCheck2.Test.make ~name:"random graphs: indexed solve = full scan over identified candidates"
    ~count:100 ~print:print_fuzz_case gen_fuzz_case (fun c ->
      let g = build_fuzz_graph c.steps in
      let cands, _ =
        Korch.Kernel_identifier.identify ~max_tvm_prims:Gpu.Profiler.max_tvm_prims
          ~spec:Gpu.Spec.v100 ~precision:Gpu.Precision.FP32 ~cache:(Gpu.Profile_cache.create ()) g
      in
      match List.find_map (fun disjoint -> same_solve ~disjoint g cands) [ false; true ] with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* Two exact duplicates (same inputs, same outputs) after a prefix of
   cost 2^53, where one ulp is 2: the earlier costs 1.5, the later 1.25,
   and both sums round to 2^53 + 2. The later is strictly cheaper, so it
   is kept, but the tie on the path cost must still go to the lower
   index. Keeping only the cheapest duplicate would return [0; 2]. *)
let test_solver_duplicate_rounding_tie () =
  let open Ir in
  let b = Primgraph.B.create () in
  let x = Primgraph.B.input b "x" [| 2 |] in
  let a = Primgraph.B.add b (Primitive.Unary Primitive.Relu) [ x ] in
  let o = Primgraph.B.add b (Primitive.Unary Primitive.Exp) [ a ] in
  Primgraph.B.set_outputs b [ o ];
  let g = Primgraph.B.finish b in
  let n = Graph.length g in
  let cand members latency_us =
    let set = Bitset.of_list n members in
    Korch.Candidate.
      { members = set; outputs = members; ext_inputs = Graph.external_inputs g set; latency_us;
        backend = Gpu.Cost_model.Tvm }
  in
  let prefix = 0x1p53 in
  let cands = [| cand [ a ] prefix; cand [ o ] 1.5; cand [ o ] 1.25 |] in
  Alcotest.(check bool) "the two sums round alike" true (prefix +. 1.5 = prefix +. 1.25);
  List.iter
    (fun disjoint ->
      match Korch.Segment_solver.solve ~disjoint ~budget:100 g cands with
      | Ok s ->
        Alcotest.(check (list int)) "the lower index wins" [ 0; 1 ] s.Korch.Segment_solver.order;
        Alcotest.(check bool) "and agrees with the full scan" true
          (same_solve ~disjoint g cands = None)
      | Error f -> Alcotest.fail (Korch.Segment_solver.failure_to_string f))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Tensor kernels vs the per-element reference.                        *)
(* ------------------------------------------------------------------ *)

(* Every strided kernel of lib/tensor against Ref_tensor_ops, bit for
   bit with NaN payloads, both allocating and written into a destination
   pre-filled with a marked NaN (so an element the kernel forgets, or an
   accumulator it does not zero, shows). Shapes include size-0 and
   size-1 axes; values include signed zeros, infinities and quiet and
   signalling NaNs of either sign with random payloads. *)

type op_case = {
  what : string;
  lib : ?dst:float array -> unit -> Tensor.Nd.t;
  reference : unit -> Tensor.Nd.t;
}

let same_bits (a : Nd.t) (b : Nd.t) =
  Shape.equal (Nd.shape a) (Nd.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Nd.data b.Nd.data

let garbage = Int64.float_of_bits 0x7FF8_0000_DEAD_BEEFL

let matches_ref (c : op_case) =
  let want = c.reference () in
  let dst = Array.make (Nd.numel want) garbage in
  let into = c.lib ~dst () in
  same_bits (c.lib ()) want && same_bits into want && into.Nd.data == dst

(* A NaN with the given sign, quiet bit and payload. *)
let nan_bits ~neg ~quiet payload =
  Int64.float_of_bits
    (Int64.logor
       (if neg then 0xFFF0_0000_0000_0000L else 0x7FF0_0000_0000_0000L)
       (Int64.logor (if quiet then 0x0008_0000_0000_0000L else 0L) (Int64.of_int (1 + payload))))

let special_tensor seed (shape : Shape.t) =
  let rng = Rng.create seed in
  Nd.create shape (fun _ ->
      match Rng.int rng 40 with
      | 0 -> 0.0
      | 1 -> -0.0
      | 2 -> Float.infinity
      | 3 -> Float.neg_infinity
      | 4 | 5 -> nan_bits ~neg:(Rng.int rng 2 = 0) ~quiet:(Rng.int rng 4 > 0) (Rng.int rng 0xFFFF)
      | 6 | 7 | 8 -> float_of_int (Rng.int rng 5 - 2)
      | _ -> Rng.uniform rng ~lo:(-3.0) ~hi:3.0)

let gen_values shape = QCheck2.Gen.map (fun seed -> special_tensor seed shape) (QCheck2.Gen.int_range 1 1_000_000)
let gen_dim = QCheck2.Gen.(frequency [ (1, return 0); (3, return 1); (6, int_range 2 4) ])
let gen_shape ~lo ~hi = QCheck2.Gen.(array_size (int_range lo hi) gen_dim)

(* An operand that broadcasts to [out]: some leading axes dropped, some
   others stretched from size 1. *)
let gen_operand_shape (out : Shape.t) =
  let open QCheck2.Gen in
  let r = Array.length out in
  let* drop = int_range 0 r in
  let* ones = array_size (return (r - drop)) (frequency [ (1, return true); (2, return false) ]) in
  return (Array.mapi (fun i one -> if one then 1 else out.(i + drop)) ones)

let gen_perm r =
  QCheck2.Gen.map Array.of_list (QCheck2.Gen.shuffle_l (List.init r Fun.id))

let shapes l = String.concat " " (List.map Shape.to_string l)
let ints a = Shape.to_string a

let gen_map =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:0 ~hi:4 in
  let* x = gen_values shape in
  let* u = oneofl (Array.to_list fuzz_unaries) in
  return
    { what = Printf.sprintf "%s %s" (Primitive.to_string (Primitive.Unary u)) (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_elementwise.unary ?dst u x);
      reference = (fun () -> Ref_tensor_ops.(map (unary u)) x) }

let gen_map2 =
  let open QCheck2.Gen in
  let* out = gen_shape ~lo:0 ~hi:4 in
  let* sa = gen_operand_shape out in
  let* sb = gen_operand_shape out in
  let* a = gen_values sa in
  let* b = gen_values sb in
  let* op = oneofl (Primitive.Pow :: Array.to_list fuzz_binaries) in
  return
    { what = Printf.sprintf "%s %s" (Primitive.to_string (Primitive.Binary op)) (shapes [ sa; sb ]);
      lib = (fun ?dst () -> Ops_elementwise.binary ?dst op a b);
      reference = (fun () -> Ref_tensor_ops.(map2 (binary op)) a b) }

let gen_select =
  let open QCheck2.Gen in
  let* out = gen_shape ~lo:0 ~hi:3 in
  let* sc = gen_operand_shape out in
  let* sa = gen_operand_shape out in
  let* sb = gen_operand_shape out in
  let* c = gen_values sc in
  let* a = gen_values sa in
  let* b = gen_values sb in
  return
    { what = "select " ^ shapes [ sc; sa; sb ];
      lib = (fun ?dst () -> Ops_elementwise.select ?dst c a b);
      reference = (fun () -> Ref_tensor_ops.select c a b) }

let aggs = Ops_reduce.[ Sum; Mean; Max; Min; Prod ]

let gen_reduce =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:1 ~hi:4 in
  let* x = gen_values shape in
  let* axis = int_range 0 (Array.length shape - 1) in
  let* agg = oneofl aggs in
  let* keepdims = bool in
  return
    { what =
        Printf.sprintf "reduce_%s axis %d%s %s" (Ops_reduce.agg_to_string agg) axis
          (if keepdims then " keepdims" else "") (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_reduce.reduce ?dst agg ~axis ~keepdims x);
      reference = (fun () -> Ref_tensor_ops.reduce agg ~axis ~keepdims x) }

let gen_broadcast_axis =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:0 ~hi:3 in
  let* x = gen_values shape in
  let* axis = int_range 0 (Array.length shape) in
  let* size = int_range 0 3 in
  return
    { what = Printf.sprintf "broadcast axis %d size %d %s" axis size (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_reduce.broadcast_axis ?dst x ~axis ~size);
      reference = (fun () -> Ref_tensor_ops.broadcast_axis x ~axis ~size) }

(* One spatial axis of a window: input length, kernel, stride, padding,
   with at least one output position. *)
let gen_window =
  let open QCheck2.Gen in
  let* len = int_range 1 6 in
  let* p = int_range 0 2 in
  let* k = int_range 1 (min 3 (len + (2 * p))) in
  let* s = int_range 1 3 in
  return (len, k, s, p)

let gen_pool =
  let open QCheck2.Gen in
  let* n = int_range 0 2 in
  let* c = int_range 1 3 in
  let* h, kh, sh, ph = gen_window in
  let* w, kw, sw, pw = gen_window in
  let* x = gen_values [| n; c; h; w |] in
  let* agg = oneofl aggs in
  let kernel = (kh, kw) and stride = (sh, sw) and padding = (ph, pw) in
  return
    { what =
        Printf.sprintf "pool_%s k%dx%d s%dx%d p%dx%d %s" (Ops_reduce.agg_to_string agg) kh kw sh
          sw ph pw (shapes [ Nd.shape x ]);
      lib = (fun ?dst () -> Ops_reduce.pool2d ?dst agg x ~kernel ~stride ~padding);
      reference = (fun () -> Ref_tensor_ops.pool2d agg x ~kernel ~stride ~padding) }

let gen_transpose =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:0 ~hi:4 in
  let* x = gen_values shape in
  let* perm = gen_perm (Array.length shape) in
  return
    { what = Printf.sprintf "transpose %s %s" (ints perm) (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_layout.transpose ?dst x perm);
      reference = (fun () -> Ref_tensor_ops.transpose x perm) }

let gen_pad =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:0 ~hi:3 in
  let r = Array.length shape in
  let* x = gen_values shape in
  let* before = array_size (return r) (int_range 0 2) in
  let* after = array_size (return r) (int_range 0 2) in
  let* v = gen_values [||] in
  let value = Nd.to_scalar v in
  return
    { what = Printf.sprintf "pad %s %s value %h %s" (ints before) (ints after) value (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_layout.pad ?dst x ~before ~after ~value);
      reference = (fun () -> Ref_tensor_ops.pad x ~before ~after ~value) }

(* A box [starts, stops) inside [shape], possibly empty. *)
let gen_box (shape : Shape.t) =
  let open QCheck2.Gen in
  let* cuts = flatten_a (Array.map (fun d -> pair (int_range 0 d) (int_range 0 d)) shape) in
  return (Array.map (fun (a, b) -> min a b) cuts, Array.map (fun (a, b) -> max a b) cuts)

let gen_slice =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:0 ~hi:4 in
  let* x = gen_values shape in
  let* starts, stops = gen_box shape in
  return
    { what = Printf.sprintf "slice %s %s %s" (ints starts) (ints stops) (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_layout.slice ?dst x ~starts ~stops);
      reference = (fun () -> Ref_tensor_ops.slice x ~starts ~stops) }

let gen_concat =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:1 ~hi:3 in
  let* axis = int_range 0 (Array.length shape - 1) in
  let* sizes = list_size (int_range 1 3) (int_range 0 3) in
  let* xs = flatten_l (List.map (fun d -> gen_values (Shape.set_axis shape axis d)) sizes) in
  return
    { what = Printf.sprintf "concat axis %d %s" axis (shapes (List.map Nd.shape xs));
      lib = (fun ?dst () -> Ops_layout.concat ?dst xs ~axis);
      reference = (fun () -> Ref_tensor_ops.concat xs ~axis) }

let gen_upsample =
  let open QCheck2.Gen in
  let* shape = array_size (return 4) gen_dim in
  let* x = gen_values shape in
  let* scale = int_range 1 3 in
  return
    { what = Printf.sprintf "upsample %d %s" scale (shapes [ shape ]);
      lib = (fun ?dst () -> Ops_linear.upsample_nearest2d ?dst x ~scale);
      reference = (fun () -> Ref_tensor_ops.upsample_nearest2d x ~scale) }

(* A transposed, then sliced map gathered in one walk, against the
   reference slice of the reference transpose. *)
let gen_view =
  let open QCheck2.Gen in
  let* shape = gen_shape ~lo:1 ~hi:4 in
  let* x = gen_values shape in
  let* perm = gen_perm (Array.length shape) in
  let* starts, stops = gen_box (Shape.permute shape perm) in
  let v = View.slice (View.transpose (View.dense shape) perm) ~starts ~stops in
  return
    { what =
        Printf.sprintf "View.gather of transpose %s slice %s %s %s" (ints perm) (ints starts)
          (ints stops) (shapes [ shape ]);
      lib = (fun ?dst () -> View.gather ?dst v x);
      reference = (fun () -> Ref_tensor_ops.(slice (transpose x perm) ~starts ~stops)) }

let gen_matmul =
  let open QCheck2.Gen in
  let* batch = gen_shape ~lo:0 ~hi:2 in
  let* ba = gen_operand_shape batch in
  let* bb = gen_operand_shape batch in
  let* m = int_range 0 3 in
  let* k = int_range 0 3 in
  let* n = int_range 0 3 in
  let* a = gen_values (Array.append ba [| m; k |]) in
  let* b = gen_values (Array.append bb [| k; n |]) in
  return
    { what = "matmul " ^ shapes [ Nd.shape a; Nd.shape b ];
      lib = (fun ?dst () -> Ops_linear.batch_matmul ?dst a b);
      reference = (fun () -> Ref_tensor_ops.batch_matmul a b) }

(* Every NaN of [t] replaced by the canonical one, in place. *)
let canonical_nans (t : Nd.t) =
  Array.iteri (fun i x -> if Float.is_nan x then t.Nd.data.(i) <- Float.nan) t.Nd.data;
  t

(* Convolution against im2col + GEMM, with or without a bias, and
   against the textbook loop. The textbook loop's product compiles with
   its operands the other way round, so when both are NaNs it keeps the
   other payload: against it, NaN payloads are not compared. *)
let gen_conv =
  let open QCheck2.Gen in
  let* n = int_range 0 2 in
  let* c = int_range 0 3 in
  let* oc = int_range 1 3 in
  let* h, kh, sh, ph = gen_window in
  let* w, kw, sw, pw = gen_window in
  let* x = gen_values [| n; c; h; w |] in
  let* wt = gen_values [| oc; c; kh; kw |] in
  let* bias = option (gen_values [| oc |]) in
  let* textbook = bool in
  let stride = (sh, sw) and padding = (ph, pw) in
  let textbook = textbook && bias = None in
  let conv ?dst () = Ops_linear.conv2d ?dst x wt ?bias ~stride ~padding () in
  let lib, reference =
    if textbook then
      ( (fun ?dst () -> canonical_nans (conv ?dst ())),
        fun () -> canonical_nans (Ref_tensor_ops.conv2d_direct x wt ~stride ~padding) )
    else (conv, fun () -> Ref_tensor_ops.conv2d x wt ?bias ~stride ~padding ())
  in
  return
    { what =
        Printf.sprintf "conv s%dx%d p%dx%d%s%s %s" sh sw ph pw
          (if bias = None then "" else " bias")
          (if textbook then " vs textbook" else "")
          (shapes [ Nd.shape x; Nd.shape wt ]);
      lib;
      reference }

let prop_kernel name ?(count = 300) gen =
  QCheck2.Test.make ~name ~count ~print:(fun c -> c.what) gen matches_ref

let kernel_props =
  [ prop_kernel "map" gen_map; prop_kernel "map2 broadcast" gen_map2;
    prop_kernel "select" gen_select; prop_kernel "reduce" gen_reduce;
    prop_kernel "broadcast_axis" gen_broadcast_axis; prop_kernel "pool2d" gen_pool;
    prop_kernel "transpose" gen_transpose; prop_kernel "pad" gen_pad;
    prop_kernel "slice" gen_slice; prop_kernel "concat" gen_concat;
    prop_kernel "upsample" gen_upsample; prop_kernel "view" gen_view;
    prop_kernel "batch matmul" gen_matmul; prop_kernel ~count:500 "conv2d" gen_conv ]

(* Every test-scale zoo plan on the interpreter, reuse off and on, gives
   the bits of the reference kernels evaluating its graph. *)
let test_zoo_interp_matches_ref () =
  List.iter
    (fun (e : Models.Registry.entry) ->
      let g = e.Models.Registry.build_small () in
      let r = Korch.Orchestrator.run Korch.Orchestrator.default_config g in
      let pg = r.Korch.Orchestrator.graph and plan = r.Korch.Orchestrator.plan in
      let inputs =
        Array.to_list pg.Graph.nodes
        |> List.filter_map (fun nd ->
               match nd.Graph.op with
               | Primitive.Input name -> Some (name, Nd.randn (Rng.create 29) nd.Graph.shape)
               | _ -> None)
      in
      let want = Ref_tensor_ops.run pg ~inputs in
      List.iter
        (fun reuse ->
          let got = Runtime.Executor.run ~backend:Runtime.Backend.Interp ~reuse pg plan ~inputs in
          List.iteri
            (fun i (a, b) ->
              if not (same_bits a b) then
                Alcotest.failf "%s (reuse %b): output %d differs from the reference"
                  e.Models.Registry.name reuse i)
            (List.combine got want))
        [ false; true ])
    Models.Registry.all

let () =
  Alcotest.run "props"
    [
      ( Printf.sprintf "bitset model (seed %#x)" qcheck_seed,
        List.map to_alcotest [ prop_bitset_model; prop_bitset_persistence; prop_bitset_list_model ] );
      ( Printf.sprintf "shape & views (seed %#x)" qcheck_seed,
        List.map to_alcotest
          [ prop_broadcast_commutative; prop_broadcast_scalar_identity ] );
      ( Printf.sprintf "segment oracle (seed %#x)" qcheck_seed,
        [ Alcotest.test_case "redundancy allowed" `Quick (test_segment_solver_oracle ~disjoint:false);
          Alcotest.test_case "disjoint ablation" `Quick (test_segment_solver_oracle ~disjoint:true) ] );
      ( Printf.sprintf "solver index (seed %#x)" qcheck_seed,
        Alcotest.test_case "test-scale zoo segments" `Quick test_solver_matches_scan_on_zoo
        :: Alcotest.test_case "duplicates tied by rounding" `Quick test_solver_duplicate_rounding_tie
        :: List.map to_alcotest
             [ prop_solver_matches_scan_on_segments; prop_solver_matches_scan_on_graphs ] );
      ( Printf.sprintf "codegen differential (seed %#x)" qcheck_seed,
        List.map to_alcotest [ prop_native_backend_differential ] );
      ( Printf.sprintf "identify diff (seed %#x)" qcheck_seed,
        Alcotest.test_case "test-scale zoo segments" `Quick test_identify_zoo_segments
        :: List.map to_alcotest [ prop_identify_random_graphs ] );
      ( Printf.sprintf "tensor kernels (seed %#x)" qcheck_seed,
        Alcotest.test_case "test-scale zoo plans on the interpreter" `Quick
          test_zoo_interp_matches_ref
        :: List.map to_alcotest kernel_props );
      ( Printf.sprintf "constfold diff (seed %#x)" qcheck_seed,
        [ Alcotest.test_case "test-scale zoo segments" `Quick test_constfold_zoo_segments;
          Alcotest.test_case "random graphs with constants" `Quick test_constfold_random_graphs ] );
    ]
