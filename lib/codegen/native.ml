(** The native backend: kernel execution through compiled C code.

    Registered as {!Runtime.Backend}'s plan resolver, so it is only
    reached from {!Runtime.Executor.run}, on a plan already checked with
    {!Runtime.Plan.check}. Each plan is checked and signed once per plan:
    the executor checks it on its first run, {!resolve} signs its kernels
    on its first native run, and the executor keeps both. Faults and
    verdicts are consulted per run: before each plan walk, the plan's kernels are resolved to
    shared objects via {!Kernel_cache} in one batch (the kernels missing
    from memory and disk compile in one concurrent [cc] run per core,
    each over its own round-robin chunk of them) and invoked directly on
    the tensors' flat storage; the walker publishes exactly their
    declared outputs.

    Degradation ladder (per kernel, never per run):

    + a kernel whose signature was already {e verified} this process runs
      natively, and its call reports its wall-clock;
    + a kernel the emitter cannot express, that the compiler rejects,
      whose verification fails, or whose resolution drew a
      [codegen_compile] fault, resolves to the reason instead. The walker
      records it in the execution stats' [fallbacks], runs the kernel
      through the interpreter's member loop, and the run proceeds.

    {b Differential verification}: before a compiled kernel's first
    production use, it is executed on deterministic pseudo-random inputs
    (seeded from its signature) and compared against
    {!Runtime.Prim_interp} element by element. Outputs must match within
    1 ULP (bit-identity is the norm; the single-ULP allowance covers
    platform libm call-site differences). A kernel failing the gate is
    rejected for the whole process. *)

open Ir
open Tensor

(* ------------------------------------------------------------------ *)
(* ULP distance                                                        *)
(* ------------------------------------------------------------------ *)

(* Monotone map from float to int64: the integer distance between two
   mapped values is the number of representable doubles between them.
   Both zeros map to 0. *)
let ulp_key (f : float) : int64 =
  let b = Int64.bits_of_float f in
  if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b

(** [ulp_diff a b] — 0 for bit-equal values and for two NaNs (any
    payloads); otherwise the number of representable doubles between [a]
    and [b] (saturated at [max_int]). *)
let ulp_diff (a : float) (b : float) : int =
  let ba = Int64.bits_of_float a and bb = Int64.bits_of_float b in
  if Int64.equal ba bb then 0
  else if a <> a && b <> b then 0
  else if a <> a || b <> b then max_int
  else begin
    let d = Int64.sub (ulp_key a) (ulp_key b) in
    let d = if Int64.compare d 0L < 0 then Int64.neg d else d in
    if Int64.compare d (Int64.of_int max_int) >= 0 || Int64.compare d 0L < 0 then max_int
    else Int64.to_int d
  end

let ulp_tolerance = 1

(* ------------------------------------------------------------------ *)
(* Verification oracle                                                 *)
(* ------------------------------------------------------------------ *)

(* A kernel signed once per plan: what each run needs to find and call
   its compiled code. *)
type signed = {
  kernel : Runtime.Plan.kernel;
  layout : Emit.layout;  (** its member order, and its inputs and outputs in ABI order *)
  request : Kernel_cache.request;  (** its signature's hash, and its C source *)
}

(* The interpreter's kernel step on concrete external values — the
   reference semantics a compiled kernel must reproduce, and exactly what
   the fallback would compute in its place. *)
let interp_kernel (g : Primgraph.t) (s : signed) ~(ext_vals : Nd.t array) : Nd.t array =
  let env : Runtime.Prim_interp.env = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace env id ext_vals.(i)) s.layout.Emit.ext_ids;
  Runtime.Executor.eval_kernel g ~order:s.layout.Emit.order env s.kernel;
  Array.map (Hashtbl.find env) s.layout.Emit.out_ids

(* Invoke the compiled kernel: flat-array views in ABI order. The output
   buffers are left unfilled, since every emitted kernel writes the
   whole of each output. *)
let call_native (g : Primgraph.t) (s : signed) (c : Kernel_cache.compiled)
    ~(ext_vals : Nd.t array) : Nd.t array =
  let outs =
    Array.map
      (fun id ->
        let shape = Graph.shape g id in
        Nd.of_array shape (Array.create_float (Shape.numel shape)))
      s.layout.Emit.out_ids
  in
  Kernel_cache.call c
    ~ins:(Array.map (fun v -> v.Nd.data) ext_vals)
    ~outs:(Array.map (fun v -> v.Nd.data) outs);
  outs

(* ------------------------------------------------------------------ *)
(* Differential verification gate                                      *)
(* ------------------------------------------------------------------ *)

let m_verified = Obs.Metrics.counter "codegen.verify.passed"
let m_rejected = Obs.Metrics.counter "codegen.verify.rejected"

(* Verdicts by signature hash. *)
let verdicts : (string, (unit, string) result) Hashtbl.t = Hashtbl.create 64
let verdicts_mutex = Mutex.create ()

(* Deterministic per-signature input generator, seeded from the
   signature's digest. Values span [-2, 2) so negative branches (relu,
   abs, leaky slopes, log/sqrt NaN domains) are exercised. *)
let gen_inputs (g : Primgraph.t) (s : signed) : Nd.t array =
  let d = Digest.from_hex s.request.Kernel_cache.hash in
  let seed =
    (Char.code d.[0] lsl 24)
    lxor (Char.code d.[1] lsl 16)
    lxor (Char.code d.[2] lsl 8)
    lxor Char.code d.[3]
  in
  let rng = Rng.create (seed lor 1) in
  Array.map
    (fun id -> Nd.create (Graph.shape g id) (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0))
    s.layout.Emit.ext_ids

let compare_outputs (expected : Nd.t array) (got : Nd.t array) : (unit, string) result =
  let bad = ref None in
  Array.iteri
    (fun oi e ->
      if !bad = None then begin
        let a = got.(oi) in
        if not (Shape.equal (Nd.shape e) (Nd.shape a)) then
          bad :=
            Some
              (Printf.sprintf "output %d shape %s, expected %s" oi
                 (Shape.to_string (Nd.shape a))
                 (Shape.to_string (Nd.shape e)))
        else
          for k = 0 to Nd.numel e - 1 do
            if !bad = None then begin
              let u = ulp_diff (Nd.get_linear e k) (Nd.get_linear a k) in
              if u > ulp_tolerance then
                bad :=
                  Some
                    (Printf.sprintf "output %d element %d: native %h vs interp %h (%d ulp)"
                       oi k (Nd.get_linear a k) (Nd.get_linear e k) u)
            end
          done
      end)
    expected;
  match !bad with None -> Ok () | Some msg -> Error msg

(* First production use of a signature triggers the gate; the verdict is
   memoized for the process (both directions). *)
let verify (g : Primgraph.t) (s : signed) (c : Kernel_cache.compiled) : (unit, string) result =
  Mutex.protect verdicts_mutex (fun () ->
      let hash = s.request.Kernel_cache.hash in
      match Hashtbl.find_opt verdicts hash with
      | Some v -> v
      | None ->
        let v =
          match
            let ext_vals = gen_inputs g s in
            let expected = interp_kernel g s ~ext_vals in
            let got = call_native g s c ~ext_vals in
            compare_outputs expected got
          with
          | Ok () ->
            Obs.Metrics.incr m_verified;
            Ok ()
          | Error msg ->
            Obs.Metrics.incr m_rejected;
            Error msg
          | exception e -> Error (Printexc.to_string e)
        in
        Hashtbl.replace verdicts hash v;
        v)

(** Drop memoized verification verdicts (tests re-verifying fresh cache
    directories). *)
let reset_verdicts () =
  Mutex.lock verdicts_mutex;
  Hashtbl.reset verdicts;
  Mutex.unlock verdicts_mutex

(* ------------------------------------------------------------------ *)
(* Kernel resolution                                                   *)
(* ------------------------------------------------------------------ *)

(* A kernel's compiled and verified code, or the reason it runs on the
   interpreter instead. *)
let native_kernel (g : Primgraph.t) (s : signed) (compiled : Kernel_cache.compiled) :
    (Runtime.Backend.native_kernel, string) result =
  match verify g s compiled with
  | Error msg -> Error (Printf.sprintf "differential verify: %s" msg)
  | Ok () ->
    Ok
      {
        Runtime.Backend.ext_ids = s.layout.Emit.ext_ids;
        out_ids = s.layout.Emit.out_ids;
        call =
          (fun ext_vals ->
            let t0 = Obs.Clock.now_us () in
            let outs = call_native g s compiled ~ext_vals in
            (outs, Obs.Clock.now_us () -. t0));
      }

let sign (g : Primgraph.t) (k : Runtime.Plan.kernel) : (signed, string) result =
  match Emit.layout g k with
  | exception Emit.Unsupported_kernel msg -> Error (Printf.sprintf "unsupported: %s" msg)
  | layout ->
    Ok
      {
        kernel = k;
        layout;
        request =
          {
            Kernel_cache.hash = Emit.hash (Emit.signature_of_layout g layout);
            source = (fun ~symbol -> Emit.source g layout ~symbol);
          };
      }

(* [resolve g plan] signs every kernel of [plan] once; each call of the
   function it returns resolves them for one run. In plan order, each
   signed kernel draws one [codegen_compile] fault check; a faulted
   kernel is not looked up, and the fault becomes its reason without
   being memoized, so a later run without the fault policy recovers. The
   rest resolve through the current default kernel cache in one batch,
   so the plan's missing kernels compile together, one concurrent cc run
   per core, and each then takes its verification verdict. *)
let resolve (g : Primgraph.t) (plan : Runtime.Plan.t) :
    unit -> (Runtime.Backend.native_kernel, string) result list =
  let signed = List.map (sign g) plan.Runtime.Plan.kernels in
  fun () ->
    let checked =
      List.map
        (function
          | Error _ as unsupported -> unsupported
          | Ok s -> (
            match Faults.check Faults.Codegen_compile with
            | () -> Ok s
            | exception Faults.Injected { site = _; hit } ->
              Error (Printf.sprintf "fault injected at codegen_compile (call %d)" hit)))
        signed
    in
    let compiled =
      Kernel_cache.resolve (Kernel_cache.default ())
        (List.filter_map (function Ok s -> Some s.request | Error _ -> None) checked)
    in
    let rec zip checked compiled =
      match (checked, compiled) with
      | Error reason :: ss, cs -> Error reason :: zip ss cs
      | Ok s :: ss, c :: cs -> Result.bind c (native_kernel g s) :: zip ss cs
      | [], _ -> []
      | Ok _ :: _, [] -> assert false (* one result per request *)
    in
    zip checked compiled
