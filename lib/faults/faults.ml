(** Deterministic, seeded fault injection (see the interface for the
    contract). The policy is a process-global atomic so instrumented
    call sites anywhere in the pipeline can reach it without threading
    configuration through every signature; counters are atomics so
    worker domains draw distinct call numbers. *)

type site =
  | Profiler
  | Solve
  | Enumerate
  | Transform
  | Worker
  | Onnx_parse
  | Analysis
  | Codegen_compile
  | Serve_accept
  | Cache_io

let all_sites =
  [
    Profiler;
    Solve;
    Enumerate;
    Transform;
    Worker;
    Onnx_parse;
    Analysis;
    Codegen_compile;
    Serve_accept;
    Cache_io;
  ]

let site_index = function
  | Profiler -> 0
  | Solve -> 1
  | Enumerate -> 2
  | Transform -> 3
  | Worker -> 4
  | Onnx_parse -> 5
  | Analysis -> 6
  | Codegen_compile -> 7
  | Serve_accept -> 8
  | Cache_io -> 9

let n_sites = 10

let site_to_string = function
  | Profiler -> "profiler"
  | Solve -> "solve"
  | Enumerate -> "enumerate"
  | Transform -> "transform"
  | Worker -> "worker"
  | Onnx_parse -> "onnx_parse"
  | Analysis -> "analysis"
  | Codegen_compile -> "codegen_compile"
  | Serve_accept -> "serve_accept"
  | Cache_io -> "cache_io"

let site_of_string s =
  List.find_opt (fun site -> site_to_string site = s) all_sites

type spec = Always | Nth of int | Prob of float

let spec_to_string = function
  | Always -> "always"
  | Nth n -> Printf.sprintf "nth=%d" n
  | Prob p -> Printf.sprintf "p=%g" p

let parse_rule (s : string) : (site * spec, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "expected SITE:SPEC, got %S" s)
  | Some i ->
    let site_s = String.sub s 0 i in
    let spec_s = String.sub s (i + 1) (String.length s - i - 1) in
    (match site_of_string site_s with
    | None ->
      Error
        (Printf.sprintf "unknown fault site %S (one of: %s)" site_s
           (String.concat ", " (List.map site_to_string all_sites)))
    | Some site ->
      let kv =
        match String.index_opt spec_s '=' with
        | None -> (spec_s, None)
        | Some j ->
          ( String.sub spec_s 0 j,
            Some (String.sub spec_s (j + 1) (String.length spec_s - j - 1)) )
      in
      (match kv with
      | "always", None -> Ok (site, Always)
      | "nth", Some v -> begin
        match int_of_string_opt v with
        | Some n when n >= 1 -> Ok (site, Nth n)
        | _ -> Error (Printf.sprintf "nth= wants a positive integer, got %S" v)
      end
      | ("p" | "prob"), Some v -> begin
        match float_of_string_opt v with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok (site, Prob p)
        | _ -> Error (Printf.sprintf "p= wants a probability in [0,1], got %S" v)
      end
      | _ ->
        Error
          (Printf.sprintf "unknown fault spec %S (always | nth=K | p=0.25)" spec_s)))

exception Injected of { site : site; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
      Some (Printf.sprintf "injected fault at %s (call %d)" (site_to_string site) hit)
    | _ -> None)

type state = {
  seed : int;
  specs : spec option array;  (** indexed by {!site_index} *)
  calls : int Atomic.t array;
  fired : int Atomic.t array;
}

let current : state option Atomic.t = Atomic.make None

let make_state ~seed rules =
  let specs = Array.make n_sites None in
  List.iter (fun (site, spec) -> specs.(site_index site) <- Some spec) rules;
  {
    seed;
    specs;
    calls = Array.init n_sites (fun _ -> Atomic.make 0);
    fired = Array.init n_sites (fun _ -> Atomic.make 0);
  }

let install ?(seed = 1) (rules : (site * spec) list) =
  Atomic.set current (if rules = [] then None else Some (make_state ~seed rules))

let clear () = Atomic.set current None
let active () = Atomic.get current <> None

(* splitmix64 finalizer: the probability draw for call [n] at a site is a
   pure function of (seed, site, n), so a policy replays identically. *)
let splitmix64 (x : int64) : int64 =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let draw ~seed ~site_idx ~call : float =
  let mixed =
    splitmix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.of_int ((site_idx * 1_000_003) + call)))
  in
  (* 53 uniform mantissa bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical mixed 11) /. 9007199254740992.0

let uniform ~seed ~salt ~call : float = draw ~seed ~site_idx:salt ~call

let check (site : site) : unit =
  match Atomic.get current with
  | None -> ()
  | Some st ->
    let i = site_index site in
    (match st.specs.(i) with
    | None -> ()
    | Some spec ->
      let n = 1 + Atomic.fetch_and_add st.calls.(i) 1 in
      let fire =
        match spec with
        | Always -> true
        | Nth k -> n = k
        | Prob p -> p > 0.0 && draw ~seed:st.seed ~site_idx:i ~call:n < p
      in
      if fire then begin
        Atomic.incr st.fired.(i);
        raise (Injected { site; hit = n })
      end)

let read field site =
  match Atomic.get current with
  | None -> 0
  | Some st -> Atomic.get (field st).(site_index site)

let calls site = read (fun st -> st.calls) site
let injected site = read (fun st -> st.fired) site

let with_policy ?(seed = 1) rules (f : unit -> 'a) : 'a =
  let previous = Atomic.get current in
  Atomic.set current (if rules = [] then None else Some (make_state ~seed rules));
  Fun.protect ~finally:(fun () -> Atomic.set current previous) f
