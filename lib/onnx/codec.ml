(** Bidirectional JSON codecs (see the interface). *)

type 'a t = { enc : 'a -> Obs.Jsonw.t; dec : Json.t -> 'a }

(* A decoding failure: the member path below the point that catches it
   (e.g. "kernels[3].prims") and the message. *)
exception Error of string * string

let fail msg = raise (Error ("", msg))

(* Re-raise a failure from below path segment [seg] with [seg] prepended.
   Callers build [seg] in their handler, so only on the error path. *)
let reraise seg = function
  | Error (path, msg) ->
    raise (Error ((if path = "" || path.[0] = '[' then seg ^ path else seg ^ "." ^ path), msg))
  | Failure msg | Invalid_argument msg -> raise (Error (seg, msg))
  | e -> raise e

let encode c v = c.enc v

let decode c j =
  match c.dec j with
  | v -> Ok v
  | exception (Error ("", msg) | Failure msg | Invalid_argument msg) -> Error msg
  | exception Error (path, msg) -> Error (path ^ ": " ^ msg)

let custom ~encode ~decode = { enc = encode; dec = decode }
let map of_a to_a c = { enc = (fun b -> c.enc (to_a b)); dec = (fun j -> of_a (c.dec j)) }
let int = custom ~encode:(fun i -> Obs.Jsonw.Int i) ~decode:Json.to_int_exn
let float = custom ~encode:(fun f -> Obs.Jsonw.Float f) ~decode:Json.to_float_exn
let string = custom ~encode:(fun s -> Obs.Jsonw.Str s) ~decode:Json.to_string_exn

let bool =
  custom ~encode:(fun b -> Obs.Jsonw.Bool b) ~decode:(function
    | Json.Bool b -> b
    | _ -> fail "expected a boolean")

let list c =
  custom
    ~encode:(fun l -> Obs.Jsonw.List (List.map c.enc l))
    ~decode:(fun j ->
      List.mapi
        (fun i x -> try c.dec x with e -> reraise (Printf.sprintf "[%d]" i) e)
        (Json.to_list_exn j))

let enum cases =
  custom
    ~encode:(fun v -> Obs.Jsonw.Str (fst (List.find (fun (_, x) -> x = v) cases)))
    ~decode:(fun j ->
      let s = Json.to_string_exn j in
      match List.assoc_opt s cases with
      | Some v -> v
      | None -> fail (Printf.sprintf "unknown value %S" s))

let json = custom ~encode:Json.to_jsonw ~decode:Fun.id

let fix f =
  let self = ref None in
  let get () = Option.get !self in
  let c = { enc = (fun v -> (get ()).enc v); dec = (fun j -> (get ()).dec j) } in
  self := Some (f c);
  c

(* ------------------------------ objects ------------------------------ *)

type ('o, 'f) obj = {
  push : 'o -> (string * Obs.Jsonw.t) list -> (string * Obs.Jsonw.t) list;
      (** push the members, in order, onto a reversed list *)
  build : (string * Json.t) list -> 'f;
}

let obj ctor = { push = (fun _ acc -> acc); build = (fun _ -> ctor) }

let member name c j = try c.dec j with e -> reraise name e
let missing name = fail (Printf.sprintf "missing member %S" name)

let field name c get o =
  {
    push = (fun v acc -> (name, c.enc (get v)) :: o.push v acc);
    build =
      (fun fields ->
        let f = o.build fields in
        match List.assoc_opt name fields with Some j -> f (member name c j) | None -> missing name);
  }

let opt name c get o =
  {
    push = (fun v acc -> match get v with Some x -> (name, c.enc x) :: o.push v acc | None -> o.push v acc);
    build =
      (fun fields ->
        let f = o.build fields in
        match List.assoc_opt name fields with
        | None | Some Json.Null -> f None
        | Some j -> f (Some (member name c j)));
  }

let finish o =
  custom
    ~encode:(fun v -> Obs.Jsonw.Obj (List.rev (o.push v [])))
    ~decode:(function Json.Obj fields -> o.build fields | _ -> fail "expected an object")

(* ---------------------------- tagged kinds ---------------------------- *)

type 'a case = Case : string * ('b, 'b) obj * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case tag members inject project = Case (tag, members, inject, project)

let kind name cases get o =
  let rec push_case v acc = function
    | [] -> invalid_arg ("Codec.kind: no case of " ^ name ^ " matches")
    | Case (tag, c, _, project) :: rest -> (
      match project v with
      | Some b -> c.push b ((name, Obs.Jsonw.Str tag) :: acc)
      | None -> push_case v acc rest)
  in
  {
    push = (fun v acc -> push_case (get v) (o.push v acc) cases);
    build =
      (fun fields ->
        let f = o.build fields in
        let tag =
          match List.assoc_opt name fields with Some j -> member name string j | None -> missing name
        in
        match List.find_opt (fun (Case (t, _, _, _)) -> t = tag) cases with
        | Some (Case (_, c, inject, _)) -> f (inject (c.build fields))
        | None -> raise (Error (name, Printf.sprintf "unknown kind %S" tag)));
  }
