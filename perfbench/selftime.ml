(* Self time of nested trace spans, and the span export.

   Spans on one track nest as closed intervals. A span's self time is its
   duration minus the part its direct children cover, so the self times
   of a span tree add up to the root's duration exactly. *)

type node = {
  ev : Obs.Trace.event;
  self_us : float;
  id : string;  (** the [id] argument of the span or of its nearest ancestor with one *)
  root : string;  (** name of the outermost enclosing span (itself for a root) *)
}

let arg_id (e : Obs.Trace.event) : string option =
  match List.assoc_opt "id" e.Obs.Trace.args with Some (Obs.Jsonw.Str s) -> Some s | _ -> None

let ends (e : Obs.Trace.event) = e.Obs.Trace.ts_us +. e.Obs.Trace.dur_us

(* A child may end a few nanoseconds after its parent: both read the clock
   separately, and a parent's end is read after the child's. *)
let eps_us = 0.01

(* Events in any order; the result is in start order per track. *)
let analyze (events : Obs.Trace.event list) : node list =
  let by_track = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let l = try Hashtbl.find by_track e.Obs.Trace.tid with Not_found -> [] in
      Hashtbl.replace by_track e.Obs.Trace.tid (e :: l))
    events;
  let out = ref [] in
  Hashtbl.iter
    (fun _ evs ->
      (* Start order; an enclosing span before the spans it contains. *)
      let evs =
        List.sort
          (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
            compare (a.Obs.Trace.ts_us, -.a.Obs.Trace.dur_us) (b.Obs.Trace.ts_us, -.b.Obs.Trace.dur_us))
          evs
      in
      (* Open spans, innermost first: (event, covered-by-children, id, root). *)
      let stack = ref [] in
      let close (e, covered, id, root) =
        out := { ev = e; self_us = e.Obs.Trace.dur_us -. covered; id; root } :: !out
      in
      (* Spans start in order, so [e] nests in an open span iff it ends
         before that span does. *)
      let rec pop_until (e : Obs.Trace.event) =
        match !stack with
        | ((p, _, _, _) as top) :: rest when ends e > ends p +. eps_us ->
          stack := rest;
          close top;
          pop_until e
        | _ -> ()
      in
      List.iter
        (fun (e : Obs.Trace.event) ->
          pop_until e;
          let id, root =
            match !stack with
            | (p, covered, pid, proot) :: rest ->
              stack := (p, covered +. e.Obs.Trace.dur_us, pid, proot) :: rest;
              ((match arg_id e with Some i -> i | None -> pid), proot)
            | [] -> ((match arg_id e with Some i -> i | None -> ""), e.Obs.Trace.name)
          in
          stack := (e, 0.0, id, root) :: !stack)
        evs;
      List.iter close !stack)
    by_track;
  List.sort
    (fun a b -> compare (a.ev.Obs.Trace.tid, a.ev.Obs.Trace.ts_us) (b.ev.Obs.Trace.tid, b.ev.Obs.Trace.ts_us))
    !out

(* Total self time per span name, in microseconds. *)
let self_by_name (nodes : node list) : (string * float) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let k = n.ev.Obs.Trace.name in
      Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0.0) +. n.self_us))
    nodes;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Chrome trace-event document (loads in ui.perfetto.dev), with every
   span's [id] argument filled in from its ancestors. *)
let export (nodes : node list) : Obs.Jsonw.t =
  let event n =
    let e = n.ev in
    let args = List.remove_assoc "id" e.Obs.Trace.args in
    Obs.Jsonw.Obj
      [
        ("name", Obs.Jsonw.Str e.Obs.Trace.name);
        ("cat", Obs.Jsonw.Str e.Obs.Trace.cat);
        ("ph", Obs.Jsonw.Str "X");
        ("ts", Obs.Jsonw.Float e.Obs.Trace.ts_us);
        ("dur", Obs.Jsonw.Float e.Obs.Trace.dur_us);
        ("pid", Obs.Jsonw.Int 1);
        ("tid", Obs.Jsonw.Int e.Obs.Trace.tid);
        ("args", Obs.Jsonw.Obj (("id", Obs.Jsonw.Str n.id) :: ("self_us", Obs.Jsonw.Float n.self_us) :: args));
      ]
  in
  Obs.Jsonw.Obj
    [ ("traceEvents", Obs.Jsonw.List (List.map event nodes)); ("displayTimeUnit", Obs.Jsonw.Str "ms") ]
