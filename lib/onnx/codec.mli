(** Bidirectional JSON codecs: a document schema is one declaration that
    yields both its encoder (to the write-side {!Obs.Jsonw.t}) and its
    decoder (from a parsed {!Json.t}), so a member cannot be added to one
    direction only.

    Decoding is strict: a missing member, a value of the wrong type or a
    number that is not an exact integer where an [int] is declared is an
    error naming the member path (e.g. [kernels[3].prims[0]: Json: 2.5 is
    not an int]). Unknown members are ignored (forward compatibility). *)

type 'a t

val encode : 'a t -> 'a -> Obs.Jsonw.t

(** [decode c j] never raises. *)
val decode : 'a t -> Json.t -> ('a, string) result

(** Reject a value from inside a decoder or an object constructor; the
    error carries the path of the enclosing member. *)
val fail : string -> 'a

val int : int t
val float : float t
val string : string t
val bool : bool t
val list : 'a t -> 'a list t

(** One of a fixed set of strings, e.g. a status or a schema version. *)
val enum : (string * 'a) list -> 'a t

(** Any JSON value, kept as parsed; encodes value-exactly. *)
val json : Json.t t

(** [fix f] — the codec [c = f c] of a recursive document; [f] may
    store [c] in the codecs it builds but not run it. *)
val fix : ('a t -> 'a t) -> 'a t

(** A leaf codec over an existing writer and reader. *)
val custom : encode:('a -> Obs.Jsonw.t) -> decode:(Json.t -> 'a) -> 'a t

(** [map of_a to_a c] — [c]'s document for another type, e.g. an array
    as a list; [of_a] may {!fail}. *)
val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

(** {2 Objects}

    Built member by member from a constructor that takes the decoded
    members in declaration order, and each member's getter; members
    encode in the same order. *)

type ('o, 'f) obj

val obj : 'f -> ('o, 'f) obj

(** A required member. *)
val field : string -> 'a t -> ('o -> 'a) -> ('o, 'a -> 'f) obj -> ('o, 'f) obj

(** An optional member: omitted when [None]; absent or [null] decodes to
    [None]. *)
val opt : string -> 'a t -> ('o -> 'a option) -> ('o, 'a option -> 'f) obj -> ('o, 'f) obj

val finish : ('o, 'o) obj -> 'o t

(** {2 Tagged kinds} *)

type 'a case

(** [case tag members inject project] — the case tagged [tag]. *)
val case : string -> ('b, 'b) obj -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

(** [kind name cases get] — a tagged union spliced into the enclosing
    object: member [name] holds the tag, the case's own members follow. *)
val kind : string -> 'a case list -> ('o -> 'a) -> ('o, 'a -> 'f) obj -> ('o, 'f) obj
