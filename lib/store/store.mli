(** Crash-safe files: the one on-disk discipline under the plan cache,
    the kernel cache and the daemon's metrics file.

    + {e Atomic publish}: write a unique temp file ([Filename.temp_file])
      in the target's directory, [fsync] it, rename it over the target,
      [fsync] the directory. A lock-free reader, or a process restarted
      after [kill -9] or a crash, sees the old file or the new one, never
      a torn one.
    + {e Exclusion}: the lock on a path excludes other processes, by
      [Unix.lockf] on [path ^ ".lock"], and other domains of this
      process, by an in-process lock per path. A lockf lock belongs to
      the process, so two domains would otherwise both hold it; and
      closing any descriptor of a file drops the process's lock on it,
      so a lock file is never open twice at once here. Lock files are
      never unlinked: that races a third process into locking a dead
      inode while a fourth creates a fresh one.

    Callers deal with what a crash cannot prevent (a corrupt or foreign
    file under a path). Nothing here prunes a directory. *)

(** [mkdir_p dir] — create [dir] and its missing parents. *)
val mkdir_p : string -> unit

(** [with_lock path f] — [f ()] under [path]'s lock. Where the lock file
    cannot be opened (a read-only directory) only domains are excluded. *)
val with_lock : string -> (unit -> 'a) -> 'a

(** [with_locks paths f] — [f ()] under every path's lock, taken once
    each in sorted order, so that overlapping batches cannot deadlock. *)
val with_locks : string list -> (unit -> 'a) -> 'a

(** [publish path contents] — replace [path]'s contents atomically and
    durably. Raises on an I/O error, leaving no temp file. *)
val publish : string -> string -> unit

(** [publish_links ~src paths] — publish the file [src] under each path
    of its directory: [fsync] [src] once, hard-link it to a temp name and
    rename that over the path, or {!publish} a copy where links fail.
    Call {!sync_dir} once after a batch. *)
val publish_links : src:string -> string list -> unit

(** [sync_dir dir] — [fsync] [dir], ignoring errors. *)
val sync_dir : string -> unit

(** [read ?limit path] — the first [limit] bytes of [path] (default all).
    Raises [Sys_error] or [End_of_file] on an I/O error. *)
val read : ?limit:int -> string -> string
