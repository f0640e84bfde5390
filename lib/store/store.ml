(** Crash-safe files (see the interface for the discipline). *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* The paths whose lock a domain of this process holds. [held_lock]
   guards the set only: a domain waits on [released] for its own path,
   so a lock held on one path never blocks another. *)
let held : (string, unit) Hashtbl.t = Hashtbl.create 16
let held_lock = Mutex.create ()
let released = Condition.create ()

let with_lock path f =
  Mutex.protect held_lock (fun () ->
      while Hashtbl.mem held path do
        Condition.wait released held_lock
      done;
      Hashtbl.replace held path ());
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect held_lock (fun () ->
          Hashtbl.remove held path;
          Condition.broadcast released))
    (fun () ->
      match Unix.openfile (path ^ ".lock") [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644 with
      | exception Unix.Unix_error _ -> f ()
      | fd ->
        (* Closing the one descriptor of the lock file releases it. *)
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
            f ()))

let with_locks paths f =
  List.fold_right (fun p k () -> with_lock p k) (List.sort_uniq String.compare paths) f ()

let read ?(limit = max_int) path =
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (min limit (Int64.to_int (In_channel.length ic))))

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let sync_dir dir = try fsync_path dir with Unix.Unix_error _ -> ()

(* A fresh name next to [path], created exclusively for this caller. *)
let temp_next_to path =
  Filename.temp_file ~temp_dir:(Filename.dirname path) ("." ^ Filename.basename path) ".tmp"

(* [fill ()] writes [tmp], then [tmp] is renamed over [path]; on failure it goes. *)
let rename_over ~tmp path fill =
  try
    fill ();
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let publish path contents =
  let tmp = temp_next_to path in
  rename_over ~tmp path (fun () ->
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.fchmod fd 0o644;
          ignore (Unix.write_substring fd contents 0 (String.length contents));
          Unix.fsync fd));
  sync_dir (Filename.dirname path)

let publish_links ~src paths =
  fsync_path src;
  List.iter
    (fun path ->
      let tmp = temp_next_to path in
      Sys.remove tmp;
      match Unix.link src tmp with
      | () -> rename_over ~tmp path ignore
      | exception Unix.Unix_error _ -> publish path (read src))
    paths
