(* Tests for lib/store: the lock excludes processes and domains,
   locks on different paths are independent, batches cannot deadlock,
   concurrent publishes leave one whole file and no temp file, and
   hard-link publishes carry the source's bytes. *)

let tmp_root =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "korch-test-store-%d" (Unix.getpid ()))
  in
  Store.mkdir_p d;
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)));
  d

let fresh_dir name =
  let d = Filename.concat tmp_root name in
  Store.mkdir_p d;
  d

let in_domains n f = List.iter Domain.join (List.init n (fun i -> Domain.spawn (fun () -> f i)))

let spin () =
  for _ = 1 to 200 do
    Domain.cpu_relax ()
  done

(* A path locked by another process is taken only once that process
   lets go: the holder writes a marker just before it releases. *)
let test_lock_excludes_processes () =
  let dir = fresh_dir "procs" in
  let path = Filename.concat dir "entry" and marker = Filename.concat dir "released" in
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Store.with_lock path (fun () ->
        ignore (Unix.write_substring ready_w "x" 0 1);
        Unix.sleepf 0.2;
        Store.publish marker "");
    Unix._exit 0
  | child ->
    ignore (Unix.read ready_r (Bytes.create 1) 0 1);
    let after_release = Store.with_lock path (fun () -> Sys.file_exists marker) in
    ignore (Unix.waitpid [] child);
    List.iter Unix.close [ ready_r; ready_w ];
    Alcotest.(check bool) "taken after the other process released it" true after_release

(* Two domains under one path's lock never hold it at once. *)
let test_lock_excludes_domains () =
  let path = Filename.concat (fresh_dir "excl") "entry" in
  let holders = Atomic.make 0 and peak = Atomic.make 0 in
  in_domains 2 (fun _ ->
      for _ = 1 to 2000 do
        Store.with_lock path (fun () ->
            let h = Atomic.fetch_and_add holders 1 + 1 in
            if h > Atomic.get peak then Atomic.set peak h;
            spin ();
            Atomic.decr holders)
      done);
  Alcotest.(check int) "peak holders" 1 (Atomic.get peak);
  Alcotest.(check bool) "lock file kept" true (Sys.file_exists (path ^ ".lock"))

(* A lock held on one path does not block another path. *)
let test_lock_per_path () =
  let dir = fresh_dir "per-path" in
  let inside = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Store.with_lock (Filename.concat dir "x") (fun () ->
            Atomic.set inside true;
            (* Released by the main domain, or after 10 s at most. *)
            let deadline = Unix.gettimeofday () +. 10.0 in
            while (not (Atomic.get release)) && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.001
            done))
  in
  while not (Atomic.get inside) do
    Domain.cpu_relax ()
  done;
  let other = Store.with_lock (Filename.concat dir "y") (fun () -> not (Atomic.get release)) in
  Atomic.set release true;
  Domain.join holder;
  Alcotest.(check bool) "y locked while x held" true other

(* Batches over the same paths in opposite orders finish. *)
let test_batches_sorted () =
  let dir = fresh_dir "batches" in
  let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
  let runs = Atomic.make 0 in
  in_domains 2 (fun i ->
      for _ = 1 to 500 do
        Store.with_locks (if i = 0 then [ a; b; a ] else [ b; a ]) (fun () -> Atomic.incr runs)
      done);
  Alcotest.(check int) "every batch ran" 1000 (Atomic.get runs)

(* Domains publish contents of different lengths to one path while
   another reads it: every read and the final file are one of them in
   full, and no temp file is left. *)
let test_publish_concurrent () =
  let dir = fresh_dir "publish" in
  let path = Filename.concat dir "metrics.json" in
  let contents = List.init 4 (fun i -> String.make (1 + (i * 4096)) (Char.chr (97 + i))) in
  Store.publish path (List.hd contents);
  let writing = Atomic.make true in
  let reader =
    Domain.spawn (fun () ->
        let torn = ref 0 in
        while Atomic.get writing do
          if not (List.mem (Store.read path) contents) then incr torn
        done;
        !torn)
  in
  in_domains 4 (fun i ->
      for _ = 1 to 25 do
        Store.publish path (List.nth contents i)
      done);
  Atomic.set writing false;
  Alcotest.(check int) "torn reads" 0 (Domain.join reader);
  Alcotest.(check bool) "whole" true (List.mem (Store.read path) contents);
  Alcotest.(check (list string)) "no temp file" [ "metrics.json" ]
    (Array.to_list (Sys.readdir dir))

(* Each target gets the source's bytes, over an old file too; the
   source is left to its owner and no temp file stays. *)
let test_publish_links () =
  let dir = fresh_dir "links" in
  let src = Filename.concat dir "object.tmp" in
  Out_channel.with_open_bin src (fun oc -> output_string oc "object bytes");
  let targets = List.map (Filename.concat dir) [ "a.so"; "b.so" ] in
  Store.publish (List.hd targets) "old";
  Store.publish_links ~src targets;
  List.iter
    (fun p -> Alcotest.(check string) (Filename.basename p) "object bytes" (Store.read p))
    targets;
  Alcotest.(check string) "bounded read" "object" (Store.read ~limit:6 (List.hd targets));
  Alcotest.(check (list string)) "files" [ "a.so"; "b.so"; "object.tmp" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let () =
  Alcotest.run "store"
    [
      ( "lock",
        [
          Alcotest.test_case "another process holds the lock" `Quick test_lock_excludes_processes;
          Alcotest.test_case "two domains never hold one lock" `Quick test_lock_excludes_domains;
          Alcotest.test_case "locks on other paths are free" `Quick test_lock_per_path;
          Alcotest.test_case "batches in opposite orders finish" `Quick test_batches_sorted;
        ] );
      ( "publish",
        [
          Alcotest.test_case "concurrent publishes leave one whole file" `Quick
            test_publish_concurrent;
          Alcotest.test_case "hard-link publish" `Quick test_publish_links;
        ] );
    ]
