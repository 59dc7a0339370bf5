(* Regression tests for bugs found (and fixed) during development.
   Each test documents the original failure mode. *)
open Su_sim
open Su_fs

(* Bug: the indirect-branch pointer setter did not write the inode's
   size through to its buffer; once the in-core inode was recycled the
   directory "forgot" it had grown past 12 blocks, losing entry 1535
   (the first one in an indirect directory block). *)
let test_directory_grows_into_indirect () =
  let cfg =
    { (Fs.config ~scheme:Fs.No_order ()) with
      Fs.geom = Su_fstypes.Geom.small;
      cache_mb = 16 }
  in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine (fun () ->
         let st = w.Fs.st in
         Fsops.mkdir st "/d";
         (* 12 blocks x 128 slots = 1536 entries incl. "." and "..";
            going past that exercises the indirect path *)
         for i = 1 to 1600 do
           let p = Printf.sprintf "/d/f%d" i in
           Fsops.create st p;
           if not (Fsops.exists st p) then
             Alcotest.failf "entry lost at %d (indirect growth bug)" i
         done;
         Alcotest.(check bool) "directory uses indirect blocks" true
           ((Fsops.stat st "/d").Fsops.st_size > 12 * 8192);
         (* and the whole directory remains enumerable and removable *)
         Alcotest.(check int) "readdir sees all" 1602
           (List.length (Fsops.readdir st "/d"));
         for i = 1 to 1600 do
           Fsops.unlink st (Printf.sprintf "/d/f%d" i)
         done;
         Fsops.rmdir st "/d";
         Fsops.sync st;
         let r =
           Fsck.check ~geom:cfg.Fs.geom
             ~image:(Su_disk.Disk.image_snapshot w.Fs.disk)
             ~check_exposure:false
         in
         Alcotest.(check bool) "clean" true (Fsck.ok r);
         Fs.stop w));
  Engine.run w.Fs.engine

(* Bug: two processes missing the inode cache concurrently (the read
   blocks) built two in-core copies with two locks, losing one of two
   concurrent link-count increments on the shared parent. *)
let test_iget_double_fetch_race () =
  let cfg =
    { (Fs.config ~scheme:Fs.Conventional ()) with Fs.geom = Su_fstypes.Geom.small }
  in
  let w = Fs.make cfg in
  ignore (Proc.spawn w.Fs.engine ~name:"u1" (fun () -> Fsops.mkdir w.Fs.st "/a"));
  ignore (Proc.spawn w.Fs.engine ~name:"u2" (fun () -> Fsops.mkdir w.Fs.st "/b"));
  ignore
    (Proc.spawn w.Fs.engine ~name:"ctl" (fun () ->
         Proc.sleep w.Fs.engine 10.0;
         Alcotest.(check int) "both mkdirs counted" 4
           (Fsops.stat w.Fs.st "/").Fsops.st_nlink;
         Fsops.sync w.Fs.st;
         Fs.stop w));
  Engine.run w.Fs.engine

(* Bug: big files allocate full tail blocks while frags_in_block
   reported a partial tail, producing extent-length mismatches between
   the write and read paths. *)
let test_large_file_tail_extent () =
  let cfg =
    { (Fs.config ~scheme:Fs.No_order ()) with Fs.geom = Su_fstypes.Geom.small }
  in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine (fun () ->
         let st = w.Fs.st in
         Fsops.create st "/big";
         (* > 12 blocks with a non-block-aligned tail: large files
            allocate a full tail block, so reads cover 15 blocks *)
         Fsops.append st "/big" ~bytes:((14 * 8192) + 3000);
         Alcotest.(check int) "all extents readable" (15 * 8)
           (Fsops.read_file st "/big");
         Alcotest.(check int) "logical size intact" ((14 * 8192) + 3000)
           (Fsops.stat st "/big").Fsops.st_size;
         Fs.stop w));
  Engine.run w.Fs.engine

(* Bug: fsck originally flagged referenced-but-marked-free resources
   as violations; free maps are delayed writes under every scheme, so
   a crashed conventional run always showed them. They must count as
   repairable. *)
let test_stale_maps_not_violations () =
  let cfg =
    { (Fs.config ~scheme:Fs.Conventional ()) with
      Fs.geom = Su_fstypes.Geom.small;
      cache_mb = 8 }
  in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine (fun () ->
         let st = w.Fs.st in
         Fsops.mkdir st "/d";
         for i = 1 to 60 do
           let p = Printf.sprintf "/d/f%d" i in
           Fsops.create st p;
           Fsops.append st p ~bytes:4096
         done));
  (* crash mid-run, while the (delayed) bitmap writes are still dirty *)
  let r = Crash.crash_and_check w 1.8 in
  Alcotest.(check bool) "conventional crash is consistent" true (Fsck.ok r);
  Alcotest.(check bool) "stale maps present but repairable" true
    (r.Fsck.stale_free > 0)

(* Reentrant mutex: a process may re-lock a mutex it holds (deferred
   decrements run inline under the conventional scheme). *)
let test_mutex_reentrancy () =
  let e = Engine.create () in
  let m = Su_sim.Sync.Mutex.create e in
  let reached = ref false in
  ignore
    (Proc.spawn e (fun () ->
         Su_sim.Sync.Mutex.with_lock m (fun () ->
             Su_sim.Sync.Mutex.with_lock m (fun () -> reached := true))));
  Engine.run e;
  Alcotest.(check bool) "nested lock did not deadlock" true !reached;
  Alcotest.(check bool) "released" false (Su_sim.Sync.Mutex.locked m)

(* Buffer cell serialisation round-trips. *)
let prop_buf_cells_roundtrip =
  QCheck.Test.make ~name:"data content survives to_cells/of_cells" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (option (int_bound 1000)))
    (fun slots ->
      let stamps =
        Array.of_list
          (List.map
             (Option.map (fun i ->
                  Su_fstypes.Types.Written { inum = i; gen = 1; flbn = 0 }))
             slots)
      in
      let content = Su_cache.Buf.Cdata stamps in
      let cells = Su_cache.Buf.payload content ~nfrags:(Array.length stamps) in
      match Su_cache.Buf.of_cells cells with
      | Su_cache.Buf.Cdata back -> back = stamps
      | Su_cache.Buf.Cmeta _ -> false)

let suite =
  [
    Alcotest.test_case "directory grows into indirect" `Quick
      test_directory_grows_into_indirect;
    Alcotest.test_case "iget double-fetch race" `Quick
      test_iget_double_fetch_race;
    Alcotest.test_case "large file tail extent" `Quick
      test_large_file_tail_extent;
    Alcotest.test_case "stale maps are repairable" `Quick
      test_stale_maps_not_violations;
    Alcotest.test_case "mutex reentrancy" `Quick test_mutex_reentrancy;
    QCheck_alcotest.to_alcotest prop_buf_cells_roundtrip;
  ]
