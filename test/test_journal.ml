(* The journaled-scheme extension: write-ahead logging, recovery by
   log replay, fsck repair and image remounting. *)
open Su_sim
open Su_fs
open Su_util

let jsync = Fs.Journaled { group_commit = false }
let jgroup = Fs.Journaled { group_commit = true }

let small_config scheme =
  { (Fs.config ~scheme ()) with
    Fs.geom = Su_fstypes.Geom.small;
    cache_mb = 8;
    journal_mb = 2 }

let run_world w f =
  let result = ref None in
  ignore
    (Proc.spawn w.Fs.engine ~name:"t" (fun () ->
         result := Some (f ());
         Fs.stop w));
  Engine.run w.Fs.engine;
  Option.get !result

let test_journal_basic_ops mode () =
  let w = Fs.make (small_config mode) in
  run_world w (fun () ->
      let st = w.Fs.st in
      Fsops.mkdir st "/d";
      Fsops.create st "/d/a";
      Fsops.append st "/d/a" ~bytes:6000;
      Fsops.rename st ~src:"/d/a" ~dst:"/d/b";
      Alcotest.(check int) "size survives" 6000 (Fsops.stat st "/d/b").Fsops.st_size;
      Fsops.unlink st "/d/b";
      Fsops.sync st;
      let stats = Option.get st.State.journal_stats in
      Alcotest.(check bool) "transactions logged" true
        (stats.Su_core.Journaled.txns > 0);
      let r =
        Fsck.check ~geom:w.Fs.cfg.Fs.geom
          ~image:(Su_disk.Disk.image_snapshot w.Fs.disk)
          ~check_exposure:false
      in
      Alcotest.(check bool) "clean after sync" true (Fsck.ok r))

let crash_workload st rng () =
  Fsops.mkdir st "/w";
  let live = ref [] in
  for i = 1 to 150 do
    match Rng.int rng 6 with
    | 0 | 1 | 2 ->
      let p = Printf.sprintf "/w/f%d" i in
      Fsops.create st p;
      Fsops.append st p ~bytes:(1024 * Rng.int_range rng 1 8);
      live := p :: !live
    | 3 ->
      (match !live with
       | p :: rest -> Fsops.unlink st p; live := rest
       | [] -> ())
    | 4 ->
      Fsops.mkdir st (Printf.sprintf "/w/d%d" i)
    | _ ->
      (match !live with p :: _ -> ignore (Fsops.read_file st p) | [] -> ())
  done

let test_journal_crash_recovery mode () =
  List.iteri
    (fun i t ->
      let w = Fs.make (small_config mode) in
      ignore
        (Proc.spawn w.Fs.engine ~name:"w" (crash_workload w.Fs.st (Rng.create (700 + i))));
      let r = Crash.crash_and_check w t in
      if not (Fsck.ok r) then
        List.iter
          (fun v -> Format.eprintf "[journal t=%.2f] %a@." t Fsck.pp_violation v)
          r.Fsck.violations;
      Alcotest.(check bool)
        (Printf.sprintf "consistent after replay at %.2f" t)
        true (Fsck.ok r))
    [ 0.05; 0.4; 1.3; 3.1; 7.7; 20.0 ]

let test_journal_metadata_durability () =
  (* sync-commit journaling makes metadata durable immediately: crash
     right after the creates, recover, and the files must exist *)
  let w = Fs.make (small_config jsync) in
  let created = ref 0 in
  ignore
    (Proc.spawn w.Fs.engine ~name:"w" (fun () ->
         let st = w.Fs.st in
         Fsops.mkdir st "/d";
         for i = 1 to 40 do
           Fsops.create st (Printf.sprintf "/d/f%d" i);
           created := i
         done));
  (* far enough that some creates committed, well before the syncer
     writes anything in place *)
  let image = Crash.crash_at w 0.5 in
  Alcotest.(check bool) "some creates happened" true (!created > 5);
  let r = Crash.check w.Fs.cfg image in
  Alcotest.(check bool) "consistent" true (Fsck.ok r);
  (* every create whose transaction committed before the crash is
     visible after replay; with sync commit that is all of them *)
  Alcotest.(check bool) "files recovered from the log" true
    (r.Fsck.files >= !created - 1)

let test_journal_group_commit_window () =
  (* group commit: metadata in the commit window is lost, but the
     image stays consistent *)
  let w = Fs.make (small_config jgroup) in
  ignore
    (Proc.spawn w.Fs.engine ~name:"w" (fun () ->
         let st = w.Fs.st in
         Fsops.mkdir st "/d";
         for i = 1 to 40 do
           Fsops.create st (Printf.sprintf "/d/f%d" i)
         done));
  let r = Crash.crash_and_check w 0.5 in
  Alcotest.(check bool) "consistent" true (Fsck.ok r)

(* A group-commit batch whose log write the driver fails after its
   retries was never durable: its buffers stay pinned, and the next
   commit raises the error, typed at the syscall, as a failed
   synchronous commit does. *)
let test_group_commit_failed_batch () =
  let cfg = small_config jgroup in
  let log_start = cfg.Fs.geom.Su_fstypes.Geom.nfrags in
  let cfg =
    { cfg with
      Fs.fault =
        { Su_disk.Fault.none with
          bad_sectors = List.init 16 (fun i -> log_start + i) } }
  in
  let w = Fs.make cfg in
  let pinned, next =
    run_world w (fun () ->
        let st = w.Fs.st in
        Fsops.mkdir st "/d";
        Fsops.create st "/d/a";
        (* the flusher writes the batch, and the write fails *)
        Proc.sleep w.Fs.engine 5.0;
        ( List.exists
            (fun (b : Su_cache.Buf.t) -> b.Su_cache.Buf.sticky)
            (Su_cache.Bcache.all_bufs w.Fs.cache),
          match Fsops.create st "/d/b" with
          | () -> None
          | exception Fsops.Eio msg -> Some msg ))
  in
  Alcotest.(check bool) "the failed batch keeps its pins" true pinned;
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  match next with
  | Some msg ->
    Alcotest.(check bool) ("a bad-sector error: " ^ msg) true (contains msg "bad sector")
  | None -> Alcotest.fail "the next commit succeeded"

let test_repair_no_order_crash () =
  (* the unsafe baseline leaves violations; repair must clean them and
     the repaired image must be remountable *)
  let cfg = small_config Fs.No_order in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine ~name:"w" (crash_workload w.Fs.st (Rng.create 9)));
  let image = Crash.crash_at w 6.0 in
  let before = Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure:false in
  Alcotest.(check bool) "broken before repair" false (Fsck.ok before);
  let { Fsck.actions; final = after; _ } =
    Fsck.repair ~geom:cfg.Fs.geom ~image ~check_exposure:false ()
  in
  Alcotest.(check bool) "repair acted" true (List.length actions > 0);
  if not (Fsck.ok after) then
    List.iter
      (fun v -> Format.eprintf "[after repair] %a@." Fsck.pp_violation v)
      after.Fsck.violations;
  Alcotest.(check bool) "clean after repair" true (Fsck.ok after);
  Alcotest.(check int) "no leaks after map rebuild" 0 after.Fsck.leaked_frags;
  (* remount and keep using the volume *)
  let w2 = Fs.mount_image cfg image in
  run_world w2 (fun () ->
      let st = w2.Fs.st in
      Fsops.create st "/after-repair";
      Fsops.append st "/after-repair" ~bytes:4096;
      Fsops.sync st;
      let r =
        Fsck.check ~geom:cfg.Fs.geom
          ~image:(Su_disk.Disk.image_snapshot w2.Fs.disk)
          ~check_exposure:false
      in
      Alcotest.(check bool) "still clean after reuse" true (Fsck.ok r))

let test_repair_idempotent_on_clean () =
  let cfg = small_config Fs.Soft_updates in
  let w = Fs.make cfg in
  run_world w (fun () ->
      Fsops.mkdir w.Fs.st "/d";
      Fsops.create w.Fs.st "/d/x";
      Fsops.append w.Fs.st "/d/x" ~bytes:2048;
      Fsops.sync w.Fs.st);
  let image = Su_disk.Disk.image_snapshot w.Fs.disk in
  let { Fsck.actions; final = after; _ } =
    Fsck.repair ~geom:cfg.Fs.geom ~image ~check_exposure:true ()
  in
  Alcotest.(check bool) "clean stays clean" true (Fsck.ok after);
  (* only the unconditional map rebuild *)
  Alcotest.(check bool) "no destructive actions" true
    (List.for_all
       (function Fsck.Rebuilt_maps -> true | _ -> false)
       actions);
  Alcotest.(check int) "file survives" 1 after.Fsck.files

let test_mount_image_roundtrip () =
  let cfg = small_config Fs.Soft_updates in
  let w = Fs.make cfg in
  run_world w (fun () ->
      Fsops.mkdir w.Fs.st "/keep";
      Fsops.create w.Fs.st "/keep/data";
      Fsops.append w.Fs.st "/keep/data" ~bytes:12_288;
      Fsops.sync w.Fs.st);
  let image = Su_disk.Disk.image_snapshot w.Fs.disk in
  let w2 = Fs.mount_image cfg image in
  run_world w2 (fun () ->
      let st = w2.Fs.st in
      Alcotest.(check int) "size preserved" 12_288
        (Fsops.stat st "/keep/data").Fsops.st_size;
      Alcotest.(check int) "readable" 12 (Fsops.read_file st "/keep/data");
      (* allocation state carried over: new files do not collide *)
      Fsops.create st "/keep/more";
      Fsops.append st "/keep/more" ~bytes:8192;
      Fsops.sync st;
      let r =
        Fsck.check ~geom:cfg.Fs.geom
          ~image:(Su_disk.Disk.image_snapshot w2.Fs.disk)
          ~check_exposure:true
      in
      Alcotest.(check bool) "clean" true (Fsck.ok r);
      Alcotest.(check int) "two files" 2 r.Fsck.files)

let test_remount_retires_stale_log () =
  (* a mount must not leave the previous mount's log behind: the new
     journal restarts at sequence zero, so the old records would replay
     last at the next recovery, over the newer metadata *)
  let cfg = small_config jsync in
  let w = Fs.make cfg in
  run_world w (fun () ->
      let st = w.Fs.st in
      Fsops.mkdir st "/d";
      for i = 1 to 30 do
        Fsops.create st (Printf.sprintf "/d/f%d" i)
      done;
      (* logged last, so the new mount's few records overwrite none
         of the records for /d/a *)
      Fsops.create st "/d/a";
      Fsops.append st "/d/a" ~bytes:2048;
      Fsops.sync st);
  let image = Su_disk.Disk.image_snapshot w.Fs.disk in
  let holds_log img =
    Array.exists (function Su_fstypes.Types.Jlog _ -> true | _ -> false) img
  in
  Alcotest.(check bool) "synced image still holds its log" true (holds_log image);
  let w2 = Fs.mount_image cfg image in
  Alcotest.(check bool) "the caller's image is not modified" true (holds_log image);
  run_world w2 (fun () ->
      Fsops.append w2.Fs.st "/d/a" ~bytes:1024;
      Fsops.sync w2.Fs.st);
  let final = Su_disk.Disk.image_snapshot w2.Fs.disk in
  Fs.recover_image cfg final;
  let w3 = Fs.mount_image cfg final in
  let size = run_world w3 (fun () -> (Fsops.stat w3.Fs.st "/d/a").Fsops.st_size) in
  Alcotest.(check int) "the append survives replay" 3072 size

(* Unobserved recovery installs each touched block once; observed
   recovery installs after every record. Both must land on the same
   image without touching the caller's cells, and the observed stream
   must keep the per-record write boundaries the explorer re-crashes
   at (its length is pinned). *)
let check_replay_equivalence cfg image ~events =
  let pristine = Array.map Su_fstypes.Types.copy_cell image in
  let unobserved = Array.copy image in
  Fs.recover_image cfg unobserved;
  let observed = Array.copy image in
  let r = Su_fstypes.Imglog.recorder () in
  Fs.recover_image ~observer:(Su_fstypes.Imglog.observe r) cfg observed;
  Alcotest.(check bool) "observed and unobserved replay agree" true
    (observed = unobserved);
  Alcotest.(check bool) "the caller's image is untouched" true (image = pristine);
  Alcotest.(check int) "observed write events" events (Su_fstypes.Imglog.count r)

let test_journal_wrap_checkpoint () =
  (* a tiny log forces wrap-around checkpoints *)
  let cfg = { (small_config jsync) with Fs.journal_mb = 1 } in
  let w = Fs.make cfg in
  run_world w (fun () ->
      let st = w.Fs.st in
      Fsops.mkdir st "/d";
      for i = 1 to 800 do
        let p = Printf.sprintf "/d/f%d" i in
        Fsops.create st p;
        if i mod 2 = 0 then Fsops.unlink st p
      done;
      Fsops.sync st;
      let stats = Option.get st.State.journal_stats in
      Alcotest.(check bool) "wrapped at least once" true
        (stats.Su_core.Journaled.wraps >= 1);
      let r =
        Fsck.check ~geom:cfg.Fs.geom
          ~image:(Su_disk.Disk.image_snapshot w.Fs.disk)
          ~check_exposure:false
      in
      Alcotest.(check bool) "clean across wraps" true (Fsck.ok r));
  check_replay_equivalence cfg (Su_disk.Disk.image_snapshot w.Fs.disk)
    ~events:2252

let test_replay_idempotent () =
  (* recovering twice yields the same state as recovering once *)
  let w = Fs.make (small_config jsync) in
  ignore
    (Proc.spawn w.Fs.engine ~name:"w" (crash_workload w.Fs.st (Rng.create 55)));
  let image = Crash.crash_at w 2.0 in
  let once = Array.map Su_fstypes.Types.copy_cell image in
  let r1 = Crash.check w.Fs.cfg once in
  let twice = Array.map Su_fstypes.Types.copy_cell once in
  let r2 = Crash.check w.Fs.cfg twice in
  Alcotest.(check bool) "once is clean" true (Fsck.ok r1);
  Alcotest.(check bool) "twice is clean" true (Fsck.ok r2);
  Alcotest.(check int) "same files" r1.Fsck.files r2.Fsck.files;
  Alcotest.(check int) "same dirs" r1.Fsck.dirs r2.Fsck.dirs;
  Alcotest.(check int) "same leaks" r1.Fsck.leaked_frags r2.Fsck.leaked_frags

let test_replay_equivalence () =
  let cfg = small_config jgroup in
  List.iter2
    (fun t events ->
      let w = Fs.make cfg in
      ignore
        (Proc.spawn w.Fs.engine ~name:"w" (crash_workload w.Fs.st (Rng.create 91)));
      check_replay_equivalence cfg (Crash.crash_at w t) ~events)
    [ 0.4; 1.3; 3.1; 7.7 ]
    [ 127; 524; 510; 498 ]

let test_journal_with_nvram () =
  (* log appends land in the NVRAM cache: sync commits become cheap
     and recovery still works *)
  let cfg = { (small_config jsync) with Fs.nvram_mb = 2 } in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine ~name:"w" (crash_workload w.Fs.st (Rng.create 77)));
  let r = Crash.crash_and_check w 1.5 in
  if not (Fsck.ok r) then
    List.iter
      (fun v -> Format.eprintf "[journal+nvram] %a@." Fsck.pp_violation v)
      r.Fsck.violations;
  Alcotest.(check bool) "consistent" true (Fsck.ok r);
  Alcotest.(check bool) "work recovered" true (r.Fsck.files > 0)

let suite =
  [
    Alcotest.test_case "journal with nvram" `Quick test_journal_with_nvram;
    Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent;
    Alcotest.test_case "journal basic (sync)" `Quick (test_journal_basic_ops jsync);
    Alcotest.test_case "journal basic (group)" `Quick
      (test_journal_basic_ops jgroup);
    Alcotest.test_case "journal crash recovery (sync)" `Quick
      (test_journal_crash_recovery jsync);
    Alcotest.test_case "journal crash recovery (group)" `Quick
      (test_journal_crash_recovery jgroup);
    Alcotest.test_case "journal metadata durability" `Quick
      test_journal_metadata_durability;
    Alcotest.test_case "journal group-commit window" `Quick
      test_journal_group_commit_window;
    Alcotest.test_case "group commit: a failed batch raises at the next commit"
      `Quick test_group_commit_failed_batch;
    Alcotest.test_case "repair no-order crash" `Quick test_repair_no_order_crash;
    Alcotest.test_case "repair idempotent on clean" `Quick
      test_repair_idempotent_on_clean;
    Alcotest.test_case "mount image roundtrip" `Quick test_mount_image_roundtrip;
    Alcotest.test_case "remount retires the stale log" `Quick
      test_remount_retires_stale_log;
    Alcotest.test_case "journal wrap checkpoint" `Quick
      test_journal_wrap_checkpoint;
    Alcotest.test_case "replay equivalence (group)" `Quick test_replay_equivalence;
  ]
