(* Online fault tolerance end to end: the permanent-fault campaign,
   its determinism under --jobs and its fail-fast fan-out, the shared
   remount probe, remap-heavy runs with zero model
   divergence, the typed Eio/Erofs syscall boundary, superblock
   replica restore at mount, and the background scrubber. *)
open Su_sim
open Su_fstypes
open Su_fs
module Campaign = Su_check.Campaign
module Explorer = Su_check.Explorer
module Fuzz = Su_workload.Fuzz

let soft_cfg = Explorer.sweep_cfg Fs.Soft_updates

(* Run [body] against a fresh world, catching whatever it raises, then
   wind the world down, ignoring what that raises. *)
let run_world ~cfg body =
  let w = Fs.make cfg in
  (w, Explorer.run ~wind_down:ignore w body)

(* The one runner: a clean body, a body's exception inline or in a
   child, and an engine that ends before the body does — stopped, or
   at the run's simulated-time horizon when the body parks forever
   (the syncer keeps re-arming, so the queue never drains). *)
let test_runner_outcomes () =
  let run ?child body = Explorer.run ?child (Fs.make soft_cfg) body in
  Alcotest.(check bool) "a clean body escapes nothing" true
    (Option.is_none (run (fun w -> Fsops.mkdir w.Fs.st "/d")));
  List.iter
    (fun child ->
      match run ~child (fun _ -> failwith "boom") with
      | Some (Failure msg) ->
        Alcotest.(check string) "the body's exception" "boom" msg
      | Some _ | None -> Alcotest.fail "expected the body's exception")
    [ false; true ];
  List.iter
    (fun body ->
      match run body with
      | Some Explorer.Hang -> ()
      | Some _ | None -> Alcotest.fail "expected Hang")
    [
      (fun w ->
        Engine.stop w.Fs.engine;
        Proc.suspend ignore);
      (fun _ -> Proc.suspend ignore);
    ]

(* --- the campaign ----------------------------------------------------- *)

let test_sweep_survives_or_fails_clean () =
  let wl = Option.get (Explorer.find_workload "renamefile") in
  let s =
    Campaign.sweep ~jobs:1 ~spares:8 ~max_injections:10 ~cfg:soft_cfg
      Campaign.Permanent wl
  in
  Alcotest.(check bool) "campaign passes" true (Campaign.ok s);
  Alcotest.(check int) "capped sector count" 10 s.Campaign.s_swept;
  Alcotest.(check bool) "touched set is larger" true
    (s.Campaign.s_planned > 10);
  Alcotest.(check int) "no escapes" 0 s.Campaign.s_escaped;
  Alcotest.(check int) "every run accounted" s.Campaign.s_swept
    (s.Campaign.s_completed + s.Campaign.s_failed_typed
     + s.Campaign.s_escaped)

let test_sweep_deterministic_across_jobs () =
  let wl = Option.get (Explorer.find_workload "renamefile") in
  let sweep jobs =
    Campaign.sweep ~jobs ~spares:8 ~max_injections:8 ~cfg:soft_cfg
      Campaign.Permanent wl
  in
  let s1 = sweep 1 and s2 = sweep 2 in
  Alcotest.(check bool) "identical summaries at any --jobs" true (s1 = s2)

(* Fail-fast stops after the fixed-size chunk holding the first
   rejected result and truncates just past it, at any [jobs]. *)
let test_fan_out_fail_fast () =
  List.iter
    (fun jobs ->
      let highest = Atomic.make (-1) in
      let rec raise_to i =
        let h = Atomic.get highest in
        if i > h && not (Atomic.compare_and_set highest h i) then raise_to i
      in
      let got =
        Explorer.fan_out ~jobs ~fail_fast:true
          ~clean:(fun i -> i < 11)
          ~init:ignore 40
          (fun () i ->
            raise_to i;
            i)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "indices 0..11 at jobs %d" jobs)
        (List.init 12 Fun.id) got;
      Alcotest.(check bool)
        (Printf.sprintf "nothing past the failing chunk ran at jobs %d" jobs)
        true
        (Atomic.get highest < 16);
      Alcotest.(check (list int))
        (Printf.sprintf "without fail-fast, every index at jobs %d" jobs)
        (List.init 40 Fun.id)
        (Explorer.fan_out ~jobs ~fail_fast:false
           ~clean:(fun i -> i < 11)
           ~init:ignore 40
           (fun () i -> i));
      (* each worker threads its own state through ascending indices,
         in every chunk *)
      List.iter
        (fun fail_fast ->
          Alcotest.(check bool)
            (Printf.sprintf "per-worker state ascends at jobs %d" jobs)
            true
            (List.for_all Fun.id
               (Explorer.fan_out ~jobs ~fail_fast ~clean:Fun.id
                  ~init:(fun () -> ref (-1))
                  40
                  (fun last i ->
                    let ascending = i > !last in
                    last := i;
                    ascending))))
        [ false; true ])
    [ 1; 2 ]

(* --- remap-heavy run: completes with zero model divergence ------------ *)

let test_remap_heavy_zero_divergence () =
  let cfg = soft_cfg in
  let ops = Fuzz.gen ~seed:5 ~ops:14 in
  let wl = Fuzz.workload_of_ops ~name:"remapheavy" ops in
  (* data fragments are write-first (allocation initialisation), so
     faulting them exercises the remap path, never a read failure *)
  let recording = Explorer.record ~cfg wl in
  let data_lbns =
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun d ->
        Array.iteri
          (fun i c ->
            match c with
            | Types.Frag _ when Hashtbl.length seen < 4 ->
              Hashtbl.replace seen (d.Su_check.Delta.d_lbn + i) ()
            | _ -> ())
          d.Su_check.Delta.d_post)
      recording.Explorer.rec_deltas;
    Hashtbl.fold (fun k () acc -> k :: acc) seen []
  in
  Alcotest.(check bool) "found data fragments to fault" true
    (List.length data_lbns >= 2);
  let faulty =
    { cfg with
      Fs.fault = { Su_disk.Fault.none with bad_sectors = data_lbns };
      spare_frags = 16 }
  in
  let w, failed = run_world ~cfg:faulty (fun w -> wl.Explorer.wl_run w.Fs.st) in
  (match failed with
   | None -> ()
   | Some e -> Alcotest.fail ("run should complete: " ^ Printexc.to_string e));
  Alcotest.(check int) "every bad fragment remapped"
    (List.length data_lbns)
    (Su_disk.Disk.remaps w.Fs.disk);
  Alcotest.(check int) "health stayed clean" 0
    (Health.io_errors w.Fs.st.State.health);
  (* the logical image — remapped content resolved home, as a rebuilt
     replacement drive would hold it — must match the model exactly *)
  let image = Su_disk.Disk.logical_snapshot w.Fs.disk in
  Fs.recover_image cfg image;
  Alcotest.(check bool) "fsck clean" true
    (Fsck.ok (Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure:true));
  let clean_cfg =
    { cfg with Fs.fault = Su_disk.Fault.none; spare_frags = 0 }
  in
  Alcotest.(check (list string)) "zero model divergence" []
    (Fuzz.check_final_image ~cfg:clean_cfg image ops)

(* --- the typed syscall boundary --------------------------------------- *)

let test_readonly_refuses_mutation () =
  let cfg = { soft_cfg with Fs.geom = Geom.small } in
  let _w, failed =
    run_world ~cfg (fun w ->
        Fsops.create w.Fs.st "/before";
        Health.force_readonly w.Fs.st.State.health ~reason:"test";
        (* reads and flushes still work *)
        ignore (Fsops.stat w.Fs.st "/before");
        ignore (Fsops.readdir w.Fs.st "/");
        Fsops.sync w.Fs.st;
        Fsops.create w.Fs.st "/after")
  in
  match failed with
  | Some (Fsops.Erofs path) -> Alcotest.(check string) "path" "/after" path
  | Some e -> Alcotest.fail ("expected Erofs, got " ^ Printexc.to_string e)
  | None -> Alcotest.fail "mutation succeeded on a read-only volume"

let test_unreadable_metadata_raises_eio () =
  let cfg = { soft_cfg with Fs.geom = Geom.small } in
  let root_block = fst (Geom.cg_data_area cfg.Fs.geom 0) in
  let cfg =
    { cfg with
      Fs.fault = { Su_disk.Fault.none with bad_sectors = [ root_block ] } }
  in
  let w, failed =
    run_world ~cfg (fun w -> Fsops.create w.Fs.st "/victim")
  in
  (match failed with
   | Some (Fsops.Eio _) -> ()
   | Some e -> Alcotest.fail ("expected Eio, got " ^ Printexc.to_string e)
   | None -> Alcotest.fail "create over an unreadable root should fail");
  Alcotest.(check bool) "health heard the failure" true
    (Health.io_errors w.Fs.st.State.health > 0);
  Alcotest.(check bool) "volume degraded" true
    (Health.level w.Fs.st.State.health = Health.Degraded)

(* --- superblock replicas at mount ------------------------------------- *)

let is_superblock = function
  | Types.Meta (Types.Superblock _) -> true
  | _ -> false

let test_mount_restores_corrupt_replica () =
  let cfg = { soft_cfg with Fs.geom = Geom.small } in
  let w0 = Fs.make cfg in
  let image = Su_disk.Disk.image_snapshot w0.Fs.disk in
  let victim = Geom.cg_sb_frag cfg.Fs.geom 1 in
  image.(victim) <- Types.Frag Types.Zeroed;
  let w = Fs.mount_image cfg image in
  Alcotest.(check int) "one replica restored" 1
    (Health.sb_restored w.Fs.st.State.health);
  Alcotest.(check bool) "volume degraded, not dead" true
    (Health.level w.Fs.st.State.health = Health.Degraded);
  Alcotest.(check bool) "the copy is a superblock again" true
    (is_superblock (Su_disk.Disk.peek w.Fs.disk victim))

let test_mount_fails_clean_without_replicas () =
  let cfg = { soft_cfg with Fs.geom = Geom.small } in
  let w0 = Fs.make cfg in
  let image = Su_disk.Disk.image_snapshot w0.Fs.disk in
  for c = 0 to Geom.cg_count cfg.Fs.geom - 1 do
    image.(Geom.cg_sb_frag cfg.Fs.geom c) <- Types.Frag Types.Zeroed
  done;
  match Fs.mount_image cfg image with
  | _ -> Alcotest.fail "mount should refuse without a usable superblock"
  | exception Fs.Mount_failure _ -> ()

(* The shared remount probe says why it failed instead of a bare false. *)
let test_remount_probe_reports_mount_failure () =
  let cfg = { soft_cfg with Fs.geom = Geom.small } in
  let w0 = Fs.make cfg in
  let image = Su_disk.Disk.image_snapshot w0.Fs.disk in
  Alcotest.(check bool) "the intact image passes the probe" true
    (Crash.remount_probe ~dir:"/probe.d" cfg image = Ok ());
  for c = 0 to Geom.cg_count cfg.Fs.geom - 1 do
    image.(Geom.cg_sb_frag cfg.Fs.geom c) <- Types.Frag Types.Zeroed
  done;
  match Crash.remount_probe ~dir:"/probe.d" cfg image with
  | Ok () -> Alcotest.fail "probe passed without a usable superblock"
  | Error why ->
    let needle = "Mount_failure" in
    let n = String.length needle in
    let rec mem i =
      i + n <= String.length why && (String.sub why i n = needle || mem (i + 1))
    in
    Alcotest.(check bool) ("reason names Mount_failure: " ^ why) true (mem 0)

(* --- the background scrubber ------------------------------------------ *)

let test_scrub_repairs_latent_sb_fault () =
  (* group 0's superblock copy (fragment 0) is latently bad: nothing
     reads it at runtime, so only the scrubber can find it — and must
     heal it from a sister copy via a remapping rewrite *)
  let cfg =
    { soft_cfg with
      Fs.geom = Geom.small;
      fault = { Su_disk.Fault.none with bad_sectors = [ 0 ] };
      spare_frags = 8;
      scrub_interval = 0.01 }
  in
  let w, failed =
    run_world ~cfg (fun w ->
        ignore w;
        Proc.sleep w.Fs.engine 0.2)
  in
  (match failed with
   | None -> ()
   | Some e -> Alcotest.fail (Printexc.to_string e));
  let s = Option.get w.Fs.scrub in
  Alcotest.(check bool) "fragments probed" true (Scrub.scanned s > 0);
  Alcotest.(check int) "the latent bad sector found" 1 (Scrub.found s);
  Alcotest.(check int) "repaired from the sister replica" 1 (Scrub.repaired s);
  Alcotest.(check int) "nothing lost" 0 (Scrub.lost s);
  Alcotest.(check int) "healed via a remap" 1 (Su_disk.Disk.remaps w.Fs.disk);
  Alcotest.(check int) "health records the restore" 1
    (Health.sb_restored w.Fs.st.State.health);
  Alcotest.(check bool) "the copy reads back as a superblock" true
    (is_superblock (Su_disk.Disk.peek w.Fs.disk 0))

(* The rest of the ladder, rung by rung. Each case plants one latent
   fault in group 0, lets the scrubber's cursor pass it, and checks
   which rung took it. [setup] runs before the scrubber's first probe. *)
let scrub_past ?(spares = 8) ?(checksums = false) ?(fault = Su_disk.Fault.none)
    ?(after = ignore) ~bad ~past setup =
  let cfg =
    { soft_cfg with
      fault = { fault with Su_disk.Fault.bad_sectors = bad };
      spare_frags = spares;
      scrub_interval = 0.001;
      checksums }
  in
  let w, failed =
    run_world ~cfg (fun w ->
        setup w;
        let s = Option.get w.Fs.scrub in
        (* the probe after [past] has started: its rung is done *)
        while Scrub.scanned s <= past + 1 do
          Proc.sleep w.Fs.engine 0.01
        done;
        after w)
  in
  (match failed with
   | None -> ()
   | Some e -> Alcotest.fail (Printexc.to_string e));
  (w, Option.get w.Fs.scrub)

let check_scrub s ~found ~repaired ~deferred ~lost =
  Alcotest.(check (list int)) "found / repaired / deferred / lost"
    [ found; repaired; deferred; lost ]
    [ Scrub.found s; Scrub.repaired s; Scrub.deferred s; Scrub.lost s ]

let geom = soft_cfg.Fs.geom
let fpb = geom.Geom.frags_per_block

(* group 0's first inode block (the root's): written at mkfs, and an
   idle world never reads it *)
let ino_blk = fst (Geom.cg_inode_area geom 0)

(* a never-written data fragment in group 0 *)
let free_frag = fst (Geom.cg_data_area geom 0) + (8 * fpb)

(* Cache the extent at [lbn] clean, with the content on the media. *)
let cache_clean w ~lbn ~nfrags =
  let cells =
    Array.init nfrags (fun i ->
        Types.copy_cell (Su_disk.Disk.peek w.Fs.disk (lbn + i)))
  in
  Su_cache.Bcache.getblk w.Fs.cache ~lbn ~nfrags ~init:(fun () ->
      Su_cache.Buf.of_cells cells)

let test_scrub_rewrites_clean_cached_extent () =
  (* the bad fragment is inside a cached extent: the whole extent is
     rewritten from the clean copy and the driver remaps the fragment *)
  let bad = ino_blk + 1 in
  let w, s =
    scrub_past ~bad:[ bad ] ~past:bad (fun w ->
        Su_cache.Bcache.release w.Fs.cache
          (cache_clean w ~lbn:ino_blk ~nfrags:fpb))
  in
  check_scrub s ~found:1 ~repaired:1 ~deferred:0 ~lost:0;
  Alcotest.(check int) "healed via a remap" 1 (Su_disk.Disk.remaps w.Fs.disk);
  Alcotest.(check bool) "the extent head reads back" true
    (match Su_disk.Disk.peek w.Fs.disk ino_blk with
     | Types.Meta (Types.Inodes _) -> true
     | _ -> false)

let test_scrub_defers_under_dirty_buffer () =
  (* a dirty buffer over the bad fragment: its pending flush rewrites
     (and remaps) the extent, so the scrubber leaves it alone *)
  let bad = ino_blk + 1 in
  let w, s =
    scrub_past ~bad:[ bad ] ~past:bad
      ~after:(fun w -> Su_cache.Bcache.sync_all w.Fs.cache)
      (fun w ->
        let b = cache_clean w ~lbn:ino_blk ~nfrags:fpb in
        Su_cache.Bcache.bdwrite w.Fs.cache b;
        Su_cache.Bcache.release w.Fs.cache b)
  in
  check_scrub s ~found:1 ~repaired:0 ~deferred:1 ~lost:0;
  Alcotest.(check int) "the flush remapped it" 1 (Su_disk.Disk.remaps w.Fs.disk)

let test_scrub_remaps_unallocated_fragment () =
  let w, s = scrub_past ~bad:[ free_frag ] ~past:free_frag ignore in
  Alcotest.(check bool) "never written" true
    (Su_disk.Disk.peek w.Fs.disk free_frag = Types.Empty);
  check_scrub s ~found:1 ~repaired:1 ~deferred:0 ~lost:0;
  Alcotest.(check int) "retired to a spare" 1 (Su_disk.Disk.remaps w.Fs.disk)

let test_scrub_spares_exhausted_is_lost () =
  (* one spare for two never-written bad fragments: the second is lost *)
  let bad = [ free_frag; free_frag + 1 ] in
  let w, s = scrub_past ~spares:1 ~bad ~past:(free_frag + 1) ignore in
  check_scrub s ~found:2 ~repaired:1 ~deferred:0 ~lost:1;
  Alcotest.(check int) "the pool is spent" 0
    (Su_disk.Disk.spares_left w.Fs.disk);
  Alcotest.(check int) "health counts the loss" 1
    (Health.lost w.Fs.st.State.health)

let test_scrub_sole_copy_is_lost () =
  (* an inode block nobody cached: its content exists only on the
     failing sector, so it is reported, never fabricated *)
  let w, s = scrub_past ~bad:[ ino_blk ] ~past:ino_blk ignore in
  check_scrub s ~found:1 ~repaired:0 ~deferred:0 ~lost:1;
  Alcotest.(check int) "no remap" 0 (Su_disk.Disk.remaps w.Fs.disk);
  Alcotest.(check int) "health counts the loss" 1
    (Health.lost w.Fs.st.State.health)

(* A lost write under checksums: acknowledged (so digested) but never
   applied, leaving the media at rest disagreeing with its digest. *)
let lost_write ~keep w =
  let stamp = Types.Written { inum = 3; gen = 1; flbn = 0 } in
  let b =
    Su_cache.Bcache.getblk w.Fs.cache ~lbn:free_frag ~nfrags:1 ~init:(fun () ->
        Su_cache.Buf.Cdata [| Some stamp |])
  in
  Su_cache.Bcache.bwrite_sync w.Fs.cache b;
  Su_cache.Bcache.release w.Fs.cache b;
  if not keep then Su_cache.Bcache.invalidate w.Fs.cache b

let test_scrub_verifies_at_rest () =
  let fault = { Su_disk.Fault.none with lose_at = [ free_frag ] } in
  let run ~keep =
    scrub_past ~checksums:true ~fault ~bad:[] ~past:free_frag
      (lost_write ~keep)
  in
  (* the clean cached copy digests to the acknowledged value: healed *)
  let w, s = run ~keep:true in
  check_scrub s ~found:1 ~repaired:1 ~deferred:0 ~lost:0;
  let integ = Option.get w.Fs.integrity in
  Alcotest.(check int) "from the cached copy" 1 (Integrity.repaired_cache integ);
  Alcotest.(check bool) "the media now holds the write" true
    (Su_disk.Disk.peek w.Fs.disk free_frag <> Types.Empty);
  (* no copy anywhere: lost *)
  let w, s = run ~keep:false in
  check_scrub s ~found:1 ~repaired:0 ~deferred:0 ~lost:1;
  Alcotest.(check int) "unrepairable" 1
    (Integrity.unrepairable (Option.get w.Fs.integrity))

let test_no_scrubber_by_default () =
  let w = Fs.make soft_cfg in
  Alcotest.(check bool) "scrub off unless configured" true (w.Fs.scrub = None)

let suite =
  [
    Alcotest.test_case "campaign survives or fails clean" `Quick
      test_sweep_survives_or_fails_clean;
    Alcotest.test_case "campaign deterministic across jobs" `Quick
      test_sweep_deterministic_across_jobs;
    Alcotest.test_case "fail-fast fan-out truncates" `Quick
      test_fan_out_fail_fast;
    Alcotest.test_case "runner: escapes and hangs" `Quick test_runner_outcomes;
    Alcotest.test_case "remap-heavy run, zero model divergence" `Quick
      test_remap_heavy_zero_divergence;
    Alcotest.test_case "read-only volume refuses mutation" `Quick
      test_readonly_refuses_mutation;
    Alcotest.test_case "unreadable metadata raises Eio" `Quick
      test_unreadable_metadata_raises_eio;
    Alcotest.test_case "mount restores a corrupt replica" `Quick
      test_mount_restores_corrupt_replica;
    Alcotest.test_case "mount fails clean without replicas" `Quick
      test_mount_fails_clean_without_replicas;
    Alcotest.test_case "remount probe reports mount failure" `Quick
      test_remount_probe_reports_mount_failure;
    Alcotest.test_case "scrubber heals a latent superblock fault" `Quick
      test_scrub_repairs_latent_sb_fault;
    Alcotest.test_case "scrubber rewrites a clean cached extent" `Quick
      test_scrub_rewrites_clean_cached_extent;
    Alcotest.test_case "scrubber defers under a dirty buffer" `Quick
      test_scrub_defers_under_dirty_buffer;
    Alcotest.test_case "scrubber remaps an unallocated fragment" `Quick
      test_scrub_remaps_unallocated_fragment;
    Alcotest.test_case "scrubber: spares exhausted is lost" `Quick
      test_scrub_spares_exhausted_is_lost;
    Alcotest.test_case "scrubber: a sole copy is lost" `Quick
      test_scrub_sole_copy_is_lost;
    Alcotest.test_case "scrubber verifies checksums at rest" `Quick
      test_scrub_verifies_at_rest;
    Alcotest.test_case "no scrubber by default" `Quick
      test_no_scrubber_by_default;
  ]
