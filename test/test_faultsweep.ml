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
   child, and an engine that ends before the body does. *)
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
  match
    run (fun w ->
        Engine.stop w.Fs.engine;
        Proc.suspend ignore)
  with
  | Some Explorer.Hang -> ()
  | Some _ | None -> Alcotest.fail "expected Hang"

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
    Alcotest.test_case "no scrubber by default" `Quick
      test_no_scrubber_by_default;
  ]
