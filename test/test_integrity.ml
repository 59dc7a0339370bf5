(* End-to-end metadata integrity: the checksum region follows write
   acknowledgements (so lost and misdirected writes become detectable
   at rest), bit-rot on the read path corrupts only the returned copy,
   fsck surfaces and resynchronises checksum violations, and the
   corruption sweep holds detect-or-fail-clean with verdicts invariant
   under --jobs. *)
open Su_sim
open Su_fstypes
open Su_disk

let mk_disk ?fault () =
  let e = Engine.create () in
  let d =
    Disk.create ~engine:e ~params:Disk_params.hp_c2447 ~nfrags:4096 ?fault
      ~checksums:true ()
  in
  (e, d)

let payload n flbn0 =
  Array.init n (fun i ->
      Types.Frag (Types.Written { inum = 3; gen = 1; flbn = flbn0 + i }))

let digest_of d frag = Types.cell_digest (Disk.peek d frag)

let expected d frag =
  match Disk.expected_digest d frag with
  | Some dg -> dg
  | None -> Alcotest.fail (Printf.sprintf "no digest for fragment %d" frag)

let test_acked_writes_refresh_digests () =
  let e, d = mk_disk () in
  Disk.submit d ~lbn:100 ~nfrags:4 ~op:Disk.Write ~payload:(Some (payload 4 0))
    ~on_done:(fun _ _ -> ());
  Engine.run e;
  for i = 100 to 103 do
    Alcotest.(check int)
      (Printf.sprintf "fragment %d digest follows the media" i)
      (digest_of d i) (expected d i)
  done

let test_lost_write_detectable_at_rest () =
  (* the ack refreshes the digest, the media keeps the stale cell: the
     two must disagree afterwards — that is the whole detection story *)
  let fault = { Fault.none with Fault.lose_at = [ 200 ] } in
  let e, d = mk_disk ~fault () in
  let ok = ref false in
  Disk.submit d ~lbn:200 ~nfrags:1 ~op:Disk.Write ~payload:(Some (payload 1 0))
    ~on_done:(fun r _ -> ok := Result.is_ok r);
  Engine.run e;
  Alcotest.(check bool) "the lie: reported success" true !ok;
  Alcotest.(check int) "one silent fault" 1 (Disk.silent_faults d);
  Alcotest.(check bool) "media kept the stale cell" true
    (Disk.peek d 200 = Types.Empty);
  Alcotest.(check bool) "digest disagrees with the media" true
    (expected d 200 <> digest_of d 200)

let test_misdirected_write_detectable_at_both_ends () =
  let fault = { Fault.none with Fault.misdirect_at = [ (300, 400) ] } in
  let e, d = mk_disk ~fault () in
  Disk.submit d ~lbn:300 ~nfrags:1 ~op:Disk.Write ~payload:(Some (payload 1 7))
    ~on_done:(fun _ _ -> ());
  Engine.run e;
  Alcotest.(check bool) "intended sector untouched" true
    (Disk.peek d 300 = Types.Empty);
  Alcotest.(check bool) "payload landed on the victim" true
    (Disk.peek d 400 <> Types.Empty);
  Alcotest.(check bool) "intended sector mismatches" true
    (expected d 300 <> digest_of d 300);
  Alcotest.(check bool) "victim sector mismatches" true
    (expected d 400 <> digest_of d 400)

let test_flip_corrupts_only_the_returned_copy () =
  let fault = { Fault.none with Fault.flip_at = [ 500 ] } in
  let e, d = mk_disk ~fault () in
  let reads = ref [] in
  Disk.submit d ~lbn:500 ~nfrags:1 ~op:Disk.Write ~payload:(Some (payload 1 2))
    ~on_done:(fun _ _ -> ());
  Engine.run e;
  for _ = 1 to 2 do
    (* the raw device services one request at a time *)
    Disk.submit d ~lbn:500 ~nfrags:1 ~op:Disk.Read ~payload:None
      ~on_done:(fun r _ ->
        match r with
        | Ok (Some cells) -> reads := Types.cell_digest cells.(0) :: !reads
        | _ -> Alcotest.fail "read failed");
    Engine.run e
  done;
  match List.rev !reads with
  | [ first; second ] ->
    Alcotest.(check bool) "first read corrupted" true (first <> expected d 500);
    Alcotest.(check int) "second read clean (media intact)" (expected d 500)
      second;
    Alcotest.(check bool) "media itself never changed" true
      (digest_of d 500 = expected d 500)
  | _ -> Alcotest.fail "expected two reads"

(* --- fsck: detection and resynchronisation ----------------------------- *)

let small_world_image () =
  (* a tiny checksummed volume with a handful of files, cleanly synced *)
  let cfg =
    {
      (Su_check.Explorer.sweep_cfg Su_fs.Fs.Soft_updates) with
      Su_fs.Fs.checksums = true;
    }
  in
  let w = Su_fs.Fs.make cfg in
  ignore
    (Proc.spawn w.Su_fs.Fs.engine ~name:"setup" (fun () ->
         Su_fs.Fsops.mkdir w.Su_fs.Fs.st "/d";
         for i = 1 to 5 do
           let p = Printf.sprintf "/d/f%d" i in
           Su_fs.Fsops.create w.Su_fs.Fs.st p;
           Su_fs.Fsops.append w.Su_fs.Fs.st p ~bytes:4096
         done;
         Su_fs.Fsops.sync w.Su_fs.Fs.st;
         Su_fs.Fs.stop w));
  Engine.run w.Su_fs.Fs.engine;
  (cfg, Disk.logical_snapshot w.Su_fs.Fs.disk)

let find_data_frag image =
  let rec go i =
    if i >= Array.length image then Alcotest.fail "no data fragment"
    else
      match image.(i) with
      | Types.Frag (Types.Written _) -> i
      | _ -> go (i + 1)
  in
  go 0

let test_fsck_flags_and_resyncs_csum_mismatch () =
  let cfg, image = small_world_image () in
  let geom = cfg.Su_fs.Fs.geom in
  let clean = Su_fs.Fsck.check ~geom ~image ~check_exposure:false in
  Alcotest.(check int) "clean volume, clean csums" 0
    (List.length clean.Su_fs.Fsck.violations);
  (* rot one data fragment behind the checksum region's back *)
  let frag = find_data_frag image in
  let rng = Su_util.Rng.create 42 in
  image.(frag) <- Fault.corrupt_cell rng image.(frag);
  let dirty = Su_fs.Fsck.check ~geom ~image ~check_exposure:false in
  let flagged =
    List.exists
      (function
        | Su_fs.Fsck.Csum_mismatch { frag = f } -> f = frag
        | _ -> false)
      dirty.Su_fs.Fsck.violations
  in
  Alcotest.(check bool) "mismatch flagged at the rotten fragment" true flagged;
  let { Su_fs.Fsck.actions; final; converged; _ } =
    Su_fs.Fsck.repair ~geom ~image ~check_exposure:false ()
  in
  Alcotest.(check bool) "repair converged" true converged;
  Alcotest.(check int) "final check clean" 0
    (List.length final.Su_fs.Fsck.violations);
  Alcotest.(check bool) "resync action noted" true
    (List.exists
       (function Su_fs.Fsck.Resynced_csums _ -> true | _ -> false)
       actions)

(* Mount installs only the cells in use: every [Empty] it skips must
   still digest as the fresh checksum region says, so a checksummed,
   spared image remounts, syncs and verifies at rest without a miss. *)
let test_checksummed_mount_verifies () =
  let cfg =
    {
      (Su_check.Explorer.sweep_cfg Su_fs.Fs.Soft_updates) with
      Su_fs.Fs.checksums = true;
      spare_frags = 64;
    }
  in
  let run w f =
    ignore
      (Proc.spawn w.Su_fs.Fs.engine ~name:"t" (fun () ->
           f w.Su_fs.Fs.st;
           Su_fs.Fs.stop w));
    Engine.run w.Su_fs.Fs.engine
  in
  let w = Su_fs.Fs.make cfg in
  run w (fun st ->
      Su_fs.Fsops.mkdir st "/d";
      for i = 1 to 5 do
        let p = Printf.sprintf "/d/f%d" i in
        Su_fs.Fsops.create st p;
        Su_fs.Fsops.append st p ~bytes:4096
      done;
      Su_fs.Fsops.sync st);
  let w2 = Su_fs.Fs.mount_image cfg (Disk.image_snapshot w.Su_fs.Fs.disk) in
  let unrepaired = ref (-1) in
  run w2 (fun st ->
      Su_fs.Fsops.append st "/d/f1" ~bytes:2048;
      Su_fs.Fsops.sync st;
      unrepaired :=
        Su_fs.Integrity.full_verify (Option.get w2.Su_fs.Fs.integrity));
  Alcotest.(check int) "every fragment verifies at rest" 0 !unrepaired

(* --- the campaign ------------------------------------------------------ *)

let run_sweep ~jobs ~scheme ~name ~max_injections =
  let ops =
    match Su_workload.Fuzz.find_case name with
    | Some ops -> ops
    | None -> Alcotest.fail ("unknown built-in case " ^ name)
  in
  let cfg = Su_check.Explorer.sweep_cfg scheme in
  let oracle_cfg =
    { cfg with Su_fs.Fs.checksums = true; Su_fs.Fs.spare_frags = 64 }
  in
  let oracle image =
    Su_workload.Fuzz.check_final_image ~cfg:oracle_cfg image ops
  in
  Su_check.Campaign.sweep ~jobs ~max_injections ~cfg ~oracle
    Su_check.Campaign.Silent
    (Su_workload.Fuzz.workload_of_ops ~name ops)

let test_corruptsweep_soft_updates () =
  let s =
    run_sweep ~jobs:1 ~scheme:Su_fs.Fs.Soft_updates ~name:"smallfiles"
      ~max_injections:24
  in
  Alcotest.(check bool) "detects-or-fails-clean" true
    (Su_check.Campaign.ok s);
  Alcotest.(check int) "no silent escapes" 0
    s.Su_check.Campaign.s_silent_escapes;
  Alcotest.(check int) "all injections swept" 24 s.Su_check.Campaign.s_swept;
  Alcotest.(check bool) "corruption was detected" true
    (s.Su_check.Campaign.s_detected > 0)

let test_corruptsweep_journaled () =
  let s =
    run_sweep ~jobs:1
      ~scheme:(Su_fs.Fs.Journaled { group_commit = false })
      ~name:"renamefile" ~max_injections:24
  in
  Alcotest.(check bool) "detects-or-fails-clean" true
    (Su_check.Campaign.ok s);
  Alcotest.(check int) "no silent escapes" 0
    s.Su_check.Campaign.s_silent_escapes

let test_corruptsweep_jobs_invariant () =
  let s1 =
    run_sweep ~jobs:1 ~scheme:Su_fs.Fs.Soft_updates ~name:"dirtree"
      ~max_injections:18
  in
  let s2 =
    run_sweep ~jobs:3 ~scheme:Su_fs.Fs.Soft_updates ~name:"dirtree"
      ~max_injections:18
  in
  Alcotest.(check bool) "summaries structurally identical" true (s1 = s2)

let suite =
  [
    Alcotest.test_case "acked writes refresh digests" `Quick
      test_acked_writes_refresh_digests;
    Alcotest.test_case "lost write detectable at rest" `Quick
      test_lost_write_detectable_at_rest;
    Alcotest.test_case "misdirected write detectable at both ends" `Quick
      test_misdirected_write_detectable_at_both_ends;
    Alcotest.test_case "flip corrupts only the returned copy" `Quick
      test_flip_corrupts_only_the_returned_copy;
    Alcotest.test_case "fsck flags and resyncs csum mismatch" `Quick
      test_fsck_flags_and_resyncs_csum_mismatch;
    Alcotest.test_case "checksummed mount verifies" `Quick
      test_checksummed_mount_verifies;
    Alcotest.test_case "corruptsweep: soft updates" `Quick
      test_corruptsweep_soft_updates;
    Alcotest.test_case "corruptsweep: journaled" `Quick
      test_corruptsweep_journaled;
    Alcotest.test_case "corruptsweep: jobs-invariant verdicts" `Quick
      test_corruptsweep_jobs_invariant;
  ]
