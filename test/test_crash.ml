(* Crash-consistency: every scheme except No Order must leave a
   violation-free image at ANY crash point; No Order must not (that is
   the point of the paper). *)
open Su_sim
open Su_fs
open Su_util

let small_config scheme =
  { (Fs.config ~scheme ()) with Fs.geom = Su_fstypes.Geom.small; cache_mb = 8 }

(* A metadata-heavy random workload: two users creating, writing,
   removing, renaming and mkdir/rmdir-ing in their own trees. *)
let workload st rng user () =
  let dir = Printf.sprintf "/u%d" user in
  Fsops.mkdir st dir;
  let live = ref [] in
  let counter = ref 0 in
  for _ = 1 to 120 do
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      incr counter;
      let p = Printf.sprintf "%s/f%d" dir !counter in
      Fsops.create st p;
      Fsops.append st p ~bytes:(1024 * Rng.int_range rng 1 12);
      live := p :: !live
    | 4 | 5 ->
      (match !live with
       | p :: rest ->
         Fsops.unlink st p;
         live := rest
       | [] -> ())
    | 6 ->
      (match !live with
       | p :: rest ->
         let q = p ^ "r" in
         Fsops.rename st ~src:p ~dst:q;
         live := q :: rest
       | [] -> ())
    | 7 ->
      incr counter;
      let d = Printf.sprintf "%s/d%d" dir !counter in
      Fsops.mkdir st d;
      Fsops.create st (d ^ "/inner")
    | 8 | 9 ->
      (match !live with p :: _ -> ignore (Fsops.read_file st p) | [] -> ())
    | _ -> ()
  done

let crash_run ?(nvram = 0) scheme ~seed ~crash_time =
  let w = Fs.make { (small_config scheme) with Fs.nvram_mb = nvram } in
  let rng = Rng.create seed in
  for u = 1 to 2 do
    ignore
      (Proc.spawn w.Fs.engine
         ~name:(Printf.sprintf "user%d" u)
         (workload w.Fs.st (Rng.split rng) u))
  done;
  Crash.crash_and_check w crash_time

let crash_points = [ 0.05; 0.3; 1.1; 2.7; 5.3; 9.9; 30.0 ]

let test_scheme_crash_safe scheme () =
  List.iteri
    (fun i t ->
      let r = crash_run scheme ~seed:(1000 + i) ~crash_time:t in
      if not (Fsck.ok r) then
        List.iter
          (fun v ->
            Format.eprintf "[%s t=%.2f] %a@." (Fs.scheme_kind_name scheme) t
              Fsck.pp_violation v)
          r.Fsck.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s crash at %.2fs is consistent"
           (Fs.scheme_kind_name scheme) t)
        true (Fsck.ok r))
    crash_points

let test_no_order_violates () =
  (* summed over the crash grid, the unsafe baseline must show at
     least one integrity violation — otherwise our checker (or the
     simulation of delayed writes) is vacuous *)
  let total = ref 0 in
  List.iteri
    (fun i t ->
      let r = crash_run Fs.No_order ~seed:(1000 + i) ~crash_time:t in
      total := !total + List.length r.Fsck.violations)
    crash_points;
  Alcotest.(check bool) "no-order violations found" true (!total > 0)

let test_soft_updates_leaks_only () =
  (* soft updates may leak resources at a crash (deferred frees) but
     never violates; check the leak counters are actually exercised *)
  let leaks = ref 0 in
  List.iteri
    (fun i t ->
      let r = crash_run Fs.Soft_updates ~seed:(2000 + i) ~crash_time:t in
      Alcotest.(check bool) "consistent" true (Fsck.ok r);
      leaks := !leaks + r.Fsck.leaked_frags + r.Fsck.leaked_inodes + r.Fsck.nlink_high)
    crash_points;
  Alcotest.(check bool) "deferred work visible as leaks" true (!leaks > 0)

let safe_schemes =
  [
    Fs.Conventional;
    Fs.Scheduler_flag;
    Fs.Scheduler_chains { barrier_dealloc = false };
    Fs.Scheduler_chains { barrier_dealloc = true };
    Fs.Soft_updates;
  ]

let prop_random_crash_safe =
  QCheck.Test.make ~name:"random crash points are consistent (all safe schemes)"
    ~count:25
    QCheck.(pair (int_bound 10000) (float_bound_inclusive 20.0))
    (fun (seed, t) ->
      let t = Float.max 0.01 t in
      List.for_all
        (fun scheme ->
          let r = crash_run scheme ~seed ~crash_time:t in
          if not (Fsck.ok r) then begin
            List.iter
              (fun v ->
                Format.eprintf "[%s seed=%d t=%.3f] %a@."
                  (Fs.scheme_kind_name scheme) seed t Fsck.pp_violation v)
              r.Fsck.violations;
            false
          end
          else true)
        safe_schemes)

let test_nvram_crash_safe () =
  (* NVRAM makes writes durable on acceptance rather than completion:
     the driver still dispatches in constraint order, so every ordered
     scheme must stay consistent *)
  List.iter
    (fun scheme ->
      List.iteri
        (fun i t ->
          let r = crash_run ~nvram:2 scheme ~seed:(3000 + i) ~crash_time:t in
          if not (Fsck.ok r) then
            List.iter
              (fun v ->
                Format.eprintf "[%s+nvram t=%.2f] %a@."
                  (Fs.scheme_kind_name scheme) t Fsck.pp_violation v)
              r.Fsck.violations;
          Alcotest.(check bool)
            (Printf.sprintf "%s+nvram at %.2f" (Fs.scheme_kind_name scheme) t)
            true (Fsck.ok r))
        [ 0.3; 2.1; 8.8 ])
    [ Fs.Conventional; Fs.Soft_updates;
      Fs.Journaled { group_commit = false } ]

(* --- the remount probe's snapshot ---------------------------------------- *)

(* The probe rebuilds its post-continuation image from the array the
   mount installed plus the cells stored since; it must equal the full
   decode of the volume on every image flavour a mount handles
   specially. *)
type flavour = Plain | Checksums | Live_remap | Logged_journal | Damaged_replica

let flavour_name = function
  | Plain -> "plain"
  | Checksums -> "checksums"
  | Live_remap -> "live remap"
  | Logged_journal -> "logged journal"
  | Damaged_replica -> "damaged replica"

let probe_config = function
  | Logged_journal ->
    Su_check.Explorer.sweep_cfg (Fs.Journaled { group_commit = false })
  | (Plain | Checksums | Live_remap | Damaged_replica) as f ->
    { (Su_check.Explorer.sweep_cfg Fs.Soft_updates) with
      Fs.checksums = f = Checksums;
      spare_frags = (if f = Live_remap then 16 else 0) }

(* A short random mix of namespace and data operations under [/r];
   an operation the current tree refuses is simply skipped. *)
let random_ops st rng n =
  let name () = Printf.sprintf "/r/f%d" (Rng.int rng 8) in
  (try Fsops.mkdir st "/r" with Fsops.Eexist _ -> ());
  for _ = 1 to n do
    try
      match Rng.int rng 6 with
      | 0 | 1 ->
        let p = name () in
        Fsops.create st p;
        Fsops.append st p ~bytes:(512 * Rng.int_range rng 1 10)
      | 2 -> Fsops.append st (name ()) ~bytes:(1024 * Rng.int_range rng 1 4)
      | 3 -> Fsops.rename st ~src:(name ()) ~dst:(name ())
      | 4 -> Fsops.unlink st (name ())
      | _ -> Fsops.mkdir st (Printf.sprintf "/r/d%d" (Rng.int rng 4))
    with
    | Fsops.Enoent _ | Fsops.Eexist _ | Fsops.Eisdir _ | Fsops.Enotdir _
    | Fsops.Einval _ | Fsops.Enotempty _ ->
      ()
  done

let run_to_sync w f =
  ignore
    (Proc.spawn w.Fs.engine ~name:"ops" (fun () ->
         f w.Fs.st;
         Fsops.sync w.Fs.st;
         Fs.stop w;
         Su_driver.Driver.quiesce w.Fs.driver;
         Engine.stop w.Fs.engine));
  Engine.run w.Fs.engine

let holds_log image =
  Array.exists (function Su_fstypes.Types.Jlog _ -> true | _ -> false) image

let prop_probe_snapshot =
  QCheck.Test.make ~name:"probe snapshot over its mounted base = image_snapshot"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun flavour ->
          let cfg = probe_config flavour in
          let rng = Rng.create (seed + Hashtbl.hash (flavour_name flavour)) in
          let w = Fs.make cfg in
          run_to_sync w (fun st -> random_ops st rng 12);
          let disk = w.Fs.disk in
          if flavour = Live_remap then begin
            (* remap the root's inode block and the first group header,
               both rewritten by the continuation below: the spare
               takes each fragment's current content *)
            let g = cfg.Fs.geom in
            List.iter
              (fun lbn ->
                let c = Su_fstypes.Types.copy_cell (Su_disk.Disk.peek disk lbn) in
                assert (Su_disk.Disk.try_remap disk ~lbn);
                Su_disk.Disk.install disk lbn c)
              [ Su_fstypes.Geom.inode_block_frag g Su_fstypes.Geom.root_inum;
                Su_fstypes.Geom.cg_header_frag g 0 ]
          end;
          let image = Su_disk.Disk.image_snapshot disk in
          if flavour = Damaged_replica then
            image.(Su_fstypes.Geom.cg_sb_frag cfg.Fs.geom 1) <-
              Su_fstypes.Types.Empty;
          if flavour = Logged_journal && not (holds_log image) then
            QCheck.Test.fail_report "journaled image holds no log records";
          let before = Su_fstypes.Types.copy_image image in
          let w2 = Fs.mount_image cfg image in
          if flavour = Damaged_replica
             && Health.sb_restored w2.Fs.st.State.health = 0
          then QCheck.Test.fail_report "mount restored no replica";
          run_to_sync w2 (fun st -> random_ops st rng 12);
          let full = Su_disk.Disk.image_snapshot w2.Fs.disk in
          let probe = Su_disk.Disk.take_image w2.Fs.disk in
          if probe <> full then
            QCheck.Test.fail_reportf "%s: snapshots differ" (flavour_name flavour);
          (* the result is the mounted array: the argument itself, or
             for an image still holding its log the replayed copy,
             which leaves the argument as it was *)
          if flavour = Logged_journal then begin
            if image <> before then
              QCheck.Test.fail_reportf "%s: the argument changed"
                (flavour_name flavour)
          end
          else if probe != image then
            QCheck.Test.fail_reportf "%s: the result is not the mounted array"
              (flavour_name flavour);
          true)
        [ Plain; Checksums; Live_remap; Logged_journal; Damaged_replica ])

let suite =
  List.map
    (fun scheme ->
      Alcotest.test_case
        (Printf.sprintf "crash grid [%s]" (Fs.scheme_kind_name scheme))
        `Quick
        (test_scheme_crash_safe scheme))
    safe_schemes
  @ [
      Alcotest.test_case "no-order violates" `Quick test_no_order_violates;
      Alcotest.test_case "soft updates leaks only" `Quick
        test_soft_updates_leaks_only;
      QCheck_alcotest.to_alcotest prop_random_crash_safe;
      Alcotest.test_case "nvram crash safety" `Quick test_nvram_crash_safe;
      QCheck_alcotest.to_alcotest prop_probe_snapshot;
    ]
