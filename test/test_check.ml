(* The crash-state explorer: exhaustive write-boundary + torn-state
   sweeps, the sweep promise and fail-fast, fsck repair
   convergence under random corruption, and crash safety with NVRAM
   destaging in flight. *)
open Su_sim
open Su_fstypes
open Su_fs
open Su_check

let show_failures s =
  List.iter
    (fun (v : Explorer.verdict) ->
      if Explorer.state_level v <> Explorer.Consistent then
        Printf.eprintf
          "[%s/%s] k=%d torn=%s pre=%d post=%d converged=%b remount=%b\n%!"
          (Fs.scheme_kind_name s.Explorer.s_scheme)
          s.Explorer.s_workload v.Explorer.v_boundary
          (match v.Explorer.v_torn with
           | None -> "-"
           | Some a -> string_of_int a)
          v.Explorer.v_pre_violations v.Explorer.v_post_violations
          v.Explorer.v_repair_converged v.Explorer.v_remount_ok)
    s.Explorer.s_verdicts

let level =
  Alcotest.testable
    (fun ppf l -> Format.pp_print_string ppf (Explorer.level_name l))
    ( = )

(* Check a sweep's level, listing the states that fell short. *)
let check_level name expected s =
  if Explorer.level s <> expected then show_failures s;
  Alcotest.check level name expected (Explorer.level s)

let test_sweep_consistent scheme wl () =
  let s = Explorer.sweep ~cfg:(Explorer.sweep_cfg scheme) wl in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s states explored" (Fs.scheme_kind_name scheme)
       wl.Explorer.wl_name)
    true
    (s.Explorer.s_states > s.Explorer.s_writes && s.Explorer.s_torn_states > 0);
  check_level
    (Printf.sprintf "%s/%s consistent at every crash state"
       (Fs.scheme_kind_name scheme) wl.Explorer.wl_name)
    Explorer.Consistent s

let test_no_order_violates_but_repairs () =
  let s =
    Explorer.sweep ~cfg:(Explorer.sweep_cfg Fs.No_order) Explorer.smallfiles
  in
  Alcotest.(check bool) "violations found" true (s.Explorer.s_dirty_states > 0);
  check_level "every state repaired, remounted, stayed clean"
    Explorer.Repairable s

(* --- the promise and fail-fast ------------------------------------------ *)

let test_promise_table () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (demand, demand_name) ->
          List.iter
            (fun l ->
              let expected =
                match l with
                | Explorer.Consistent -> true
                | Explorer.Repairable ->
                  demand = `Default && scheme = Fs.No_order
                | Explorer.Broken -> false
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s, demand %s, %s" (Fs.scheme_kind_name scheme)
                   demand_name (Explorer.level_name l))
                expected
                (Explorer.keeps ~demand scheme l))
            [ Explorer.Consistent; Explorer.Repairable; Explorer.Broken ])
        [ (`Default, "default"); (`Consistent, "consistent") ])
    (Fs.all_schemes @ [ Fs.Journaled { group_commit = true } ]);
  Alcotest.(check bool) "the default demand is the scheme's own" true
    (Explorer.keeps Fs.No_order Explorer.Repairable
     && not (Explorer.keeps Fs.Soft_updates Explorer.Repairable));
  let clean =
    {
      Explorer.v_boundary = 3;
      v_torn = None;
      v_pre_violations = 0;
      v_repair_converged = true;
      v_post_violations = 0;
      v_remount_ok = true;
      v_nested = None;
    }
  in
  let nested n_unrecovered n_unsettled =
    Some { Explorer.n_writes = 4; n_states = 5; n_unrecovered; n_unsettled }
  in
  List.iter
    (fun (name, v, expected) ->
      Alcotest.check level name expected (Explorer.state_level v))
    [
      ("clean", clean, Explorer.Consistent);
      ("clean nested", { clean with v_nested = nested 0 0 }, Consistent);
      ("violated, repaired", { clean with v_pre_violations = 2 }, Repairable);
      ( "violations survive repair",
        { clean with v_pre_violations = 2; v_post_violations = 1 },
        Broken );
      ("repair diverged", { clean with v_repair_converged = false }, Broken);
      ("remount failed", { clean with v_remount_ok = false }, Broken);
      ("nested unrecovered", { clean with v_nested = nested 1 0 }, Broken);
      ("nested unsettled", { clean with v_nested = nested 0 1 }, Broken);
    ]

(* No Order under demand consistent: fail-fast ends the sweep at its
   first violated state, identically at any --jobs, while the default
   demand (which No Order keeps) sweeps every state. *)
let test_fail_fast_sweep () =
  let cfg = Explorer.sweep_cfg Fs.No_order in
  let r = Explorer.record ~cfg Explorer.smallfiles in
  let sweep ?fail_fast ?demand jobs =
    Explorer.sweep ~jobs ?fail_fast ?demand ~recording:r ~cfg
      Explorer.smallfiles
  in
  let full = sweep 1 in
  let cut1 = sweep ~fail_fast:true ~demand:`Consistent 1 in
  let cut2 = sweep ~fail_fast:true ~demand:`Consistent 2 in
  Alcotest.(check bool) "identical summaries at --jobs 1 and 2" true
    (cut1 = cut2);
  let rec first_dirty i = function
    | [] -> Alcotest.fail "the full sweep has no violated state"
    | v :: rest ->
      if v.Explorer.v_pre_violations > 0 then i else first_dirty (i + 1) rest
  in
  let first = first_dirty 0 full.Explorer.s_verdicts in
  Alcotest.(check bool) "the first violated state lies past the first chunk"
    true (first >= 8);
  Alcotest.(check bool) "the cut is the full sweep up to that state" true
    (cut1.Explorer.s_verdicts
     = List.filteri (fun i _ -> i <= first) full.Explorer.s_verdicts);
  Alcotest.(check int) "one violated state swept" 1
    cut1.Explorer.s_dirty_states;
  Alcotest.check level "the cut keeps No Order's level" Explorer.Repairable
    (Explorer.level cut1);
  Alcotest.(check bool) "default demand: fail-fast sweeps every state" true
    (sweep ~fail_fast:true 2 = full)

(* --- delta-log crash-state materialization ----------------------------- *)

let smallfiles_recording =
  lazy
    (Explorer.record ~cfg:(Explorer.sweep_cfg Fs.Soft_updates)
       Explorer.smallfiles)

(* The reference reconstruction the delta log replaced: replay the
   post-images forward into a private base and take a full deep copy
   per state, plus the torn-prefix overlay. *)
let reconstruct_deepcopy (r : Explorer.recording) (boundary, torn) =
  let img = Array.map Types.copy_cell r.Explorer.rec_initial in
  for k = 0 to boundary - 1 do
    let d = r.Explorer.rec_deltas.(k) in
    Array.iteri (fun i c -> img.(d.Delta.d_lbn + i) <- Types.copy_cell c)
      d.Delta.d_post
  done;
  (match torn with
   | None -> ()
   | Some applied ->
     let d = r.Explorer.rec_deltas.(boundary) in
     for i = 0 to applied - 1 do
       img.(d.Delta.d_lbn + i) <- Types.copy_cell d.Delta.d_post.(i)
     done);
  img

let test_materialize_matches_deepcopy () =
  (* every crash state — all boundaries, all torn prefixes — comes out
     of the delta cursor structurally equal to a from-scratch replay *)
  let r = Lazy.force smallfiles_recording in
  let states = Explorer.crash_states r in
  Alcotest.(check bool) "plenty of states" true (Array.length states > 20);
  let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
  Array.iter
    (fun ((boundary, torn) as state) ->
      let via_delta = Explorer.materialize cur state in
      let via_copy = reconstruct_deepcopy r state in
      Alcotest.(check bool)
        (Printf.sprintf "state k=%d torn=%s equal" boundary
           (match torn with None -> "-" | Some a -> string_of_int a))
        true
        (via_delta = via_copy))
    states;
  (* and the cursor still seeks backwards correctly after the sweep *)
  Delta.seek cur 0;
  Alcotest.(check bool) "rewound to the initial image" true
    (Delta.image cur = r.Explorer.rec_initial)

let test_crash_states_cap () =
  let r = Lazy.force smallfiles_recording in
  let n = Array.length r.Explorer.rec_deltas in
  let full = Explorer.crash_states r in
  let capped = Explorer.crash_states ~max_boundaries:5 r in
  Alcotest.(check bool) "cap shrinks the sweep" true
    (Array.length capped < Array.length full);
  Array.iter
    (fun (k, _) -> Alcotest.(check bool) "within cap" true (k <= 5))
    capped;
  let uncapped = Explorer.crash_states ~max_boundaries:(n + 100) r in
  Alcotest.(check int) "oversized cap is the full sweep"
    (Array.length full) (Array.length uncapped);
  let no_torn = Explorer.crash_states ~torn:false r in
  Alcotest.(check int) "boundaries only" (n + 1) (Array.length no_torn)

(* Random write sequences over a small image: applying all deltas
   forward then undoing them all must restore the exact initial image,
   and any interleaving of seeks lands on the same state as a replay. *)
let prop_delta_apply_undo =
  QCheck.Test.make ~name:"delta apply/undo round-trips random sequences"
    ~count:60
    QCheck.(pair (int_bound 100000) (int_range 1 40))
    (fun (seed, nwrites) ->
      let rng = Su_util.Rng.create seed in
      let size = 64 in
      let img =
        Array.init size (fun i ->
            if i mod 3 = 0 then Types.Empty else Types.Frag Types.Zeroed)
      in
      let log =
        Array.init nwrites (fun _ ->
            let nfrags = 1 + Su_util.Rng.int rng 4 in
            let lbn = Su_util.Rng.int rng (size - nfrags) in
            let pre = Array.init nfrags (fun i -> Types.copy_cell img.(lbn + i)) in
            let post =
              Array.init nfrags (fun _ ->
                  if Su_util.Rng.int rng 2 = 0 then Types.Empty
                  else Types.Frag Types.Zeroed)
            in
            let d = Delta.v ~lbn ~pre ~post in
            Delta.apply img d;
            d)
      in
      (* rebuild the initial image by undoing in reverse *)
      let back = Array.map Types.copy_cell img in
      for k = nwrites - 1 downto 0 do
        Delta.undo back log.(k)
      done;
      let initial =
        Array.init size (fun i ->
            if i mod 3 = 0 then Types.Empty else Types.Frag Types.Zeroed)
      in
      back = initial
      &&
      (* a cursor seeking to random positions matches a fresh forward
         replay to the same position *)
      let cur = Delta.cursor ~initial ~log in
      List.for_all
        (fun _ ->
          let k = Su_util.Rng.int rng (nwrites + 1) in
          Delta.seek cur k;
          let replay = Array.map Types.copy_cell initial in
          for j = 0 to k - 1 do
            Delta.apply replay log.(j)
          done;
          Delta.image cur = replay)
        [ (); (); (); (); () ])

let test_sweep_jobs_deterministic () =
  (* the same recording swept serially and over the pool yields the
     same verdicts in the same order *)
  let cfg = Explorer.sweep_cfg Fs.Soft_updates in
  let r = Lazy.force smallfiles_recording in
  let s1 =
    Explorer.sweep ~jobs:1 ~recording:r ~cfg Explorer.smallfiles
  in
  let s2 =
    Explorer.sweep ~jobs:2 ~recording:r ~cfg Explorer.smallfiles
  in
  Alcotest.(check bool) "identical summaries" true (s1 = s2);
  Alcotest.(check int) "verdict count" s1.Explorer.s_states
    (List.length s2.Explorer.s_verdicts)

(* --- fsck repair convergence under random corruption ------------------- *)

let base_image =
  lazy
    (let cfg = Explorer.sweep_cfg Fs.Soft_updates in
     let r = Explorer.record ~cfg Explorer.smallfiles in
     let cur =
       Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas
     in
     Delta.seek cur (Array.length r.Explorer.rec_deltas);
     let img = Array.map Types.copy_cell (Delta.image cur) in
     (cfg.Fs.geom, img))

let corrupt rng img =
  let n = Array.length img in
  let hits = 1 + Su_util.Rng.int rng 8 in
  for _ = 1 to hits do
    let lbn = Su_util.Rng.int rng n in
    match Su_util.Rng.int rng 4, img.(lbn) with
    | 0, _ -> img.(lbn) <- Types.Empty
    | 1, Types.Meta (Types.Dir entries) ->
      let slot = Su_util.Rng.int rng (Array.length entries) in
      entries.(slot) <-
        Some { Types.name = "zz"; inum = Su_util.Rng.int rng 2048 }
    | 2, Types.Meta (Types.Inodes ds) ->
      let d = ds.(Su_util.Rng.int rng (Array.length ds)) in
      d.Types.nlink <- Su_util.Rng.int rng 5;
      d.Types.db.(0) <- Su_util.Rng.int rng n
    | 3, _ -> img.(lbn) <- Types.Frag Types.Zeroed
    | _, _ -> ()
  done

let prop_repair_converges =
  QCheck.Test.make ~name:"fsck repair converges on randomly corrupted images"
    ~count:40 QCheck.(int_bound 100000)
    (fun seed ->
      let geom, base = Lazy.force base_image in
      let img = Array.map Types.copy_cell base in
      corrupt (Su_util.Rng.create seed) img;
      let outcome = Fsck.repair ~geom ~image:img ~check_exposure:false () in
      if not (outcome.Fsck.converged && Fsck.ok outcome.Fsck.final) then begin
        Printf.eprintf "[seed=%d] converged=%b rounds=%d\n%!" seed
          outcome.Fsck.converged outcome.Fsck.rounds;
        List.iter
          (fun v -> Format.eprintf "  residual: %a@." Fsck.pp_violation v)
          outcome.Fsck.final.Fsck.violations;
        false
      end
      else true)

(* --- NVRAM destage ----------------------------------------------------- *)

let test_crash_during_nvram_destage () =
  (* with a small NVRAM front the churny workload keeps the destage
     pump busy; crashing at any instant — including mid-destage — must
     leave a consistent image (acceptance made the data durable) *)
  List.iter
    (fun t ->
      let cfg = { (Explorer.sweep_cfg Fs.Soft_updates) with Fs.nvram_mb = 1 } in
      let w = Fs.make cfg in
      ignore
        (Proc.spawn w.Fs.engine ~name:"wl" (fun () ->
             Explorer.smallfiles.Explorer.wl_run w.Fs.st));
      let r = Crash.crash_and_check w t in
      if not (Fsck.ok r) then
        List.iter
          (fun v -> Format.eprintf "[nvram t=%.2f] %a@." t Fsck.pp_violation v)
          r.Fsck.violations;
      Alcotest.(check bool)
        (Printf.sprintf "consistent at %.2fs" t)
        true (Fsck.ok r))
    [ 0.02; 0.05; 0.1; 0.2; 0.5; 1.0 ]

(* --- full-stack fault shakedown ---------------------------------------- *)

let test_shakedown_rides_out_transients () =
  let cfg =
    {
      (Explorer.sweep_cfg Fs.Soft_updates) with
      Fs.fault = Su_disk.Fault.transient ~seed:97 ~rate:0.1 ();
    }
  in
  let s = Explorer.fault_shakedown ~cfg Explorer.smallfiles in
  Alcotest.(check bool) "faults injected" true (s.Explorer.f_injected > 0);
  Alcotest.(check bool) "retries used" true (s.Explorer.f_retries > 0);
  Alcotest.(check int) "no request failed outright" 0 s.Explorer.f_failures;
  Alcotest.(check int) "no write abandoned at the cache" 0
    s.Explorer.f_cache_failures;
  Alcotest.(check bool) "workload completed" true s.Explorer.f_completed;
  Alcotest.(check bool) "final image consistent" true s.Explorer.f_consistent

(* --- rename crash-state coverage --------------------------------------- *)

let ordered_schemes =
  [
    Fs.Conventional;
    Fs.Scheduler_flag;
    Fs.Scheduler_chains { barrier_dealloc = false };
    Fs.Soft_updates;
    Fs.Journaled { group_commit = false };
  ]

let rename_sweep_cases =
  List.concat_map
    (fun scheme ->
      List.map
        (fun wl ->
          Alcotest.test_case
            (Printf.sprintf "sweep: %s / %s" (Fs.scheme_kind_name scheme)
               wl.Explorer.wl_name)
            `Slow
            (test_sweep_consistent scheme wl))
        [ Explorer.renamefile; Explorer.renamedir ])
    ordered_schemes

(* --- the nested, crash-during-recovery sweep ---------------------------- *)

let test_nested_consistent scheme wl () =
  let s =
    Explorer.sweep ~jobs:0 ~nested:true ~cfg:(Explorer.sweep_cfg scheme) wl
  in
  Alcotest.(check bool) "nested states explored" true
    (s.Explorer.s_nested_states > s.Explorer.s_states);
  Alcotest.(check int) "recovery settles at every nested state" 0
    s.Explorer.s_nested_unrecovered;
  Alcotest.(check int) "second recovery round is write-free" 0
    s.Explorer.s_nested_unsettled;
  check_level "consistent including nested states" Explorer.Consistent s

let test_no_order_nested_repairs () =
  let s =
    Explorer.sweep ~jobs:0 ~nested:true ~cfg:(Explorer.sweep_cfg Fs.No_order)
      Explorer.smallfiles
  in
  Alcotest.(check bool) "violations found" true (s.Explorer.s_dirty_states > 0);
  Alcotest.(check bool) "nested states explored" true
    (s.Explorer.s_nested_states > 0);
  check_level "repairable including crashes during recovery"
    Explorer.Repairable s

(* A deliberately non-idempotent repair: each invocation inspects the
   image and writes something different from what it finds, so a
   second recovery round can never be write-free. The nested sweep's
   fixed-point check must flag it. *)
let test_hook_catches_nonidempotent_repair () =
  let lbn_of image = Array.length image - 1 in
  Su_fs.Fsck.repair_test_hook :=
    Some
      (fun image ->
        let lbn = lbn_of image in
        match image.(lbn) with
        | Types.Frag Types.Zeroed -> [ (lbn, Types.Empty) ]
        | _ -> [ (lbn, Types.Frag Types.Zeroed) ]);
  Fun.protect
    ~finally:(fun () -> Su_fs.Fsck.repair_test_hook := None)
    (fun () ->
      let s =
        Explorer.sweep ~torn:false ~max_boundaries:4 ~jobs:0 ~nested:true
          ~cfg:(Explorer.sweep_cfg Fs.Soft_updates)
          Explorer.smallfiles
      in
      Alcotest.(check bool) "non-idempotent repair caught as unsettled" true
        (s.Explorer.s_nested_unsettled > 0))

(* --- repair's reused final walk ------------------------------------------ *)

(* Run [f] with the test-only oracle on: a repair whose final report
   reuses a walk also runs a full check and raises on any difference.
   Returns [f]'s result, how many repairs ran and how many of them
   reused their last walk. *)
let with_walk_oracle f =
  let repairs = Atomic.make 0 and reused = Atomic.make 0 in
  Fsck.repair_final_oracle :=
    Some
      (fun path ->
        Atomic.incr repairs;
        if path = Fsck.Reused_walk then Atomic.incr reused);
  Fun.protect
    ~finally:(fun () -> Fsck.repair_final_oracle := None)
    (fun () ->
      let r = f () in
      (r, Atomic.get repairs, Atomic.get reused))

let test_oracle_builtin_sweeps () =
  List.iter
    (fun scheme ->
      List.iter
        (fun wl ->
          let s, _, _ =
            with_walk_oracle (fun () ->
                Explorer.sweep ~cfg:(Explorer.sweep_cfg scheme) wl)
          in
          check_level
            (Printf.sprintf "%s/%s consistent" (Fs.scheme_kind_name scheme)
               wl.Explorer.wl_name)
            Explorer.Consistent s)
        Explorer.builtin_workloads)
    [ Fs.Soft_updates; Fs.Journaled { group_commit = false } ];
  (* soft updates leaves leaks behind, so its repairs write and converge *)
  let _, _, reused =
    with_walk_oracle (fun () ->
        Explorer.sweep ~cfg:(Explorer.sweep_cfg Fs.Soft_updates)
          Explorer.smallfiles)
  in
  Alcotest.(check bool) "reused walks were compared" true (reused > 0)

let test_oracle_corrupt_campaign () =
  let ops = Option.get (Su_workload.Fuzz.find_case "renamefile") in
  let s, repairs, reused =
    with_walk_oracle (fun () ->
        Campaign.sweep ~jobs:1 ~cfg:(Explorer.sweep_cfg Fs.Soft_updates)
          Campaign.Silent
          (Su_workload.Fuzz.workload_of_ops ~name:"renamefile" ops))
  in
  Alcotest.(check bool) "campaign passes" true (Campaign.ok s);
  Alcotest.(check bool) "failed runs were repaired, reusing walks" true
    (repairs > 0 && reused > 0)

let test_oracle_fuzz_seeds () =
  List.iter
    (fun seed ->
      let r, _, reused =
        with_walk_oracle (fun () ->
            Su_workload.Fuzz.run_case ~jobs:1
              ~cfg:(Explorer.sweep_cfg Fs.Soft_updates)
              ~name:(Printf.sprintf "fuzz-%d" seed)
              (Su_workload.Fuzz.gen ~seed ~ops:6))
      in
      (match Su_workload.Fuzz.failure r with
       | Some why -> Alcotest.failf "seed %d: %s" seed why
       | None -> ());
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reused walks compared" seed)
        true (reused > 0))
    [ 1; 2 ]

(* --- checksum-region placement ------------------------------------------ *)

(* The materialize reference that scans every slot and deep-copies each
   [Csum] cell it finds: structurally the same image as [materialize]. *)
let materialize_by_scan cur (boundary, torn) =
  Delta.seek cur boundary;
  let img = Array.copy (Delta.image cur) in
  (match torn with
   | None -> ()
   | Some applied ->
     let d = (Delta.log cur).(boundary) in
     Array.blit d.Delta.d_post 0 img d.Delta.d_lbn applied);
  Array.iteri
    (fun i c ->
      match c with Types.Csum ca -> img.(i) <- Types.Csum (Array.copy ca) | _ -> ())
    img;
  img

let is_csum = function Types.Csum _ -> true | _ -> false

(* A recording with a checksum region and spares, and a bad sector under
   the first data fragment a fault-free run writes, so the run remaps
   it: the initial image keeps its [Csum] cell, and the log holds spare
   and remap-table writes past the media. *)
let csum_recording scheme =
  let wl = Explorer.smallfiles in
  let base = { (Explorer.sweep_cfg scheme) with Fs.checksums = true; spare_frags = 8 } in
  let bad =
    let r = Explorer.record ~cfg:base wl in
    match
      Array.find_opt
        (fun d -> match d.Delta.d_post.(0) with Types.Frag _ -> true | _ -> false)
        r.Explorer.rec_deltas
    with
    | Some d -> d.Delta.d_lbn
    | None -> Alcotest.fail "the run writes no data"
  in
  let cfg = { base with Fs.fault = { Su_disk.Fault.none with bad_sectors = [ bad ] } } in
  let w = Fs.make cfg in
  let initial = Su_disk.Disk.image_snapshot w.Fs.disk in
  let deltas = ref [] in
  Su_disk.Disk.set_delta_observer w.Fs.disk (fun ~lbn ~pre ~post ->
      deltas := Delta.v ~lbn ~pre ~post :: !deltas);
  Option.iter raise
    (Explorer.run ~child:true w (fun w -> wl.Explorer.wl_run w.Fs.st));
  ( cfg,
    Su_disk.Disk.nfrags w.Fs.disk,
    { Explorer.rec_initial = initial; rec_deltas = Array.of_list (List.rev !deltas) } )

let test_csum_placement () =
  List.iter
    (fun scheme ->
      let cfg, media, r = csum_recording scheme in
      let label = Fs.scheme_kind_name scheme in
      Alcotest.(check bool) (label ^ ": the initial image has a checksum region") true
        (Array.exists is_csum r.Explorer.rec_initial);
      Alcotest.(check bool) (label ^ ": the run remapped a sector") true
        (Array.exists (fun d -> d.Delta.d_lbn >= media) r.Explorer.rec_deltas);
      (* no recorded write puts a [Csum] cell below the media *)
      Array.iteri
        (fun k d ->
          Array.iteri
            (fun i c ->
              if is_csum c && d.Delta.d_lbn + i < media then
                Alcotest.failf "%s: write %d puts a checksum region at %d" label k
                  (d.Delta.d_lbn + i))
            d.Delta.d_post)
        r.Explorer.rec_deltas;
      let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
      let by_scan =
        Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas
      in
      Array.iter
        (fun ((boundary, torn) as state) ->
          let name =
            Printf.sprintf "%s k=%d torn=%s" label boundary
              (match torn with None -> "-" | Some a -> string_of_int a)
          in
          let img = Explorer.materialize cur state in
          if img <> materialize_by_scan by_scan state then
            Alcotest.failf "%s: materialize differs from the scan" name;
          let before = Array.map Types.copy_cell (Delta.image cur) in
          (* recovery's own writes keep the region past the media too *)
          let events = Imglog.recorder () in
          ignore (Crash.repair ~observer:(Imglog.observe events) cfg img);
          Array.iter
            (fun (lbn, _, post) ->
              if is_csum post && lbn < media then
                Alcotest.failf "%s: recovery puts a checksum region at %d" name lbn)
            (Imglog.events events);
          (* the image shares its cells with the cursor: recovery leaves
             them as they were *)
          if Delta.image cur <> before then
            Alcotest.failf "%s: recovery changed the cursor's cells" name)
        (Explorer.crash_states ~max_boundaries:40 r);
      (* mounting that image and taking it back gives its cells (after
         the journal's replay, which the mount runs first), with the
         region loaded when the device keeps one and its slot left as the
         device held it (empty) when the device keeps none *)
      Delta.seek cur (Array.length r.Explorer.rec_deltas);
      let image = Array.map Types.copy_cell (Delta.image cur) in
      Fs.recover_image cfg image;
      let n = Array.length image in
      let slot = n - 1 in
      Alcotest.(check bool) (label ^ ": the region is the last slot") true
        (is_csum image.(slot));
      let take cfg image =
        Su_disk.Disk.take_image (Fs.mount_image cfg image).Fs.disk
      in
      let with_region = take cfg (Array.copy image) in
      let bare = Array.sub image 0 slot in
      (* without a region, a [Csum] cell past the media is still
         dropped, as before the mount skipped the media *)
      let stray = Array.copy bare in
      stray.(slot - 1) <- image.(slot);
      let without = take { cfg with Fs.checksums = false } stray in
      Alcotest.(check bool) (label ^ ": with a region") true (with_region = image);
      Alcotest.(check bool) (label ^ ": without one") true
        (without = Array.append (Array.sub bare 0 (slot - 1)) [| Types.Empty |]);
      Alcotest.(check bool) (label ^ ": the same media cells") true
        (Array.sub with_region 0 media = Array.sub without 0 media))
    [ Fs.Soft_updates; Fs.Journaled { group_commit = false } ]

(* --- recovery only replaces slots ---------------------------------------- *)

let journal = Fs.Journaled { group_commit = false }

let holds_log cfg image =
  match Fs.journal_region cfg with
  | None -> false
  | Some (start, len) ->
    Array.exists
      (function Types.Jlog _ -> true | _ -> false)
      (Array.sub image start len)

(* A checksummed journaled crash image whose log still holds records,
   at a boundary where replay writes cells and so refreshes digests:
   repair and the remount probe over a shallow copy of it replace that
   copy's slots, the checksum region's among them, and leave every cell
   of the original as it was. *)
let test_recovery_replaces_slots () =
  let cfg, _, r = csum_recording journal in
  let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
  let replays image =
    holds_log cfg image
    &&
    let events = Imglog.recorder () in
    Fs.recover_image ~observer:(Imglog.observe events) cfg
      (Array.map Types.copy_cell image);
    Imglog.count events > 0
  in
  let k =
    match
      List.find_opt
        (fun k -> replays (Explorer.materialize cur (k, None)))
        (List.init (Array.length r.Explorer.rec_deltas + 1) Fun.id)
    with
    | Some k -> k
    | None -> Alcotest.fail "no crash state whose replay writes"
  in
  let image = Explorer.materialize cur (k, None) in
  let pristine = Array.map Types.copy_cell image in
  let copy = Array.copy image in
  let outcome = Crash.repair cfg copy in
  Alcotest.(check bool) "repair converged" true outcome.Fsck.converged;
  Alcotest.(check bool) "the copy's checksum region was replaced" true
    (Types.image_csum cfg.Fs.geom copy <> Types.image_csum cfg.Fs.geom image);
  ignore (Crash.remount_probe ~dir:"/rule.d" cfg copy);
  Alcotest.(check bool) "the original image is unchanged" true (image = pristine)

(* A materialized image shares its cells with the cursor and the log,
   so recovery must never mutate a cell in place: every crash state of
   every built-in workload, torn and nested, leaves the cursor image and
   the log structurally equal to deep copies taken before. Journaled
   runs with a checksum region in the cursor image cover the region
   [Fs.recover_image] refreshes, as do the [csum_recording]s, whose
   images also carry spares and a remap table. (Two nested prefixes
   each suffice to cover the base they share with the state.) *)
let test_shallow_materialize_safe () =
  let deep_log r =
    Array.map
      (fun d ->
        Delta.v ~lbn:d.Delta.d_lbn ~pre:(Array.map Types.copy_cell d.Delta.d_pre)
          ~post:(Array.map Types.copy_cell d.Delta.d_post))
      r.Explorer.rec_deltas
  in
  let recorded (cfg, csum) =
    let label = Fs.scheme_kind_name cfg.Fs.scheme ^ if csum then "+csum" else "" in
    List.map
      (fun wl ->
        let r = Explorer.record ~cfg wl in
        (* the recording drops the checksum region; put one back, all
           zero, so replay's digest refresh has cells to change *)
        let initial = Array.copy r.Explorer.rec_initial in
        if csum then
          initial.(Array.length initial - 1) <-
            Types.Csum (Array.make cfg.Fs.geom.Geom.nfrags 0);
        (label ^ "/" ^ wl.Explorer.wl_name, cfg, { r with Explorer.rec_initial = initial }))
      Explorer.builtin_workloads
  in
  let with_spares scheme =
    let cfg, _, r = csum_recording scheme in
    (Fs.scheme_kind_name scheme ^ "+csum+spares/smallfiles", cfg, r)
  in
  List.iter
    (fun (label, cfg, r) ->
      let log = deep_log r in
      let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
      Array.iter
        (fun ((boundary, torn) as state) ->
          let image = Explorer.materialize cur state in
          let before = Array.map Types.copy_cell (Delta.image cur) in
          ignore
            (Explorer.verify_state ~nested:true ~nested_max_boundaries:2 ~cfg
               ~boundary ~torn image);
          if Delta.image cur <> before then
            Alcotest.failf "%s k=%d torn=%s: the cursor image changed" label
              boundary
              (match torn with None -> "-" | Some a -> string_of_int a))
        (Explorer.crash_states r);
      Alcotest.(check bool) (label ^ ": the log is unchanged") true
        (r.Explorer.rec_deltas = log))
    (List.concat_map recorded
       [ (Explorer.sweep_cfg Fs.Soft_updates, false);
         (Explorer.sweep_cfg journal, false);
         ({ (Explorer.sweep_cfg journal) with Fs.checksums = true }, true) ]
     @ [ with_spares Fs.Soft_updates; with_spares journal ])

let suite =
  [
    Alcotest.test_case "sweep: soft updates / smallfiles" `Quick
      (test_sweep_consistent Fs.Soft_updates Explorer.smallfiles);
    Alcotest.test_case "sweep: soft updates / dirtree" `Quick
      (test_sweep_consistent Fs.Soft_updates Explorer.dirtree);
    Alcotest.test_case "sweep: scheduler chains / smallfiles" `Slow
      (test_sweep_consistent
         (Fs.Scheduler_chains { barrier_dealloc = false })
         Explorer.smallfiles);
    Alcotest.test_case "sweep: journaled / smallfiles" `Slow
      (test_sweep_consistent (Fs.Journaled { group_commit = false })
         Explorer.smallfiles);
    Alcotest.test_case "sweep: no order violates but repairs" `Quick
      test_no_order_violates_but_repairs;
    Alcotest.test_case "promise: scheme x demand x level" `Quick
      test_promise_table;
    Alcotest.test_case "fail-fast sweep: no order under demand consistent"
      `Quick test_fail_fast_sweep;
    Alcotest.test_case "delta materialization matches deep copy" `Quick
      test_materialize_matches_deepcopy;
    Alcotest.test_case "crash_states respects max_boundaries" `Quick
      test_crash_states_cap;
    Alcotest.test_case "checksum region stays past the media" `Quick
      test_csum_placement;
    QCheck_alcotest.to_alcotest prop_delta_apply_undo;
    Alcotest.test_case "sweep deterministic across jobs" `Quick
      test_sweep_jobs_deterministic;
    QCheck_alcotest.to_alcotest prop_repair_converges;
    Alcotest.test_case "crash during NVRAM destage" `Quick
      test_crash_during_nvram_destage;
    Alcotest.test_case "fault shakedown" `Quick
      test_shakedown_rides_out_transients;
  ]
  @ rename_sweep_cases
  @ [
      Alcotest.test_case "nested sweep: soft updates / renamedir" `Slow
        (test_nested_consistent Fs.Soft_updates Explorer.renamedir);
      Alcotest.test_case "nested sweep: journaled / smallfiles" `Slow
        (test_nested_consistent
           (Fs.Journaled { group_commit = false })
           Explorer.smallfiles);
      Alcotest.test_case "nested sweep: no order repairs" `Slow
        test_no_order_nested_repairs;
      Alcotest.test_case "reused-walk oracle: builtin sweeps" `Slow
        test_oracle_builtin_sweeps;
      Alcotest.test_case "reused-walk oracle: corrupt campaign" `Quick
        test_oracle_corrupt_campaign;
      Alcotest.test_case "reused-walk oracle: fuzz seeds" `Quick
        test_oracle_fuzz_seeds;
      Alcotest.test_case "nested sweep flags non-idempotent repair" `Quick
        test_hook_catches_nonidempotent_repair;
      Alcotest.test_case "shallow materialize: recovery leaves the cursor intact"
        `Slow test_shallow_materialize_safe;
      Alcotest.test_case "recovery only replaces slots: checksummed journal"
        `Quick test_recovery_replaces_slots;
    ]
