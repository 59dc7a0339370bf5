open Su_fstypes
open Su_sim
open Su_fs

(* --- workloads ------------------------------------------------------- *)

type workload = { wl_name : string; wl_run : State.t -> unit }

(* Both built-in workloads are deliberately small: the sweep re-crashes
   the run at every write boundary, so the state count (and the cost of
   the sweep) is linear in the writes the workload generates. *)

let smallfiles =
  {
    wl_name = "smallfiles";
    wl_run =
      (fun st ->
        let rng = Su_util.Rng.create 71 in
        Fsops.mkdir st "/sf";
        let live = ref [] in
        for i = 1 to 18 do
          let p = Printf.sprintf "/sf/f%d" i in
          Fsops.create st p;
          Fsops.append st p ~bytes:(1024 * Su_util.Rng.int_range rng 1 6);
          live := p :: !live;
          if Su_util.Rng.int rng 3 = 0 then begin
            match !live with
            | p :: rest ->
              Fsops.unlink st p;
              live := rest
            | [] -> ()
          end
        done;
        Fsops.sync st);
  }

let dirtree =
  {
    wl_name = "dirtree";
    wl_run =
      (fun st ->
        Fsops.mkdir st "/t";
        for i = 1 to 5 do
          let d = Printf.sprintf "/t/d%d" i in
          Fsops.mkdir st d;
          Fsops.create st (d ^ "/a");
          Fsops.append st (d ^ "/a") ~bytes:2048;
          Fsops.rename st ~src:(d ^ "/a") ~dst:(d ^ "/b");
          if i mod 2 = 0 then begin
            Fsops.unlink st (d ^ "/b");
            Fsops.rmdir st d
          end
        done;
        Fsops.link st ~src:"/t/d1/b" ~dst:"/t/hard";
        Fsops.sync st);
  }

(* Rename crash coverage: a cross-directory rename of a file and of a
   directory, swept at every write boundary. The directory move
   exercises the ".."-rewrite choreography (raised link counts, the
   in-place entry change, deferred decrements). *)

let renamefile =
  {
    wl_name = "renamefile";
    wl_run =
      (fun st ->
        Fsops.mkdir st "/ra";
        Fsops.mkdir st "/rb";
        Fsops.create st "/ra/f";
        Fsops.append st "/ra/f" ~bytes:3072;
        Fsops.rename st ~src:"/ra/f" ~dst:"/rb/g";
        Fsops.rename st ~src:"/rb/g" ~dst:"/rb/h";
        Fsops.sync st);
  }

let renamedir =
  {
    wl_name = "renamedir";
    wl_run =
      (fun st ->
        Fsops.mkdir st "/ra";
        Fsops.mkdir st "/rb";
        Fsops.mkdir st "/ra/d";
        Fsops.create st "/ra/d/f";
        Fsops.append st "/ra/d/f" ~bytes:2048;
        (* move across parents, then rename in place: back-to-back
           moves also exercise a ".." change superseding a pending one *)
        Fsops.rename st ~src:"/ra/d" ~dst:"/rb/e";
        Fsops.rename st ~src:"/rb/e" ~dst:"/ra/d2";
        Fsops.sync st);
  }

let builtin_workloads = [ smallfiles; dirtree; renamefile; renamedir ]

let find_workload name =
  List.find_opt (fun w -> w.wl_name = name) builtin_workloads

(* --- the sweep engine: volume, runner, fan-out ------------------------ *)

(* Small enough to repeat run, fsck, repair, remount and continue at
   every write boundary or touched sector. *)
let sweep_cfg scheme =
  {
    (Fs.config ~scheme ()) with
    Fs.geom = Geom.v ~mb:32 ~cg_mb:16 ~inodes_per_cg:1024 ();
    cache_mb = 4;
    journal_mb = 2;
  }

(* [n], or at most [limit] of it *)
let cap limit n = match limit with Some m -> min (max m 0) n | None -> n

exception Hang

(* Simulated seconds a run may take before its body counts as hung:
   far past any sweep or fuzz workload (the builtin sweeps end within
   a simulated second). The syncer re-arms every second until [Fs.stop],
   so a body parked forever never drains the queue on its own. *)
let horizon = 3600.0

(* Spawn order and nesting decide the event order, so each caller
   keeps the schedule its digests were recorded with ([child] or not). *)
let run ?(child = false) ?(wind_down = raise) w body =
  let escaped = ref None and body_done = ref false in
  let body () =
    (try body w with e -> escaped := Some e);
    body_done := true
  in
  let controller () =
    if child then
      Proc.join_all w.Fs.engine [ Proc.spawn w.Fs.engine ~name:"workload" body ]
    else body ();
    (try
       Fs.stop w;
       Su_driver.Driver.quiesce w.Fs.driver
     with e -> wind_down e);
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"controller" controller);
  (try Engine.run ~until:horizon w.Fs.engine
   with Proc.Process_failure (_, e) -> escaped := Some e);
  if !body_done || Option.is_some !escaped then !escaped else Some Hang

(* The fail-fast chunk is fixed, never derived from [jobs], so the
   result list — every result up to and including the first rejected
   one — is identical at any [--jobs]. Without fail-fast one chunk
   holds every index. *)
let fan_out ?(jobs = 1) ~fail_fast ~clean ~init n f =
  let size = if fail_fast then 8 else n in
  let rec from base acc =
    let k = min size (n - base) in
    if k <= 0 then List.rev acc
    else
      let chunk =
        Su_util.Pool.map_with ~jobs ~init k (fun s i -> f s (base + i))
      in
      match Array.find_index (fun v -> fail_fast && not (clean v)) chunk with
      | Some i ->
        List.rev_append acc (Array.to_list (Array.sub chunk 0 (i + 1)))
      | None -> from (base + k) (List.rev_append (Array.to_list chunk) acc)
  in
  from 0 []

(* --- recording ------------------------------------------------------- *)

type recording = {
  rec_initial : Types.cell array;
  rec_deltas : Delta.t array;
}

(* One fault-free run under the given configuration, observing every
   extent the disk applies to the media (in completion order) together
   with the cells it replaced. Crash states are then materialized by
   seeking a {!Delta.cursor} over the log — no re-execution and no
   full-image copy per crash point. *)
let record ~cfg wl =
  let w = Fs.make cfg in
  let initial = Su_disk.Disk.image_snapshot w.Fs.disk in
  (* digest refreshes happen at write acknowledgement and do not flow
     through the delta observer, so a synthesized crash state cannot
     carry a truthful checksum region; drop it — crash states are
     judged on structure, and recovery resynchronises the digests
     anyway (fsck's Resynced_csums) *)
  Array.iteri
    (fun i c ->
      match c with Types.Csum _ -> initial.(i) <- Types.Empty | _ -> ())
    initial;
  let deltas = ref [] in
  Su_disk.Disk.set_delta_observer w.Fs.disk (fun ~lbn ~pre ~post ->
      deltas := Delta.v ~lbn ~pre ~post :: !deltas);
  Option.iter raise (run ~child:true w (fun w -> wl.wl_run w.Fs.st));
  { rec_initial = initial; rec_deltas = Array.of_list (List.rev !deltas) }

(* --- per-state verification ------------------------------------------ *)

type nested = {
  n_writes : int;  (** writes the recovery pipeline issued *)
  n_states : int;  (** nested crash states verified *)
  n_unrecovered : int;
  n_unsettled : int;  (** states where a second recovery still wrote *)
}

type verdict = {
  v_boundary : int;  (** completed writes when the crash hit *)
  v_torn : int option;  (** [Some k]: k fragments of the next write landed *)
  v_pre_violations : int;
  v_repair_converged : bool;
  v_post_violations : int;
  v_remount_ok : bool;
  v_nested : nested option;  (** crash-during-recovery sub-sweep *)
}

(* Re-crash recovery inside its own write stream. [base] is the crash
   image before any recovery ran; [events] the (lbn, pre, post) cell
   writes the outer recovery pipeline issued against it, in order. For
   every prefix of that stream — recovery cut short after k of its own
   writes — run recovery again and require convergence: round one must
   leave a clean image, and a further round must find nothing left to
   write (all recovery writes are equality-suppressed, so an idempotent
   pipeline's second pass is empty — that emptiness IS the fixed-point
   test). Cell writes are single-fragment, so there are no torn
   variants at this level. *)
let nested_verify ?max_boundaries ~cfg base events =
  let log =
    Array.map
      (fun (lbn, pre, post) -> Delta.v ~lbn ~pre:[| pre |] ~post:[| post |])
      events
  in
  let cur = Delta.cursor ~initial:base ~log in
  let n = Array.length log in
  let last = cap max_boundaries n in
  let check_exposure = Fs.check_exposure cfg in
  let unrecovered = ref 0 and unsettled = ref 0 in
  for k = 0 to last do
    Delta.seek cur k;
    let img = Types.copy_image (Delta.image cur) in
    (* round one: recovery over its own partial effects must settle *)
    Fs.recover_image cfg img;
    let outcome = Fsck.repair ~geom:cfg.Fs.geom ~image:img ~check_exposure () in
    if not (outcome.Fsck.converged && Fsck.ok outcome.Fsck.final) then
      incr unrecovered;
    (* round two: the fixed point — nothing left to change *)
    let r2 = Imglog.recorder () in
    let observer = Imglog.observe r2 in
    Fs.recover_image ~observer cfg img;
    ignore (Fsck.repair ~observer ~geom:cfg.Fs.geom ~image:img ~check_exposure ());
    if Imglog.count r2 > 0 then incr unsettled
  done;
  {
    n_writes = n;
    n_states = last + 1;
    n_unrecovered = !unrecovered;
    n_unsettled = !unsettled;
  }

let verify_state ?(nested = false) ?nested_max_boundaries ~cfg ~boundary ~torn
    image =
  (* recovery cells are installed copy-on-write (never mutated in
     place), so a shallow snapshot of the pre-recovery image is enough
     for the nested sweep to rewind over *)
  let base = if nested then Some (Array.copy image) else None in
  let recovery_log = Imglog.recorder () in
  let observer = if nested then Some (Imglog.observe recovery_log) else None in
  (* journaled configurations replay the log before checking, exactly
     as mount-time recovery would *)
  Fs.recover_image ?observer cfg image;
  let check_exposure = Fs.check_exposure cfg in
  (* repair's first round checks the image as handed over: that is the
     pre-repair verdict *)
  let outcome = Fsck.repair ?observer ~geom:cfg.Fs.geom ~image ~check_exposure () in
  let v_nested =
    match base with
    | None -> None
    | Some base ->
      Some
        (nested_verify ?max_boundaries:nested_max_boundaries ~cfg base
           (Imglog.events recovery_log))
  in
  let remount_ok =
    Result.is_ok (Crash.remount_probe ~dir:"/crashsweep.d" cfg image)
  in
  {
    v_boundary = boundary;
    v_torn = torn;
    v_pre_violations = List.length outcome.Fsck.initial.Fsck.violations;
    v_repair_converged = outcome.Fsck.converged;
    v_post_violations = List.length outcome.Fsck.final.Fsck.violations;
    v_remount_ok = remount_ok;
    v_nested;
  }

(* --- the promise ----------------------------------------------------- *)

type level = Consistent | Repairable | Broken

let state_level v =
  let settled =
    v.v_repair_converged && v.v_post_violations = 0 && v.v_remount_ok
    && match v.v_nested with
       | None -> true
       | Some n -> n.n_unrecovered = 0 && n.n_unsettled = 0
  in
  if not settled then Broken
  else if v.v_pre_violations > 0 then Repairable
  else Consistent

let level_name = function
  | Consistent -> "consistent"
  | Repairable -> "repairable"
  | Broken -> "BROKEN"

type demand = [ `Default | `Consistent ]

(* No Order promises only repairability; every ordered scheme (and the
   journal) must come through consistent, and [`Consistent] holds every
   scheme to that. *)
let keeps ?(demand = `Default) scheme level =
  match (demand, scheme) with
  | `Default, Fs.No_order -> level <> Broken
  | (`Default | `Consistent), _ -> level = Consistent

(* --- the sweep ------------------------------------------------------- *)

type summary = {
  s_scheme : Fs.scheme_kind;
  s_workload : string;
  s_writes : int;  (** recorded write completions *)
  s_states : int;  (** crash states explored (boundaries + torn) *)
  s_torn_states : int;
  s_dirty_states : int;  (** states with pre-repair violations *)
  s_unrepaired : int;  (** states still violated after repair *)
  s_remount_failures : int;
  s_nested_states : int;  (** crash-during-recovery states verified *)
  s_nested_unrecovered : int;
  s_nested_unsettled : int;
  s_verdicts : verdict list;  (** per-state detail, crash order *)
}

let level s =
  List.fold_left (fun l v -> max l (state_level v)) Consistent s.s_verdicts

(* Enumerate the crash states of a recording in sweep order: each
   write boundary, then (optionally) every torn prefix of the next
   write. [max_boundaries] caps the boundaries explored (CI smoke). *)
let crash_states ?(torn = true) ?max_boundaries r =
  let last = cap max_boundaries (Array.length r.rec_deltas) in
  let states = ref [] in
  for k = 0 to last do
    states := (k, None) :: !states;
    if torn && k < last then
      let d = r.rec_deltas.(k) in
      (* the (k+1)-th write torn mid-extent: 1 .. nfrags-1 leading
         fragments reach the media, the tail is lost *)
      for applied = 1 to Array.length d.Delta.d_post - 1 do
        states := (k, Some applied) :: !states
      done
  done;
  Array.of_list (List.rev !states)

(* Materialize one crash state as a private image a verifier may
   recover: seek the cursor to the boundary (O(cells touched)), copy its
   slots, then overlay any torn prefix. Cells are shared with the
   cursor and the log: recovery writes copy-on-write (journal replay,
   fsck's repairs and map rebuilds, [Imglog.write]) and the remount
   probe writes back into slots, so only the checksum region, which
   [Fs.recover_image] updates in place, is copied. *)
let materialize cur (boundary, torn) =
  Delta.seek cur boundary;
  let img = Array.copy (Delta.image cur) in
  (match torn with
   | None -> ()
   | Some applied ->
     let d = (Delta.log cur).(boundary) in
     Array.blit d.Delta.d_post 0 img d.Delta.d_lbn applied);
  Array.iteri
    (fun i c ->
      match c with
      | Types.Csum ca -> img.(i) <- Types.Csum (Array.copy ca)
      | _ -> ())
    img;
  img

let sweep ?torn ?jobs ?max_boundaries ?nested ?nested_max_boundaries
    ?(fail_fast = false) ?demand ?recording ~cfg wl =
  let r = match recording with Some r -> r | None -> record ~cfg wl in
  let states = crash_states ?torn ?max_boundaries r in
  (* Each worker owns a private cursor; indices are claimed in
     increasing order, so a worker's cursor only ever seeks forward.
     Results are merged by job index: verdict order — and therefore
     every digest or table derived from it — is identical at any
     [jobs] value. *)
  let verdicts =
    fan_out ?jobs ~fail_fast
      ~clean:(fun v -> keeps ?demand cfg.Fs.scheme (state_level v))
      ~init:(fun () -> Delta.cursor ~initial:r.rec_initial ~log:r.rec_deltas)
      (Array.length states)
      (fun cur i ->
        let (boundary, torn) as state = states.(i) in
        verify_state ?nested ?nested_max_boundaries ~cfg ~boundary ~torn
          (materialize cur state))
  in
  let count p = List.length (List.filter p verdicts) in
  let nsum f =
    List.fold_left
      (fun acc v -> match v.v_nested with None -> acc | Some n -> acc + f n)
      0 verdicts
  in
  {
    s_scheme = cfg.Fs.scheme;
    s_workload = wl.wl_name;
    s_writes = Array.length r.rec_deltas;
    s_states = List.length verdicts;
    s_torn_states = count (fun v -> v.v_torn <> None);
    s_dirty_states = count (fun v -> v.v_pre_violations > 0);
    s_unrepaired = count (fun v -> v.v_post_violations > 0);
    s_remount_failures = count (fun v -> not v.v_remount_ok);
    s_nested_states = nsum (fun n -> n.n_states);
    s_nested_unrecovered = nsum (fun n -> n.n_unrecovered);
    s_nested_unsettled = nsum (fun n -> n.n_unsettled);
    s_verdicts = verdicts;
  }

(* --- fault shakedown -------------------------------------------------- *)

type shakedown = {
  f_injected : int;  (** faults the disk injected *)
  f_retries : int;  (** attempts the driver re-drove *)
  f_failures : int;  (** requests failed after the retry budget *)
  f_cache_failures : int;  (** failed writes surfaced to the cache *)
  f_completed : bool;  (** the workload ran to completion *)
  f_consistent : bool;  (** the final image checks out clean *)
}

(* Run a workload with transient-fault injection enabled and verify
   the stack rides the errors out: the run completes, the driver
   absorbs the faults with retries, and the final image is clean. *)
let fault_shakedown ~cfg wl =
  let w = Fs.make cfg in
  let completed =
    Option.is_none (run ~child:true w (fun w -> wl.wl_run w.Fs.st))
  in
  let tr = Su_driver.Driver.trace w.Fs.driver in
  let consistent =
    completed
    &&
    let image = Su_disk.Disk.image_snapshot w.Fs.disk in
    Fs.recover_image cfg image;
    Fsck.ok
      (Fsck.check ~geom:cfg.Fs.geom ~image
         ~check_exposure:(Fs.check_exposure cfg))
  in
  {
    f_injected = Su_disk.Disk.faults_injected w.Fs.disk;
    f_retries = Su_driver.Trace.io_retries tr;
    f_failures = Su_driver.Trace.io_failures tr;
    f_cache_failures = Su_cache.Bcache.io_failures w.Fs.cache;
    f_completed = completed;
    f_consistent = consistent;
  }
