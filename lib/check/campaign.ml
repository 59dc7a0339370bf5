open Su_fs

(* Systematic fault campaigns. One fault-free recording run splits the
   sectors a workload touches into read-touched and write-touched
   sets; a campaign's plan turns them into injections, and the
   workload is re-run once per injection. Each run must survive or
   fail clean: complete (and, for silent faults, agree with the model
   oracle), or stop with a typed error leaving a repairable,
   remountable volume. *)

type injection =
  | Bad_sector of int
  | Flip of int
  | Lost of int
  | Misdirect of int * int

let sector = function
  | Bad_sector s | Flip s | Lost s | Misdirect (s, _) -> s

let kind_name = function
  | Bad_sector _ -> "bad-sector"
  | Flip _ -> "flip"
  | Lost _ -> "lost"
  | Misdirect _ -> "misdirect"

let silent = function
  | Bad_sector _ -> false
  | Flip _ | Lost _ | Misdirect _ -> true

type campaign = Permanent | Silent

let name = function Permanent -> "faultsweep" | Silent -> "corruptsweep"

let fault_of = function
  | Bad_sector s -> { Su_disk.Fault.none with bad_sectors = [ s ] }
  | Flip s -> { Su_disk.Fault.none with flip_at = [ s ] }
  | Lost s -> { Su_disk.Fault.none with lose_at = [ s ] }
  | Misdirect (s, victim) ->
    { Su_disk.Fault.none with misdirect_at = [ (s, victim) ] }

(* --- touched-sector discovery ---------------------------------------- *)

(* Run the workload once, fault-free, with driver trace records kept,
   and split the union of request extents by direction. Both
   ascending, so the plan — and the sweep output — is deterministic. *)
let touched_sectors ~cfg wl =
  let cfg =
    { cfg with Fs.fault = Su_disk.Fault.none; keep_trace_records = true }
  in
  let w = Fs.make cfg in
  Option.iter raise
    (Explorer.run ~child:true w (fun w -> wl.Explorer.wl_run w.Fs.st));
  let reads = Hashtbl.create 1024 and writes = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let tbl =
        match r.Su_driver.Trace.r_kind with
        | Su_driver.Request.Read -> reads
        | Su_driver.Request.Write -> writes
      in
      for i = 0 to r.Su_driver.Trace.r_nfrags - 1 do
        Hashtbl.replace tbl (r.Su_driver.Trace.r_lbn + i) ()
      done)
    (Su_driver.Trace.records (Su_driver.Driver.trace w.Fs.driver));
  let sorted tbl =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) tbl []))
  in
  (sorted reads, sorted writes)

(* A latent bad sector under a read-only fragment is just as real as
   one under a written fragment, so the permanent plan takes the
   union. A misdirection needs a victim: the next write-touched sector
   (wrapping), so the clobbered fragment is one the file system
   demonstrably cares about. *)
let plan campaign ~reads ~writes =
  match campaign with
  | Permanent ->
    Array.of_list
      (List.map
         (fun s -> Bad_sector s)
         (List.sort_uniq compare (Array.to_list reads @ Array.to_list writes)))
  | Silent ->
    let n = Array.length writes in
    Array.concat
      [
        Array.map (fun s -> Flip s) reads;
        Array.map (fun s -> Lost s) writes;
        Array.mapi
          (fun i s ->
            if n > 1 then Misdirect (s, writes.((i + 1) mod n)) else Lost s)
          writes;
      ]

(* --- one injected run ------------------------------------------------- *)

type outcome =
  | Completed
  | Failed_typed of string
  | Escaped of string

let outcome_name = function
  | Completed -> "completed"
  | Failed_typed _ -> "failed-typed"
  | Escaped _ -> "escaped"

(* The typed errors a run may legally stop with. *)
let typed_failure = function
  | Fsops.Eio msg -> Some ("Eio: " ^ msg)
  | Fsops.Erofs msg -> Some ("Erofs: " ^ msg)
  | Su_cache.Bcache.Io_error e ->
    Some ("Io_error: " ^ Su_disk.Fault.error_to_string e)
  | Fs.Mount_failure msg -> Some ("Mount_failure: " ^ msg)
  | _ -> None

let outcome_of_exn e =
  match typed_failure e with
  | Some msg -> Failed_typed msg
  | None -> Escaped (Printexc.to_string e)

type verdict = {
  v_injection : injection;
  v_outcome : outcome;
  v_remaps : int;
  v_injected : bool;
  v_detected : int;
  v_repaired : int;
  v_pre_violations : int;
  v_repair_converged : bool;
  v_post_violations : int;
  v_remount : (unit, string) result;
  v_divergences : int;
}

let clean v =
  match v.v_outcome with
  | Completed ->
    (v.v_injected || not (silent v.v_injection))
    && v.v_pre_violations = 0 && v.v_divergences = 0
    && Result.is_ok v.v_remount
  | Failed_typed _ ->
    v.v_repair_converged && v.v_post_violations = 0
    && Result.is_ok v.v_remount
  | Escaped _ -> false

let silent_escape v =
  v.v_outcome = Completed && v.v_injected && v.v_divergences > 0

let run_one ~cfg ~spares ?oracle wl inj =
  let is_silent = silent inj in
  let run_cfg =
    { cfg with
      Fs.fault = fault_of inj;
      checksums = cfg.Fs.checksums || is_silent;
      spare_frags = spares;
      keep_trace_records = false }
  in
  let w = Fs.make run_cfg in
  let unrepaired = ref 0 in
  let escaped =
    (* quiesce whatever survives; a typed flush failure there does not
       change the verdict the workload took *)
    Explorer.run w
      ~wind_down:(fun e -> if typed_failure e = None then raise e)
      (fun w ->
        wl.Explorer.wl_run w.Fs.st;
        (* the workload ended in a sync; a lost or misdirected write
           the foreground never re-read is still latent on the media —
           surface it now, while the cache's clean copies are alive to
           repair from *)
        match w.Fs.integrity with
        | Some integ when is_silent -> unrepaired := Integrity.full_verify integ
        | Some _ | None -> ())
  in
  let outcome =
    match escaped with
    | Some Explorer.Hang -> Escaped "hang: the workload never finished"
    | Some e -> outcome_of_exn e
    | None when !unrepaired > 0 ->
      Failed_typed
        (Printf.sprintf "integrity: %d fragment(s) unrecoverable" !unrepaired)
    | None -> Completed
  in
  let detected, repaired =
    match w.Fs.integrity with
    | Some i -> (Integrity.mismatches i, Integrity.repaired i)
    | None -> (0, 0)
  in
  (* the remap table is metadata: verify on the logical view, exactly
     what a replacement drive would be rebuilt with *)
  let image = Su_disk.Disk.logical_snapshot w.Fs.disk in
  Fs.recover_image run_cfg image;
  let check_exposure = Fs.check_exposure run_cfg in
  let pre = Fsck.check ~geom:run_cfg.Fs.geom ~image ~check_exposure in
  let pre_violations = List.length pre.Fsck.violations in
  let converged, post =
    match outcome with
    | Completed -> (true, pre_violations)  (* nothing should need repair *)
    | Failed_typed _ | Escaped _ ->
      let o = Fsck.repair ~geom:run_cfg.Fs.geom ~image ~check_exposure () in
      (o.Fsck.converged, List.length o.Fsck.final.Fsck.violations)
  in
  let divergences =
    (* the oracle only constrains runs that claim success *)
    match (outcome, oracle) with
    | Completed, Some oracle -> List.length (oracle image)
    | Completed, None | (Failed_typed _ | Escaped _), _ -> 0
  in
  let remount =
    match outcome with
    | Escaped _ -> Error "not probed: the run escaped"
    | Completed | Failed_typed _ ->
      let campaign = if is_silent then Silent else Permanent in
      Crash.remount_probe
        ~dir:("/" ^ name campaign ^ ".d")
        { run_cfg with
          Fs.fault = Su_disk.Fault.none;
          spare_frags = 0;
          scrub_interval = 0.0 }
        image
  in
  {
    v_injection = inj;
    v_outcome = outcome;
    v_remaps = Su_disk.Disk.remaps w.Fs.disk;
    v_injected = Su_disk.Disk.faults_injected w.Fs.disk > 0;
    v_detected = detected;
    v_repaired = repaired;
    v_pre_violations = pre_violations;
    v_repair_converged = converged;
    v_post_violations = post;
    v_remount = remount;
    v_divergences = divergences;
  }

(* --- the campaign ----------------------------------------------------- *)

type summary = {
  s_scheme : Fs.scheme_kind;
  s_workload : string;
  s_read_sectors : int;
  s_write_sectors : int;
  s_planned : int;
  s_swept : int;
  s_completed : int;
  s_failed_typed : int;
  s_escaped : int;
  s_remaps : int;
  s_detected : int;
  s_repaired : int;
  s_silent_escapes : int;
  s_violations : int;
  s_verdicts : verdict list;
}

let ok s = s.s_escaped = 0 && s.s_silent_escapes = 0 && s.s_violations = 0

let sweep ?jobs ?(spares = 64) ?max_injections ?(fail_fast = false) ?oracle
    ~cfg campaign wl =
  let reads, writes =
    touched_sectors
      ~cfg:{ cfg with Fs.checksums = cfg.Fs.checksums || campaign = Silent }
      wl
  in
  let injections = plan campaign ~reads ~writes in
  let planned = Array.length injections in
  let verdicts =
    Explorer.fan_out ?jobs ~fail_fast ~clean ~init:ignore
      (Explorer.cap max_injections planned) (fun () i ->
        run_one ~cfg ~spares ?oracle wl injections.(i))
  in
  let count p = List.length (List.filter p verdicts) in
  let sum f = List.fold_left (fun a v -> a + f v) 0 verdicts in
  {
    s_scheme = cfg.Fs.scheme;
    s_workload = wl.Explorer.wl_name;
    s_read_sectors = Array.length reads;
    s_write_sectors = Array.length writes;
    s_planned = planned;
    s_swept = List.length verdicts;
    s_completed = count (fun v -> v.v_outcome = Completed);
    s_failed_typed =
      count (fun v ->
          match v.v_outcome with Failed_typed _ -> true | _ -> false);
    s_escaped =
      count (fun v -> match v.v_outcome with Escaped _ -> true | _ -> false);
    s_remaps = sum (fun v -> v.v_remaps);
    s_detected = sum (fun v -> v.v_detected);
    s_repaired = sum (fun v -> v.v_repaired);
    s_silent_escapes = count silent_escape;
    s_violations = count (fun v -> not (clean v));
    s_verdicts = verdicts;
  }
