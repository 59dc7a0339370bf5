open Su_fstypes

(* End-to-end metadata integrity.

   The disk's checksum region records, at write-acknowledgement time,
   a digest of what the device *claims* each fragment holds. Silent
   faults make the claim and the media disagree: a read bit-flip
   corrupts the returned copy, a lost write leaves stale media under a
   fresh digest, a misdirected write does that to its destination and
   plants undigested data on a victim. This module is the detection
   and self-healing side: every cache fill is verified against the
   region, and a mismatch escalates through a repair ladder —

     re-read (flips corrupt only the transferred copy)
       -> superblock replica (sister copies carry the same block)
       -> clean cached copy (the last acknowledged content, re-written
          through the driver, whose retry-exhaustion path remaps a
          fragment that keeps failing)
       -> typed failure: [Su_cache.Bcache.Io_error (Checksum _)], and
          the health automaton is told the fragment is lost.

   Nothing is ever guessed at: a rung's content is accepted only when
   it digests to the acknowledged value (the superblock rung excepted
   — replicas are the ground truth for the superblock itself). *)

type t = {
  engine : Su_sim.Engine.t;
  disk : Su_disk.Disk.t;
  driver : Su_driver.Driver.t;
  cache : Su_cache.Bcache.t;
  health : Health.t;
  geom : Geom.t;
  obs : Su_obs.Events.t option;
  mutable fills : int;  (* cache fills verified *)
  mutable mismatches : int;  (* fragments that failed verification *)
  mutable repaired_reread : int;
  mutable repaired_replica : int;
  mutable repaired_cache : int;
  mutable unrepairable : int;
}

let create ~engine ~disk ~driver ~cache ~health ~geom ?obs () =
  {
    engine;
    disk;
    driver;
    cache;
    health;
    geom;
    obs;
    fills = 0;
    mismatches = 0;
    repaired_reread = 0;
    repaired_replica = 0;
    repaired_cache = 0;
    unrepairable = 0;
  }

let fills_verified t = t.fills
let mismatches t = t.mismatches
let repaired_reread t = t.repaired_reread
let repaired_replica t = t.repaired_replica
let repaired_cache t = t.repaired_cache
let repaired t = t.repaired_reread + t.repaired_replica + t.repaired_cache
let unrepairable t = t.unrepairable

let emit t ~kind fields =
  match t.obs with
  | None -> ()
  | Some sink ->
    Su_obs.Events.emit sink
      ~t_sim:(Su_sim.Engine.now t.engine)
      ~kind fields

(* Fragment offsets of [cells] whose digest disagrees with the
   checksum region; empty without checksums. *)
let verify_cells t ~lbn cells =
  let bad = ref [] in
  Array.iteri
    (fun i c ->
      match Su_disk.Disk.expected_digest t.disk (lbn + i) with
      | Some d when d <> Types.cell_digest c -> bad := (lbn + i) :: !bad
      | Some _ | None -> ())
    cells;
  List.rev !bad

(* --- driver I/O (process context) ------------------------------------ *)

let read_cells t ~lbn ~nfrags =
  match
    Su_driver.Driver.submit_wait t.driver ~kind:Su_driver.Request.Read ~lbn
      ~nfrags ()
  with
  | Ok (Some cells) -> Ok cells
  | Ok None -> Error (Su_disk.Fault.Transient { op = `Read; lbn })
  | Error e -> Error e

let write_cells t ~lbn cells =
  Result.map ignore
    (Su_driver.Driver.submit_wait t.driver ~kind:Su_driver.Request.Write ~lbn
       ~nfrags:(Array.length cells)
       ~payload:(Array.map Types.copy_cell cells)
       ())

(* --- the per-fragment rungs ------------------------------------------ *)

(* Sister superblock copy content for [frag]: the copy the read
   returned, from the first readable sister. *)
let replica_content t frag =
  Replica.sister_content t.geom frag ~read:(fun f ->
      match read_cells t ~lbn:f ~nfrags:1 with
      | Ok cells -> Some (Types.copy_cell cells.(0))
      | Error _ -> None)

(* A clean cached buffer covering [frag] holds the last content the
   device acknowledged for it. *)
let cached_content t frag =
  match
    Su_cache.Bcache.covering t.cache ~span:t.geom.Geom.frags_per_block
      ~clean:true frag
  with
  | Some b ->
    let cells =
      Su_cache.Buf.payload b.Su_cache.Buf.content ~nfrags:b.Su_cache.Buf.nfrags
    in
    Some cells.(frag - b.Su_cache.Buf.key)
  | None -> None

let note_repair t ~frag ~source =
  emit t ~kind:"integrity.repair"
    [ ("frag", Su_obs.Json.Int frag); ("source", Su_obs.Json.Str source) ]

(* Recover one fragment's content from the ladder's offline rungs
   (replica, then clean cache copy), [Some cell] on success. Content
   is accepted only when it digests to the acknowledged value — except
   on superblock fragments, where the sister replicas *are* the
   authority (their own write acks digested them). *)
let recover_frag t frag =
  let expected = Su_disk.Disk.expected_digest t.disk frag in
  match replica_content t frag with
  | Some cell ->
    t.repaired_replica <- t.repaired_replica + 1;
    Health.note_sb_restored t.health;
    note_repair t ~frag ~source:"replica";
    Some cell
  | None -> (
    match cached_content t frag with
    | Some cell when expected = Some (Types.cell_digest cell) ->
      t.repaired_cache <- t.repaired_cache + 1;
      note_repair t ~frag ~source:"cache";
      Some cell
    | Some _ | None -> None)

let note_lost t frag =
  t.unrepairable <- t.unrepairable + 1;
  emit t ~kind:"integrity.lost" [ ("frag", Su_obs.Json.Int frag) ];
  Health.note_lost t.health ~frag

(* --- cache-fill verification (the Bcache hook) ------------------------ *)

let verify_fill t ~lbn cells =
  t.fills <- t.fills + 1;
  match verify_cells t ~lbn cells with
  | [] -> cells
  | bad0 ->
    t.mismatches <- t.mismatches + List.length bad0;
    List.iter
      (fun frag ->
        emit t ~kind:"integrity.mismatch" [ ("frag", Su_obs.Json.Int frag) ])
      bad0;
    let nfrags = Array.length cells in
    (* rung 1: re-read — a flipped transfer corrupts only the returned
       copy, so a fresh read usually comes back clean (two attempts
       ride out an unlucky second flip under probabilistic injection) *)
    let rec reread attempts =
      if attempts = 0 then None
      else
        match read_cells t ~lbn ~nfrags with
        | Error _ -> None
        | Ok fresh ->
          if verify_cells t ~lbn fresh = [] then Some fresh
          else reread (attempts - 1)
    in
    (match reread 2 with
     | Some fresh ->
       t.repaired_reread <- t.repaired_reread + List.length bad0;
       List.iter (fun frag -> note_repair t ~frag ~source:"reread") bad0;
       fresh
     | None ->
       (* the media itself disagrees with the acknowledged digests:
          recover each fragment offline and rewrite the healed extent
          through the driver (re-acknowledgement resyncs the region;
          a fragment that keeps failing is remapped by the driver's
          retry-exhaustion path) *)
       let healed = Array.map Types.copy_cell cells in
       let still_bad =
         List.filter
           (fun frag ->
             match recover_frag t frag with
             | Some cell ->
               healed.(frag - lbn) <- cell;
               false
             | None -> true)
           (verify_cells t ~lbn healed)
       in
       (match still_bad with
        | [] ->
          (match write_cells t ~lbn healed with
           | Ok () -> ()
           | Error e -> Health.note_io_error t.health e);
          healed
        | frag :: _ ->
          List.iter (note_lost t) still_bad;
          raise
            (Su_cache.Bcache.Io_error (Su_disk.Fault.Checksum { lbn = frag }))))

(* --- at-rest verification --------------------------------------------- *)

type at_rest = Clean | Repaired | Lost

(* Verify one media fragment at rest against the checksum region,
   repairing through the ladder's offline rungs when it disagrees.
   Lost and misdirected writes that no read ever touches surface only
   here; the re-read rung does not apply (the media itself is the
   disagreeing party). Process context. *)
let verify_frag t frag =
  match Su_disk.Disk.expected_digest t.disk frag with
  | None -> Clean
  | Some d ->
    if d = Su_disk.Disk.frag_digest t.disk frag then Clean
    else begin
      t.mismatches <- t.mismatches + 1;
      emit t ~kind:"integrity.mismatch" [ ("frag", Su_obs.Json.Int frag) ];
      match recover_frag t frag with
      | Some cell -> (
        match write_cells t ~lbn:frag [| cell |] with
        | Ok () -> Repaired
        | Error e ->
          Health.note_io_error t.health e;
          Lost)
      | None ->
        note_lost t frag;
        Lost
    end

(* Verify the whole media (the corruption campaign runs this after the
   final sync, before unmount). Returns the number of unrepairable
   fragments; process context. *)
let full_verify t =
  let media = Su_disk.Disk.nfrags t.disk in
  let unrepaired = ref 0 in
  for frag = 0 to media - 1 do
    match verify_frag t frag with
    | Clean | Repaired -> ()
    | Lost -> incr unrepaired
  done;
  !unrepaired
