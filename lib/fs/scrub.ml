open Su_fstypes
module Proc = Su_sim.Proc

(* Background media scrubber.

   A `Su_sim.Proc` that walks the volume a slice at a time during
   idle, probing every fragment with a driver read. A latent bad
   sector (permanent read failure) is repaired from whatever known
   content exists — a sister superblock replica, a clean cached copy
   of the extent, or nothing at all for never-written fragments — by
   rewriting through the driver, whose retry-exhaustion path remaps
   the fragment to a spare. Content that exists nowhere else is never
   guessed at: the fragment is reported lost to the health monitor
   (which may flip the volume read-only), preserving fail-clean. *)

type t = {
  engine : Su_sim.Engine.t;
  disk : Su_disk.Disk.t;
  driver : Su_driver.Driver.t;
  cache : Su_cache.Bcache.t;
  health : Health.t;
  geom : Geom.t;
  integrity : Integrity.t option;
  interval : float;
  obs : Su_obs.Events.t option;
  mutable cursor : int;
  mutable stopped : bool;
  mutable npasses : int;
  mutable scanned : int;
  mutable found : int;
  mutable repaired : int;
  mutable deferred : int;
  mutable lost : int;
}

let emit t ~kind fields =
  match t.obs with
  | None -> ()
  | Some sink ->
    Su_obs.Events.emit sink
      ~t_sim:(Su_sim.Engine.now t.engine)
      ~kind fields

let read_frag t lbn =
  Result.map ignore
    (Su_driver.Driver.submit_wait t.driver ~kind:Su_driver.Request.Read ~lbn
       ~nfrags:1 ())

let write_cells t ~lbn cells =
  Result.map ignore
    (Su_driver.Driver.submit_wait t.driver ~kind:Su_driver.Request.Write ~lbn
       ~nfrags:(Array.length cells) ~payload:cells ())

(* Sister superblock copy content for [frag], read through the driver
   so a dead sister is skipped. *)
let replica_content t frag =
  Replica.sister_content t.geom frag ~read:(fun f ->
      match read_frag t f with
      (* copy before rewriting elsewhere: superblock replicas are
         boxed, so [peek] returns the live cell *)
      | Ok () -> Some (Types.copy_cell (Su_disk.Disk.peek t.disk f))
      | Error _ -> None)

let note_repair t frag ~source =
  t.repaired <- t.repaired + 1;
  emit t ~kind:"scrub.repair"
    [ ("frag", Su_obs.Json.Int frag); ("source", Su_obs.Json.Str source) ]

let note_lost t frag =
  t.lost <- t.lost + 1;
  emit t ~kind:"scrub.lost" [ ("frag", Su_obs.Json.Int frag) ];
  Health.note_lost t.health ~frag

let repair t frag =
  if Replica.is_copy_frag t.geom frag then (
    match replica_content t frag with
    | Some cell -> (
      match write_cells t ~lbn:frag [| cell |] with
      | Ok () ->
        Health.note_sb_restored t.health;
        note_repair t frag ~source:"replica"
      | Error e -> Health.note_io_error t.health e)
    | None -> note_lost t frag)
  else
    match
      Su_cache.Bcache.covering t.cache ~span:t.geom.Geom.frags_per_block frag
    with
    | Some b when not b.Su_cache.Buf.dirty -> (
      let cells =
        Su_cache.Buf.payload b.Su_cache.Buf.content
          ~nfrags:b.Su_cache.Buf.nfrags
      in
      match write_cells t ~lbn:b.Su_cache.Buf.key cells with
      | Ok () -> note_repair t frag ~source:"cache"
      | Error e -> Health.note_io_error t.health e)
    | Some _ ->
      (* dirty: the pending flush will rewrite the extent and the
         driver's retry-exhaustion path will remap it — nothing to do *)
      t.deferred <- t.deferred + 1
    | None -> (
      match Su_disk.Disk.peek t.disk frag with
      | Types.Empty ->
        (* never written: no content to preserve, just retire the
           sector so a future allocation lands on the spare *)
        if Su_disk.Disk.try_remap t.disk ~lbn:frag then
          note_repair t frag ~source:"unallocated"
        else begin
          Health.note_spares_exhausted t.health;
          note_lost t frag
        end
      | _ ->
        (* content exists only on the failing sector: report, never
           fabricate *)
        note_lost t frag)

let scan_one t frag =
  t.scanned <- t.scanned + 1;
  match read_frag t frag with
  | Ok () -> (
    (* the sector is readable; with checksums the content must also
       agree with its acknowledged digest — a lost or misdirected
       write surfaces here even if no foreground read ever lands on
       the fragment *)
    match t.integrity with
    | None -> ()
    | Some integ -> (
      match Integrity.verify_frag integ frag with
      | Integrity.Clean -> ()
      | Integrity.Repaired ->
        t.found <- t.found + 1;
        t.repaired <- t.repaired + 1;
        emit t ~kind:"scrub.found" [ ("frag", Su_obs.Json.Int frag) ]
      | Integrity.Lost ->
        t.found <- t.found + 1;
        t.lost <- t.lost + 1;
        emit t ~kind:"scrub.found" [ ("frag", Su_obs.Json.Int frag) ]))
  | Error (Su_disk.Fault.Bad_sector _) ->
    t.found <- t.found + 1;
    emit t ~kind:"scrub.found" [ ("frag", Su_obs.Json.Int frag) ];
    repair t frag
  | Error e ->
    (* exhausted transient / timeout: not a latent bad sector *)
    Health.note_io_error t.health e

(* fragments probed per wake-up *)
let slice = 64

let rec loop t () =
  Proc.sleep t.engine t.interval;
  if not t.stopped then begin
    let media = Su_disk.Disk.nfrags t.disk in
    for i = 0 to slice - 1 do
      if not t.stopped then begin
        let frag = (t.cursor + i) mod media in
        if frag = 0 && t.cursor + i > 0 then begin
          t.npasses <- t.npasses + 1;
          emit t ~kind:"scrub.pass" [ ("n", Su_obs.Json.Int t.npasses) ]
        end;
        scan_one t frag
      end
    done;
    t.cursor <- (t.cursor + slice) mod media;
    loop t ()
  end

let start ~engine ~disk ~driver ~cache ~health ~geom ?integrity ~interval
    ?obs () =
  let t =
    {
      engine;
      disk;
      driver;
      cache;
      health;
      geom;
      integrity;
      interval;
      obs;
      cursor = 0;
      stopped = false;
      npasses = 0;
      scanned = 0;
      found = 0;
      repaired = 0;
      deferred = 0;
      lost = 0;
    }
  in
  ignore (Proc.spawn engine ~name:"scrub" (loop t));
  t

let stop t = t.stopped <- true

let passes_run t = t.npasses
let scanned t = t.scanned
let found t = t.found
let repaired t = t.repaired
let deferred t = t.deferred
let lost t = t.lost
