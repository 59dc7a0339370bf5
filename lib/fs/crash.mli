(** Crash injection: stop the world at an arbitrary virtual time (the
    in-flight disk request, if any, is lost — the sector-atomicity
    failure model of the paper) and check the surviving image.

    The torn-write refinement: a crash may also leave a {e prefix} of
    the in-flight multi-fragment write on the media
    ({!torn_variants}), which is strictly weaker than the paper's
    assumption that an interrupted write applies nothing. *)

val crash_at : Fs.world -> float -> Su_fstypes.Types.cell array
(** Run the engine until the given virtual time, stop it, and return a
    snapshot of the on-disk image. *)

val crash_points : Su_driver.Trace.t -> float list
(** Every distinct write-completion time in the trace, ascending: the
    complete set of instants at which the durable image changes, i.e.
    the interesting crash boundaries. The trace must have been created
    with [keep_records]. *)

val torn_variants :
  Fs.world -> Su_fstypes.Types.cell array -> Su_fstypes.Types.cell array list
(** Given a crashed world (after {!crash_at}) and its image snapshot,
    the additional images a torn in-flight write could leave: one per
    proper non-empty prefix of the write being serviced at crash time
    (empty if the device was idle or the write was single-fragment). *)

val fsck_image : Fs.world -> Su_fstypes.Types.cell array -> Fsck.report
(** Check an image against the mounted configuration's promises
    (stale-data exposure is only checked when allocation
    initialisation was enforced). *)

val crash_and_check : Fs.world -> float -> Fsck.report
(** [crash_at] followed by [fsck_image]. *)

val remount_probe :
  dir:string ->
  Fs.config ->
  Su_fstypes.Types.cell array ->
  (unit, string) result
(** Mount a recovered image and keep living in it: create [dir] and a
    file in it, write, rename, sync, then require the final image to
    check clean. [Error] carries why it did not: the text of the
    exception that escaped (a {!Fs.Mount_failure}, say), "continuation
    did not finish", or "final image not clean (N violations)".
    Consumes [image]: it is mounted by reference, and the final image
    is {!Su_disk.Disk.take_image}, the mounted array with what the
    continuation wrote written back into its slots (for a journaled
    image still holding its log, the replayed copy mounted instead).
    Pass the last use of [image]; its cells are never mutated in
    place. *)
