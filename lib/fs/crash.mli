(** Crash injection: stop the world at an arbitrary virtual time (the
    in-flight disk request, if any, is lost — the sector-atomicity
    failure model of the paper) and check the surviving image.

    Exhaustive crash states — every write boundary, and the torn
    refinement where a {e prefix} of a multi-fragment write lands —
    are enumerated from a recorded delta log by {!Su_check.Explorer},
    not here. *)

val crash_at : Fs.world -> float -> Su_fstypes.Types.cell array
(** Run the engine until the given virtual time, stop it, and return a
    snapshot of the on-disk image. *)

val crash_and_check : Fs.world -> float -> Fsck.report
(** [crash_at], then fsck of the image against the configuration's
    promises ({!Fs.check_exposure}), after journal replay when the
    configuration journals. *)

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
