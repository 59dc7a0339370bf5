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

val check : Fs.config -> Su_fstypes.Types.cell array -> Fsck.report
(** Recover a crash image as a mount would ({!Fs.recover_image}: journal
    replay and map rebuild when the configuration journals), then fsck
    it against the configuration's geometry and promises
    ({!Fs.check_exposure}). Replaces slots of the image; never mutates
    a cell in place. *)

val repair :
  ?observer:Su_fstypes.Imglog.observer ->
  Fs.config ->
  Su_fstypes.Types.cell array ->
  Fsck.repair_outcome
(** As {!check}, with {!Fsck.repair} in place of the check: its
    [initial] report is what {!check} returns. [observer] sees every
    cell recovery and repair change, in order. *)

val crash_and_check : Fs.world -> float -> Fsck.report
(** [crash_at], then {!check} of the image under the world's
    configuration. *)

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
