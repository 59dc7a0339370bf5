(** Write-delta logs: incremental crash-state snapshots.

    A fault-free reference run is recorded as an initial image plus
    one {!t} per applied write — (start lbn, pre-image, post-image) —
    in completion order (captured via
    {!Su_disk.Disk.set_delta_observer}). The durable image after the
    first [k] writes is then materialized by {e seeking} a {!cursor}:
    applying post-images to move forward, re-installing pre-images to
    move back. Each step costs O(cells touched by that write) instead
    of the O(image) deep copy a full snapshot pays, which is what lets
    the crash-state explorer visit thousands of boundaries cheaply and
    lets pool workers jump straight to their assigned boundary.

    Sharing discipline: [apply]/[undo] install the log's cell values
    into the target array {e without} copying. This is safe because
    cells are never mutated in place once recorded: every consumer
    that writes (journal replay, the checksum refresh, fsck repair, the
    remount probe) replaces slots of its own shallow copy of the
    materialized image and never changes a cell it did not build.

    With the slab-backed {!Su_fstypes.Volume} behind the disk, the
    observer's [pre]/[post] extents are {e decoded} cells — private
    values that share no structure with the live image — so a logged
    delta can never be corrupted by later volume writes, and replaying
    the whole log forward (or undoing it backward) over an
    [image_snapshot] reproduces the volume's final (or initial)
    snapshot exactly; [test/test_volume.ml] pins that round-trip
    against a volume-backed disk. *)

open Su_fstypes

type t = {
  d_lbn : int;  (** first fragment the write covered *)
  d_pre : Types.cell array;  (** image content replaced by the write *)
  d_post : Types.cell array;  (** payload that landed (same length) *)
}

val v : lbn:int -> pre:Types.cell array -> post:Types.cell array -> t
(** @raise Invalid_argument if [pre] and [post] differ in length. *)

val apply : Types.cell array -> t -> unit
(** Install the post-image (replay the write). *)

val undo : Types.cell array -> t -> unit
(** Re-install the pre-image (revert the write). *)

(** A seekable position in a delta log: one reusable base image plus
    the number of applied writes. *)
type cursor

val cursor : initial:Types.cell array -> log:t array -> cursor
(** Fresh cursor at boundary 0. The base starts as a slot-level copy
    of [initial]; the cells themselves are shared (see the sharing
    discipline above), so creating per-worker cursors is cheap. *)

val seek : cursor -> int -> unit
(** [seek c k] moves the base image to the state after exactly [k]
    completed writes, replaying or undoing the deltas in between.
    @raise Invalid_argument if [k] is outside [0 .. length log]. *)

val position : cursor -> int

val image : cursor -> Types.cell array
(** The live base image at the cursor's boundary. Owned by the
    cursor: callers must not mutate it — take an [Array.copy] of it
    before handing it to anything that replaces slots. *)

val log : cursor -> t array
