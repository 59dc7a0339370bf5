(** Superblock replication: mount-time cross-check and restore.

    mkfs writes one superblock copy at the head of every cylinder
    group; losing copies therefore degrades the volume instead of
    killing it. {!check_and_restore} validates every copy (content
    check via {!Su_disk.Disk.peek}, readability check against the
    device's permanent bad-sector list) and rewrites invalid ones from
    a surviving sister, remapping a permanently bad home to a spare
    first when possible. *)

val is_copy_frag : Su_fstypes.Geom.t -> int -> bool
(** Does this fragment fall inside a superblock copy's block? *)

val sister_content :
  Su_fstypes.Geom.t -> int -> read:(int -> 'a option) -> 'a option
(** [sister_content geom frag ~read]: the replica layout's stand-in
    for a superblock fragment. [read] is tried, in group order, on the
    fragment at [frag]'s offset inside every {e other} copy's block
    (all copies hold identical content); the first [Some] wins. [None]
    when every sister read fails or [frag] is in no copy's block. The
    caller supplies the read (the scrubber and the integrity ladder
    read through the driver, each in its own way). *)

val check_and_restore :
  geom:Su_fstypes.Geom.t -> Su_disk.Disk.t -> (int, string) result
(** [Ok n]: [n] copies were restored from a sister ([0] = all good).
    [Error _]: every copy is invalid or unreadable — the volume cannot
    be mounted safely. *)
