(** Superblock replication: mount-time cross-check and restore.

    mkfs writes one superblock copy at the head of every cylinder
    group; losing copies therefore degrades the volume instead of
    killing it. {!check_and_restore} validates every copy (content
    check via {!Su_disk.Disk.peek}, readability check against the
    device's permanent bad-sector list) and rewrites invalid ones from
    a surviving sister, remapping a permanently bad home to a spare
    first when possible. *)

val copy_frags : Su_fstypes.Geom.t -> int list
(** Fragment addresses of all superblock copies (one per group). *)

val is_copy_frag : Su_fstypes.Geom.t -> int -> bool
(** Does this fragment fall inside a superblock copy's block? *)

val check_and_restore :
  geom:Su_fstypes.Geom.t -> Su_disk.Disk.t -> (int, string) result
(** [Ok n]: [n] copies were restored from a sister ([0] = all good).
    [Error _]: every copy is invalid or unreadable — the volume cannot
    be mounted safely. *)
