(** Off-line consistency checker, run against a crashed disk image.

    Distinguishes the paper's notion of {e integrity violations}
    (states fsck cannot safely repair: dangling references, doubly
    allocated resources, link counts lower than the reference count,
    referenced-but-free resources, stale-data exposure) from benign,
    {e repairable} conditions (leaked blocks/inodes, link counts
    higher than the reference count) that ordered updates are allowed
    to leave behind. All schemes except No Order must produce zero
    violations at every crash point; the exposure check additionally
    requires allocation initialisation to have been enforced. *)

open Su_fstypes

(** Why a directory (or a group header) could not be read as one. *)
type bad_dir_reason =
  | Dir_inode_free  (** a directory reached from the root has a free inode *)
  | Bad_dot  (** "." names some other inode *)
  | Missing_dots  (** "." or ".." is missing *)
  | Unreadable_block of { ptr : int }
      (** a directory block pointer leads to something other than a
          directory block *)
  | Unreadable_cg_header
      (** a cylinder-group header is unreadable; the violation's
          [inum] is minus the group number *)

type violation =
  | Dangling_entry of { dir : int; name : string; inum : int }
      (** directory entry referencing a free or garbage inode *)
  | Bad_pointer of { inum : int; lbn : int; ptr : int }
      (** block pointer outside any data area *)
  | Cross_allocated of { frag : int; owners : int * int }
      (** one fragment referenced by two files *)
  | Nlink_low of { inum : int; nlink : int; refs : int }
      (** fewer links than references: premature free possible *)
  | Exposure of { inum : int; flbn : int; frag : int }
      (** pointer to a fragment whose contents the file never wrote:
          another file's stale data is readable *)
  | Bad_dir of { inum : int; reason : bad_dir_reason }
  | Csum_mismatch of { frag : int }
      (** fragment content disagrees with the image's persisted
          checksum region (silent corruption the online ladder never
          healed); only reported when the image carries a region *)

type report = {
  violations : violation list;
  leaked_frags : int;  (** allocated in the maps but unreferenced *)
  leaked_inodes : int;
  stale_free : int;
      (** resources referenced on disk but marked free in the maps
          (repairable: fsck rebuilds the maps before any reuse) *)
  nlink_high : int;  (** inodes with more links than references *)
  files : int;  (** live files found *)
  dirs : int;  (** live directories found *)
}

val pp_violation : Format.formatter -> violation -> unit

val check :
  geom:Geom.t -> image:Types.cell array -> check_exposure:bool -> report
(** Walk the directory tree from the root once, verify every reachable
    structure, then audit the allocation maps against what the walk
    claimed. Its working tables (5 bytes per fragment, 5 per inode,
    outside the OCaml heap) are private to the call, so checks may run
    in several domains at once; each domain keeps one set between
    calls ({!check}, {!rebuild_maps} and {!repair} reuse it, and a call
    nested inside another allocates its own).
    [Nlink_low] violations come in ascending inode order. *)

val ok : report -> bool
(** No violations (leaks are fine). *)

val rebuild_maps :
  ?observer:Imglog.observer -> Geom.t -> Types.cell array -> unit
(** Rewrite every group's allocation bitmaps from one walk of the tree
    reachable from the root: what live inodes reference is in use, the
    rest of each data area is free (leaks are reclaimed). Headers are
    written in group order through {!Su_fstypes.Imglog.write}; one
    that comes out identical is not rewritten (and not observed).
    Journal recovery runs this after replay. *)

(** What {!repair} did to the image. *)
type repair_action =
  | Cleared_entry of { dir : int; name : string }
  | Fixed_nlink of { inum : int; from_ : int; to_ : int }
  | Truncated_file of { inum : int }
      (** cross-allocated, exposed or badly-pointed file data dropped *)
  | Cleared_dir_block of { inum : int; ptr : int }
  | Restored_dots of { inum : int }
  | Freed_unreachable of { inodes : int }
  | Rebuilt_maps
  | Resynced_csums of { frags : int }
      (** checksum region resynchronised to the repaired image as the
          last step: structural repair (not fsck's checksum pass)
          decides what data survives, then every fragment is made to
          verify again so the volume remounts clean *)

val pp_repair_action : Format.formatter -> repair_action -> unit

type repair_outcome = {
  actions : repair_action list;  (** what was done, in order *)
  initial : report;
      (** the first round's check: the image as handed over (after any
          {!repair_test_hook} writes), before repair touched it *)
  final : report;
      (** the re-check after repairing; physically [initial] when the
          repair wrote nothing *)
  rounds : int;  (** structural repair rounds run *)
  converged : bool;
      (** [false] if structural repairs kept uncovering new damage and
          the round limit was hit; the image was still settled
          (link counts, unreachable inodes, allocation maps) but
          [final] may carry residual violations *)
}

val repair :
  ?observer:Imglog.observer ->
  geom:Geom.t ->
  image:Types.cell array ->
  check_exposure:bool ->
  unit ->
  repair_outcome
(** Fix the image in place, fsck-style: clear dangling entries, drop
    the data of cross-allocated/exposed files, restore "."/"..",
    settle link counts to the observed reference counts, reclaim
    unreachable resources and rebuild the allocation maps. Never
    raises on bad images: non-convergence is reported in the
    outcome. One tree walk per structural round: the settle, reclaim
    and map-rebuild phases reuse the last round's walk, and a repair
    that wrote nothing (counting {!repair_test_hook}'s writes) returns
    its first check as [final] instead of checking again. A converged
    repair that wrote builds [final] from its last round's walk too,
    re-running only the audit and checksum phases: once no reachable
    pointer targets anything but a data fragment, its later passes
    write nothing the walk reads. An unconverged repair checks again
    in full.

    Every cell the repair changes flows through
    {!Su_fstypes.Imglog.write}: an [observer] sees repair's own write
    stream (writes that would not change the image are dropped), so
    the crash-state explorer can re-crash repair at any of its write
    boundaries. Repair actions are restartable over their own partial
    effects — each is recomputed from the image it finds — and a
    repair with nothing left to do writes nothing, which is the
    fixed-point the nested sweep checks. *)

val repair_test_hook :
  (Types.cell array -> (int * Types.cell) list) option ref
(** Test-only. When set, [repair] first applies the returned
    [(lbn, cell)] writes through its observed write path. Tests
    install a content-dependent hook here to prove the nested sweep
    catches a non-idempotent repair (one that never reaches a
    write-free round). Always reset to [None] afterwards. *)

(** How {!repair} produced its [final] report. *)
type final_path =
  | Unwritten  (** nothing was written: [final] is [initial] *)
  | Reused_walk  (** converged: the last round's walk, audited again *)
  | Full_check  (** not converged: a fresh walk and audit *)

val repair_final_oracle : (final_path -> unit) option ref
(** Test-only. When set, {!repair} passes it the path its [final]
    report took; before that, unless the path is [Full_check], it runs
    a full {!check} of the repaired image and raises [Failure] if that
    differs from [final]. Always reset to [None] afterwards. *)
