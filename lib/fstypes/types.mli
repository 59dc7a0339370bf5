(** On-disk data structures.

    Disk contents are modelled as typed values rather than raw bytes:
    one {!cell} per fragment. Metadata blocks (which are always read
    and written as whole, block-aligned extents) occupy eight cells —
    the structured value sits in the first and the rest are [Pad].
    File data is modelled as per-fragment {!stamp}s identifying the
    writer, which is exactly the information a consistency checker
    needs to detect stale-data exposure after a crash. *)

(** Identity of the data stored in one file-data fragment. *)
type stamp =
  | Zeroed  (** written by allocation initialisation *)
  | Written of { inum : int; gen : int; flbn : int }
      (** written by file [inum] (generation [gen]) as its logical
          fragment [flbn] *)

type ftype = F_free | F_reg | F_dir

(** On-disk inode. Block pointers are fragment addresses (block
    aligned for full blocks); 0 means "no block". *)
type dinode = {
  mutable ftype : ftype;
  mutable nlink : int;
  mutable size : int;  (** bytes *)
  mutable gen : int;  (** generation, bumped on each (re)allocation *)
  mutable db : int array;  (** direct pointers, length [Geom.ndaddr] *)
  mutable ib : int;  (** single-indirect block *)
  mutable ib2 : int;  (** double-indirect block *)
  mutable mtime : float;
}

type dirent = { name : string; inum : int }

(** Per-cylinder-group allocation state (the "free maps"). *)
type cg = {
  frag_map : Bytes.t;  (** one byte per fragment in the group; 0=free *)
  inode_map : Bytes.t;  (** one byte per inode in the group; 0=free *)
  mutable nffree : int;  (** free fragments *)
  mutable nifree : int;  (** free inodes *)
}

type superblock = {
  sb_magic : int;
  sb_nfrags : int;
  sb_ncg : int;
  mutable sb_clean : bool;
}

(** A structured metadata block. *)
type meta =
  | Superblock of superblock
  | Cgroup of cg
  | Inodes of dinode array
      (** [Geom.inodes_per_block] dinodes. Slot invariant: a dinode
          held in an [Inodes] array is never mutated in place. Writers
          replace the slot ([dinodes.(i) <- copy_dinode d]); repair,
          replay and rollback paths copy the block ({!copy_meta}) or
          the dinode ({!copy_dinode}) first. Two arrays may therefore
          share dinodes: fresh blocks share one canonical free dinode,
          and a write payload ({!snapshot_meta}) shares the buffer's. *)
  | Dir of dirent option array  (** fixed capacity, [None] = unused slot *)
  | Indirect of int array  (** [Geom.nindir] block pointers *)

(** A write-ahead-log redo record (the journaled-scheme extension).
    Records carry full post-images, so replay in sequence order is
    idempotent and never regresses state. *)
type jrec =
  | J_dinode of { inum : int; din : dinode }
  | J_entry of { blk : int; slot : int; entry : dirent option }
  | J_dir_init of { blk : int }
  | J_ind_init of { blk : int }
  | J_ind_set of { blk : int; slot : int; ptr : int }

(** Contents of one on-disk fragment. *)
type cell =
  | Empty  (** never written *)
  | Pad  (** tail fragment of a metadata block *)
  | Meta of meta
  | Frag of stamp
  | Jlog of { seq : int; recs : jrec list }
      (** one committed log transaction (journal region only) *)
  | Rmap of (int * int) list
      (** bad-sector remap table, [(logical, spare)] in allocation
          order; lives in the reserved slot past the addressable media *)
  | Csum of int array
      (** per-fragment checksum region, one {!cell_digest} per media
          fragment; lives in the reserved slot past the media and the
          spares *)

val magic : int

val cell_digest : cell -> int
(** Structural digest of a cell's canonical serialization (FNV-1a,
    stdlib-only), non-negative. Equal cells digest equal; the checksum
    layer treats a digest mismatch as silent corruption. *)

(** {2 Digest internals}

    The FNV-1a fold underneath {!cell_digest}, exposed so
    {!Volume.digest} can fold the compact slab encoding directly —
    without materializing a [cell] — and still produce bit-identical
    digests. Treat as private: anything else should call
    {!cell_digest}. Every [d_*] threads the running hash [h]; a full
    digest starts at {!fnv_offset} and masks with [land max_int]. *)

val fnv_offset : int
val d_byte : int -> int -> int
val d_int : int -> int -> int
val d_float : int -> float -> int
val d_string : int -> string -> int

val d_bytes : int -> Bytes.t -> int
(** Folds length then each byte in place (same result as
    [d_string h (Bytes.to_string b)], without the copy). *)

val d_int_array : int -> int array -> int
val d_ftype : int -> ftype -> int

val free_dinode : Geom.t -> dinode
(** A zeroed inode slot (freshly allocated: callers may mutate it). *)

(** An all-free [Inodes] block whose slots share one canonical zeroed
    dinode. Never mutate a dinode in place through an [Inodes] array —
    replace the slot (or {!copy_dinode} first), as every fs/fsck path
    already does; mutating through a slot would alter every free slot
    of every fresh block at once. *)
val fresh_inode_block : Geom.t -> meta
val fresh_dir_block : Geom.t -> dirent option array
val fresh_indirect : Geom.t -> int array
val fresh_cg : Geom.t -> cg

val copy_dinode : dinode -> dinode
val copy_superblock : superblock -> superblock
val copy_meta : meta -> meta
(** Deep copy, for callers that mutate the result in place (fsck
    repairs, journal replay). *)

val snapshot_meta : meta -> meta
(** The private copy a write payload takes: {!copy_meta}, except that
    an [Inodes] block copies only its slot array and shares the
    dinodes, which the slot invariant keeps immutable. Later updates
    of the source block never reach the snapshot. *)

val copy_cell : cell -> cell

val copy_image : cell array -> cell array
(** [Array.map copy_cell], except that immutable cells ([Empty],
    [Pad], [Frag], [Rmap]) are shared instead of re-allocated: only
    the cells a verifier may mutate in place are deep-copied. *)

val dir_entry_count : dirent option array -> int
val dir_find : dirent option array -> string -> (int * dirent) option
(** [(slot, entry)] of the entry named [name], if present. *)

val dir_free_slot : dirent option array -> int option

(** {2 Raw images}

    Readers over a whole-disk [cell array] (a snapshot or crash
    image), shared by journal recovery and fsck. *)

val image_dinode : Geom.t -> cell array -> int -> dinode option
(** The allocated dinode in slot [inum]: [None] for an invalid inode
    number, a free slot or a never-written inode block. The result
    aliases the image; treat it as read-only. *)

val image_csum : Geom.t -> cell array -> (int * int array) option
(** The persisted checksum region and its slot, if the image carries
    one. It always lies past the addressable media, so the scan runs
    backward from the end and stops at [Geom.nfrags]. *)

val stamp_matches : stamp -> inum:int -> gen:int -> bool
(** Whether a fragment's content legitimately belongs to the given
    file generation ([Zeroed] always matches: initialised storage
    leaks nothing). *)

val pp_cell : Format.formatter -> cell -> unit
