(** Compact, slab-backed disk image.

    A volume stores one {!Types.cell} per fragment address, but not as
    a cell array: the representation is a flat tag byte plus one word
    of payload per address (an off-heap [Bigarray], so the GC never
    scans it), with the bulky metadata kinds encoded into fixed-stride
    [Bytes] slabs:

    - [Empty]/[Pad]/[Frag Zeroed] are the tag byte alone;
    - a [Frag (Written _)] stamp packs its three fields into the
      payload word (oversized fields fall back to a boxed cell);
    - [Inodes] blocks encode at [36 + 4*ndaddr] bytes per dinode
      (int64 size and mtime bits, u32 everything else) — ~88 bytes
      per inode against ~200 for the boxed records;
    - [Dir] blocks become a string array + int array pair (names are
      shared immutable strings);
    - [Indirect] blocks encode block pointers at 4 bytes each;
    - everything else (superblock, cgroup, journal, remap table,
      checksum region) — and any slab-class cell whose fields exceed
      the encoding's ranges — stays a boxed cell, stored as given, so
      reserved-cell aliasing (e.g. the live [Csum] array) behaves
      exactly as the legacy cell-array image did;
    - a cell of a {!mount}ed array is the tag byte alone: it reads
      through to that array's cell until it is stored over.

    The encoding is exact: [read] after [set] returns a cell
    structurally equal to the one stored, and {!digest} folds the
    slabs into the same FNV-1a stream {!Types.cell_digest} produces,
    bit for bit. See HACKING.md "Volume representation". *)

type t

type stats = {
  cells : int;  (** addressable cells *)
  inode_slabs : int;
  dir_slabs : int;
  indirect_slabs : int;
  boxed : int;
  slab_bytes : int;  (** bytes held by [Bytes]-backed slabs *)
  offheap_bytes : int;  (** bytes outside the OCaml heap (the payload plane) *)
}

val create : int -> t
(** [create n] is a volume of [n] cells, all [Empty]. *)

val length : t -> int

val set : t -> int -> Types.cell -> unit
(** Store a cell. Slab-class cells are encoded (the caller keeps
    ownership of the value it passed; later mutation of it cannot
    reach the volume). Boxed kinds are stored as given — the same
    aliasing the legacy [image.(i) <- cell] had. In-place re-encoding
    reuses the existing slab when the shape matches, so steady-state
    overwrites allocate nothing.
    @raise Invalid_argument if the address is out of range. *)

val mount : t -> Types.cell array -> unit
(** [mount t base] makes every cell [i < Array.length base] read
    through to [base.(i)], by reference: nothing is encoded or copied,
    and the slabs those cells held are released. Cells past the end
    of [base] keep their content. A later {!set} of a cell replaces
    the reference. The caller must not mutate [base]'s cells in place
    nor replace its slots while the volume reads through it. A volume
    mounts at most once.
    @raise Invalid_argument if [base] is longer than the volume, or
    the volume (or the volume it was {!copy}ed from) already mounted
    an array. *)

val iter_written : t -> (int -> unit) -> unit
(** [iter_written t f] calls [f i], in ascending order, on every cell
    that does not read through the last {!mount}ed array: the cells
    stored since that mount and those past the array's end (every
    cell, before any mount). A scan of the tag plane that skips eight
    mounted cells at a time. Cells mutated in place without a store —
    a boxed cell's own mutable fields, such as the live checksum
    array — count only if they were stored since the mount. *)

val read : t -> int -> Types.cell
(** Decode a private copy: mutating the result never reaches the
    volume (boxed and mounted cells are deep-copied, matching what
    [Types.copy_cell] did on the legacy image; immutable kinds are
    shared). *)

val peek : t -> int -> Types.cell
(** Like {!read} for the slab-class kinds ([Inodes]/[Dir]/[Indirect]:
    a fresh decode, or a copy of a boxed or mounted block), but the
    boxed kinds (superblock, cgroup, journal, remap table, checksum
    region) are returned live, without the deep copy — do not mutate
    those. This is the cheap accessor behind [Disk.peek]. *)

val digest : t -> int -> int
(** [digest t i = Types.cell_digest (read t i)], computed straight off
    the slabs without materializing the cell. *)

val is_compact : t -> int -> bool
(** Whether the cell at [i] lives in the compact encoding (false =
    boxed, or read through a mounted array). For tests and
    accounting. *)

val copy : t -> t
(** Snapshot by slab blits ([Bytes.copy]/[Array.copy] per slab; boxed
    cells are deep-copied). Mounted cells stay mounted: the copy reads
    through the same array. *)

val snapshot : t -> Types.cell array
(** The legacy view: a cell array of private copies, equal to the
    [Array.map Types.copy_cell] snapshot of the equivalent cell
    image. Only non-empty cells are decoded. *)

val stats : t -> stats

(** {2 (lbn, slot) accessors}

    Single-record reads that decode one slot instead of the whole
    block — what a scaled fsck or per-inode audit should use against a
    live volume. Each returns the slab decode when the cell is
    compact, and falls back to reading the boxed cell otherwise.
    @raise Invalid_argument if [lbn] is out of range, and [Failure] if
    the cell at [lbn] is not the expected metadata kind. *)

val inode_at : t -> lbn:int -> slot:int -> Types.dinode
val dirent_at : t -> lbn:int -> slot:int -> Types.dirent option
val indirect_at : t -> lbn:int -> slot:int -> int
