(** Simulated disk device.

    The disk services one request at a time (the paper's setup does
    not use command queueing); the device driver above it is
    responsible for scheduling. Service time = controller overhead +
    seek + rotational latency + rotation-synchronous transfer, with a
    segmented on-board cache that satisfies sequential reads at
    near-zero mechanical cost.

    The disk owns the persistent {e image}: one {!Su_fstypes.Types.cell}
    per fragment. A successful write's payload is applied to the image
    atomically at completion time — stopping the engine mid-request
    therefore models a crash with the in-flight request lost (the
    paper's sector-atomicity assumption); {!set_delta_observer} lets a
    crash harness log every applied extent and tear any of them. With a
    {!Fault} model attached, attempts may fail with a typed error, and
    a failed multi-fragment write may apply only a prefix of its
    payload. *)

type t

type op = Read | Write

val create :
  engine:Su_sim.Engine.t ->
  params:Disk_params.t ->
  nfrags:int ->
  ?nvram_frags:int ->
  ?fault:Fault.config ->
  ?spare_frags:int ->
  ?checksums:bool ->
  unit ->
  t
(** @raise Invalid_argument if [nfrags] exceeds the drive capacity.

    [nvram_frags] (> 0) adds a battery-backed write cache: a write
    whose payload fits completes at electronic speed and is durable on
    acceptance (the image is updated immediately — NVRAM survives the
    crash); the occupied space destages to the platters during idle
    time at mechanical cost. Writes that do not fit fall back to
    mechanical service.

    [fault] (default {!Fault.none}) attaches a fault model; NVRAM
    acceptances and background destages are not subject to it (the
    data is already durable when a destage starts).

    [spare_frags] (> 0) reserves a spare-fragment pool past the
    addressable media plus one cell holding the persisted {!Remap}
    table. Logical addressing ([nfrags], [submit] bounds) is
    unchanged; remapped fragments are transparently redirected. With
    no remap entries the device behaves bit-identically to a disk
    without spares.

    [checksums] (default false) reserves one more cell past the
    spares holding a per-fragment digest of the logical media
    ({!Su_fstypes.Types.cell_digest} per cell), refreshed at write
    {e acknowledgement} — so a lost or misdirected write leaves a
    detectable digest/media disagreement, which is what the integrity
    layer above verifies on every cache fill. Off, the device is
    bit-identical to before the region existed. *)

val busy : t -> bool

val submit :
  t ->
  lbn:int ->
  nfrags:int ->
  op:op ->
  payload:Su_fstypes.Types.cell array option ->
  on_done:
    ((Su_fstypes.Types.cell array option, Fault.error) result -> float -> unit) ->
  unit
(** Start servicing a request. [payload] is required for writes
    (length [nfrags]) and must already be a private snapshot. The
    completion callback receives [Ok] with the read data (deep-copied,
    for reads) — or [Error] with the injected fault, in which case a
    write may have applied a prefix of its payload (torn) — and the
    access (service) time, and runs in engine-event context.
    @raise Invalid_argument if the disk is busy or arguments are
    malformed. *)

val install : t -> int -> Su_fstypes.Types.cell -> unit
(** Write a cell directly into the image with no timing (mkfs, image
    mounting, repair). Media addresses go through the remap table
    (identity until entries exist — installing a captured
    [image_snapshot] before {!reload_remap} reproduces the physical
    layout verbatim); addresses past the media hit the raw spare
    region. *)

val install_image : t -> Su_fstypes.Types.cell array -> unit
(** Mount a captured physical image (spare region, remap-table cell
    and checksum region included when present) on a fresh device, by
    reference ({!Su_fstypes.Volume.mount}): the volume reads each cell
    through to [cells] until it is stored over, with nothing encoded
    or copied. A [Csum] cell (a checksum region captured from a prior
    incarnation) is not mounted positionally: it is loaded over the
    live region, replacing the digests of the other cells, so
    corruption that predates the mount stays detectable, and its slot
    keeps what the device held there. The caller must neither mutate
    [cells]' cells in place nor replace its slots while the device
    lives, until {!take_image} hands the array back.
    @raise Invalid_argument if [cells] is larger than the device or
    the device already holds remap entries. *)

val take_image : t -> Su_fstypes.Types.cell array
(** Consume the mount: write every cell stored since {!install_image}
    (and the checksum region's slot, and any cell past the mounted
    array's end) back into the array it mounted, and return that array
    — structurally equal to {!image_snapshot} at this instant, at the
    cost of the cells written rather than of the volume. If the array
    was shorter than the device, the result is a longer copy. The
    device must not be used afterwards.
    @raise Invalid_argument if no image is mounted. *)

val peek : t -> int -> Su_fstypes.Types.cell
(** Read one image cell directly (fsck / tests). Slab-encoded kinds
    (fragments, inode/dir/indirect blocks) decode to a fresh value —
    mutating the result cannot corrupt the image. Reserved boxed cells
    (superblock, cgroup, journal, remap table, checksum region) are
    returned live without a copy: treat those as read-only, and route
    every image mutation through {!install} (or the write path).
    Media addresses are translated through the remap table; addresses
    past the media read the raw spare region. *)

val frag_digest : t -> int -> int
(** {!Su_fstypes.Types.cell_digest} of the image cell at a (logical)
    address, folded straight off the compact representation — the
    at-rest verifier's accessor, equivalent to digesting {!peek}'s
    result without materializing it. *)

val image_snapshot : t -> Su_fstypes.Types.cell array
(** Deep copy of the whole {e physical} image (crash-state capture),
    spare region and remap-table cell included when configured. *)

val image_stats : t -> Su_fstypes.Volume.stats
(** Representation accounting of the live image (slab/boxed counts,
    slab bytes) — for benches and capacity reporting. *)

val logical_snapshot : t -> Su_fstypes.Types.cell array
(** Deep copy of the addressable media ([nfrags] cells) with every
    remap entry resolved to its spare's content — what the layers
    above observe. Equals {!image_snapshot} when no spares are
    configured. *)

val reload_remap : t -> unit
(** Restore the in-core remap table from the persisted cell (mount
    after {!install}ing a captured image). No-op without spares. *)

val expected_digest : t -> int -> int option
(** The checksum region's digest for a (logical) media fragment;
    [None] without [checksums] or out of range. *)

val try_remap : t -> lbn:int -> bool
(** Allocate a spare for a (logically addressed) bad fragment and
    persist the updated table, notifying the write observers. Returns
    false when no spare pool is configured, the pool is exhausted, or
    the address is out of range. The caller (driver) re-drives the
    failed write afterwards; the fragment's new physical home is not
    subject to the old bad sector. *)

val remaps : t -> int
(** Remap operations performed (spares consumed). *)

val spares_total : t -> int
val spares_left : t -> int

val remap_entries : t -> (int * int) list
(** Current [(logical, spare)] table in allocation order. *)

val nfrags : t -> int
val requests_serviced : t -> int
val total_service_time : t -> float

(** {2 Service-time breakdown}

    Where the device's busy time went, accumulated per operation.
    Media operations (including background destages) contribute seek,
    rotational wait, transfer and controller overhead; cache-hit reads
    contribute overhead and their burst transfer; NVRAM acceptances
    are excluded (electronic, not mechanical). All in seconds. *)

val seek_time_total : t -> float
val rot_wait_time_total : t -> float
val transfer_time_total : t -> float
val overhead_time_total : t -> float

val set_idle_callback : t -> (unit -> unit) -> unit
(** Invoked (engine context) when a background NVRAM destage finishes
    and the device is idle again — the driver uses it to re-dispatch,
    since no foreground completion fires. *)

val nvram_pending : t -> int
(** Fragments accepted into NVRAM and not yet destaged. *)

val destages : t -> int
(** Background destage operations performed. *)

val fault : t -> Fault.t
(** The attached fault model ({!Fault.none} by default). *)

val faults_injected : t -> int

val silent_faults : t -> int
(** Silent faults injected so far (included in {!faults_injected}). *)

val set_delta_observer :
  t ->
  (lbn:int ->
  pre:Su_fstypes.Types.cell array ->
  post:Su_fstypes.Types.cell array ->
  unit) ->
  unit
(** [f ~lbn ~pre ~post] fires every time payload fragments reach
    durable storage: at completion of a successful mechanical write,
    at NVRAM acceptance, and — with only the surviving prefix — when a
    write fails torn. [pre] is the image content of [lbn ..]
    immediately before the payload landed, [post] the content after
    (both private deep copies, same length). A log of these deltas can
    materialize the durable image at {e any} write boundary by
    replaying forward or undoing backward from a single base image in
    O(cells touched) per step — see {!Su_check.Delta}. *)
