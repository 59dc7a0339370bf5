(** The buffer cache.

    Provides the three UNIX write disciplines the paper compares:
    synchronous ([bwrite_sync]), asynchronous ([bawrite]) and delayed
    ([bdwrite], flushed later by the {!Syncer} daemon). Ordering
    schemes influence the cache through {!hooks} (write-time rollback
    for soft updates, post-write dependency processing) and through
    the per-buffer [wflag]/[wdeps] fields picked up when a delayed
    buffer is finally written.

    Locking model: while a write is in flight its source buffer is
    write-locked — updaters block in {!prepare_modify} — unless the
    block-copy enhancement (-CB, §3.3 of the paper) is enabled, in
    which case updaters proceed immediately (the payload was
    snapshotted at issue). The block-copy CPU cost is charged by the
    caller via the configured [copy_cost] callback. *)

exception Io_error of Su_disk.Fault.error
(** A synchronous cache operation ([bread], [bwrite_sync]) failed at
    the device after the driver's retry budget ran out. *)

type stuck_buffer = {
  sb_key : int;  (** extent start address *)
  sb_nfrags : int;
  sb_dirty : bool;
  sb_io : int;  (** writes in flight *)
  sb_ref : int;  (** references held *)
  sb_sticky : bool;
}
(** Snapshot of a buffer implicated in a stuck cache operation. *)

exception
  Stuck of { op : string; detail : string; buffers : stuck_buffer list }
(** A cache loop made no progress (dependency cycle, unreclaimable
    space, copy budget never released). [buffers] identifies exactly
    which buffers are wedged and why. Replaces the bare [Failure]
    dead-ends these paths used to raise. *)

val stuck_to_string : op:string -> detail:string -> stuck_buffer list -> string
(** Render a {!Stuck} payload the way the registered exception printer
    does (at most 16 buffers listed). *)

type hooks = {
  mutable pre_write : Buf.t -> Su_fstypes.Types.cell array * bool;
      (** build the write payload, [nfrags] cells handed to the driver
          as they are; [true] = keep the buffer dirty (some updates
          were rolled back). The payload is the only copy of the
          buffer the write takes, so it must share no mutable state
          with it: the default is {!Buf.payload}, whose [Inodes]
          snapshot shares the unchanged dinodes (immutable by the slot
          invariant of {!Su_fstypes.Types.meta}). A hook that rolls a
          dinode back copies that dinode first. *)
  mutable post_write : Buf.t -> unit;
      (** dependency processing after a write completes *)
  mutable pre_invalidate : Buf.t -> unit;
      (** scheme must detach any dependency state *)
  mutable verify_fill :
    (lbn:int -> Su_fstypes.Types.cell array -> Su_fstypes.Types.cell array)
      option;
      (** integrity hook, run (process context) on every fill read
          before the cells become a buffer: returns the cells to
          trust (possibly repaired), or raises
          [Io_error (Checksum _)] when the repair ladder is
          exhausted. Installed by the fs layer. *)
}

type config = {
  capacity_frags : int;  (** total cached fragments *)
  cb : bool;  (** block-copy enhancement enabled *)
  copy_cost : int -> unit;
      (** charge CPU for copying [n] fragments (block-copy / rollback
          copies); called in process or engine context, must not
          block *)
  sink : Su_obs.Events.t option;
      (** when set, the cache emits [cache.fill] / [cache.dirty] /
          [cache.clean] / [cache.evict] / [cache.invalidate] events.
          Never perturbs cache behavior or simulated time. *)
}

val default_config : config
(** 32 MB cache, no block copy, free copies, no event sink. *)

type t

val create : engine:Su_sim.Engine.t -> driver:Su_driver.Driver.t -> config -> t

val hooks : t -> hooks
val engine : t -> Su_sim.Engine.t
val driver : t -> Su_driver.Driver.t
val cb_enabled : t -> bool

val lookup : t -> int -> Buf.t option
(** By extent start address; no I/O, no reference taken. *)

val buffer_count : t -> int
(** Valid buffers cached. *)

val next_key : t -> int -> int
(** [next_key t k] is the smallest cached extent start address [>= k],
    or [-1] if there is none: an address-ordered walk over the cache
    that neither sorts nor allocates (syncer sweep). *)

val getblk : t -> lbn:int -> nfrags:int -> init:(unit -> Buf.content) -> Buf.t
(** Find or create a buffer without reading the disk (used when the
    caller will fully initialise it). Takes a reference.
    @raise Invalid_argument if a cached buffer exists at [lbn] with a
    different extent length. *)

val bread : t -> lbn:int -> nfrags:int -> Buf.t
(** Read through the cache (blocking on a miss). Takes a reference.
    @raise Io_error if the device read failed after all retries. *)

val release : t -> Buf.t -> unit
(** Drop a reference taken by [getblk]/[bread]. *)

val with_buf : t -> Buf.t -> (Buf.t -> 'a) -> 'a
(** Run [f] and release the buffer afterwards (also on exceptions). *)

val prepare_modify : t -> Buf.t -> unit
(** Block until the buffer may be mutated (write-lock wait unless
    block-copy is enabled). Call before changing [content]. *)

val bdwrite : t -> Buf.t -> unit
(** Delayed write: mark dirty. *)

val bawrite :
  ?flagged:bool ->
  ?deps:int list ->
  ?sync:bool ->
  ?notify:((unit, Su_disk.Fault.error) result -> unit) ->
  t ->
  Buf.t ->
  int
(** Issue an asynchronous write now; returns the request id.
    [flagged]/[deps] override the buffer's pending [wflag]/[wdeps]
    (which are consumed either way). Multiple writes of one buffer may
    be in flight; the driver completes overlapping writes in issue
    order. [notify] runs (in engine context) when this write
    completes, with [Error] if the driver failed it after all retries.
    A failed write re-marks the buffer dirty (the payload never became
    durable) and skips the post-write dependency hook. *)

val bwrite_sync : t -> Buf.t -> unit
(** Synchronous write: issue and block until it reaches the disk.
    @raise Io_error if the device write failed after all retries. *)

val wait_write : t -> Buf.t -> unit
(** Block until the current in-flight write (if any) completes. *)

val set_extent : t -> Buf.t -> nfrags:int -> Buf.content -> unit
(** Change a buffer's extent length and content in place (fragment
    extension); adjusts space accounting. *)

val invalidate : t -> Buf.t -> unit
(** Drop the buffer (even if dirty — the caller is deallocating the
    storage). Runs the [pre_invalidate] hook first. *)

val add_workitem : t -> (unit -> unit) -> unit
(** Queue background work for the syncer daemon (may block when run). *)

val take_workitems : t -> (unit -> unit) list
(** Drain the queue (syncer only). *)

val dirty_count : t -> int
val used_frags : t -> int

val io_failures : t -> int
(** Writes the driver failed after exhausting its retry budget; each
    left its buffer dirty for a later re-flush. *)

val set_io_error_callback : t -> (Su_disk.Fault.error -> unit) -> unit
(** Invoked (engine or process context) on every definitive device
    failure the cache observes — failed buffer writes and failed
    reads — after internal accounting, before any exception is
    raised. The FS health monitor hangs off this. *)

val last_io_error : t -> Su_disk.Fault.error option
(** Most recent definitive device failure, if any. *)

val hits : t -> int
(** [getblk]/[bread] calls that found their extent cached. *)

val misses : t -> int
(** Calls that created the buffer (read in or freshly initialised). *)

val evictions : t -> int
(** Buffers reclaimed by [ensure_space] under capacity pressure
    (explicit {!invalidate} calls are not counted). *)

val pick_victim : t -> Buf.t option
(** The buffer space reclaim would take next: the least recently used
    evictable clean buffer, else the least recently used evictable
    dirty one, else [None] (everything referenced, in-flight or
    sticky). Exposed for the test suite. *)

val lru_keys : t -> dirty:bool -> int list
(** Extent keys of the clean ([dirty:false]) or dirty ([dirty:true])
    buffers, least recently used first: one walk of the cache's single
    recency list, which holds every valid buffer in stamp order.
    Exposed for the test suite. *)

val all_bufs : t -> Buf.t list
(** Valid buffers in unspecified order. *)

val sync_all : t -> unit
(** Flush every dirty buffer and quiesce the driver, iterating until
    dependency rollbacks converge. Each round writes the dirty buffers
    with no write in flight in least-recently-used order, taken from
    the recency list in one walk.
    @raise Io_error if the dirty set stops shrinking because the
    device keeps failing writes definitively (permanent fault with the
    spare pool exhausted or absent).
    @raise Stuck if no progress is made without device failures
    (dependency cycle — a bug), listing the still-dirty buffers. *)
