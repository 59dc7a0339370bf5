(** Cached disk buffers.

    A buffer caches one on-disk extent: either a structured metadata
    block or a run of data fragments. Buffers are the unit of
    dirtiness, write-out and locking. Ordering schemes hang
    per-buffer dependency state off the extensible [aux] slot. *)

type content =
  | Cmeta of Su_fstypes.Types.meta
  | Cdata of Su_fstypes.Types.stamp option array
      (** one slot per fragment; [None] = never written (garbage) *)

type aux = ..
(** Extended by ordering schemes (e.g. soft-updates dependency
    structures). At most one attachment per buffer. *)

type t = {
  key : int;  (** first fragment address of the extent *)
  mutable nfrags : int;
  mutable content : content;
  mutable dirty : bool;
  mutable io_count : int;  (** writes of this buffer on the driver *)
  mutable io_locked : bool;  (** updaters must wait (no block-copy) *)
  mutable valid : bool;  (** false once invalidated/evicted *)
  mutable refcount : int;
  lru : t Su_util.Lru.node;
      (** intrusive recency node; [lru.value == t]. Owned by the cache:
          on its recency list while valid, detached when invalid. *)
  mutable wflag : bool;  (** issue the next write with the ordering flag *)
  mutable wdeps : int list;  (** chains: request ids the next write depends on *)
  mutable aux : aux option;
  mutable sticky : bool;  (** never evict (scheme holds state in content) *)
  mutable syncer_marked : bool;  (** first-pass mark by the syncer daemon *)
  lock_waiters : Su_sim.Sync.Waitq.t;
  mutable write_waiters : (unit -> unit) list;
      (** resumed when the in-flight write completes *)
}

val meta : t -> Su_fstypes.Types.meta
(** @raise Invalid_argument if the buffer holds data. *)

val data : t -> Su_fstypes.Types.stamp option array
(** @raise Invalid_argument if the buffer holds metadata. *)

val meta_cells : Su_fstypes.Types.meta -> nfrags:int -> Su_fstypes.Types.cell array
(** [Meta m] followed by [Pad] tails, wrapping [m] without copying it:
    for a hook that has already built its private copy. *)

val payload : content -> nfrags:int -> Su_fstypes.Types.cell array
(** The write payload: the only copy taken of the buffer. Metadata is
    snapshotted with {!Su_fstypes.Types.snapshot_meta} (an [Inodes]
    block shares its unchanged dinodes) and fills the first cell, with
    [Pad] tails; data fragments map one-to-one ([None] becomes
    [Empty]). Later updates of the buffer never reach the result. *)

val of_cells : Su_fstypes.Types.cell array -> content
(** Interpret cells read from disk. Data extents whose cells are
    [Empty]/[Pad] become [None] slots; a metadata cell must be first.
    @raise Invalid_argument on an empty array. *)
