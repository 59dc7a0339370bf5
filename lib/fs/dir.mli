(** Directory entry operations.

    Directories are files of {!Su_fstypes.Types.Dir} blocks. Scanning
    charges CPU per entry examined (the cost that makes the paper's
    create throughput improve with concurrency). Callers hold the
    directory inode's lock across these operations. *)

val lookup : State.t -> State.incore -> string -> int option
(** [lookup st dip name] returns the inode number of [name]. *)

val add_entry : State.t -> State.incore -> string -> int -> unit
(** Insert an entry (growing the directory if needed) and run the
    ordering scheme's link-addition hook against the named inode. *)

val change_entry :
  State.t -> State.incore -> string -> int -> decrement:(int -> unit) -> bool
(** [change_entry st dip name new_inum ~decrement] re-points the
    existing entry [name] at [new_inum] in place — the slot is never
    empty, only old or new (directory rename's ".." rewrite). Runs the
    ordering scheme's entry-change hook: the new target's inode is
    ordered ahead of the rewritten entry, and [decrement old_inum] (the
    old target's link-count drop) behind it. Returns whether the entry
    existed; re-pointing at the current target is a no-op. *)

val remove_entry :
  State.t -> State.incore -> string -> decrement:(int -> unit) -> bool
(** Remove the entry; [decrement inum] is handed to the ordering
    scheme (it performs the link-count decrement, possibly deferred).
    Returns whether the entry existed. *)

val insert_prepared :
  ?link_dep:bool -> State.t -> dir:Su_cache.Buf.t -> slot:int -> string -> int -> unit
(** Low-level insert into a specific (referenced) directory block at
    [slot], running the link-addition hook; used to seed "." and ".."
    into a block that is not yet attached to its directory.

    [link_dep] (default [true]): run the scheme's link-addition hook.
    mkdir passes [false] for "." only: its ordering is structural —
    the dots-bearing block is initialisation-ordered before the
    inode's pointer ({!File.grow_dir_block}), and the directory is
    unreachable until the parent's entry lands, which does carry a
    link dependency on the new inode. Registering a hook dependency
    for "." is not just redundant: under soft updates it makes the
    block's {e first} write roll "." back (the entry waits on the
    very inode write that waits on the block), exposing a reachable
    directory without "." at crash points between the parent-entry
    write and the block's rewrite. ".." is different: its hook orders
    the parent's inode — carrying the incremented link count — ahead
    of the entry, so it stays (BSD softdep's MKDIR_PARENT). *)

val list_names : State.t -> State.incore -> string list
(** All entry names, including "." and "..". *)

val is_empty : State.t -> State.incore -> bool
(** Only "." and ".." remain. *)
