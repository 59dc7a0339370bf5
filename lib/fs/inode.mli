(** In-core inode management.

    The file system always works on an in-core copy of the dinode
    (paper footnote 11); every modification is written through to the
    buffered inode block with {!update}, which marks the block dirty.
    Persistence ordering is the ordering scheme's business. *)

open Su_fstypes

val with_ibuf : State.t -> int -> (Su_cache.Buf.t -> 'a) -> 'a
(** Read (through the cache) the inode block of [inum] and run [f];
    releases the buffer afterwards. *)

val iget : State.t -> int -> State.incore
(** Fetch the in-core inode, reading the inode block if needed. Takes
    a reference; pair with {!iput}. *)

val iput : State.t -> State.incore -> unit

val with_inode : State.t -> int -> (State.incore -> 'a) -> 'a
(** [iget] + locked [f] + [iput]. *)

val update : State.t -> State.incore -> unit
(** Write the in-core fields through to the buffered inode block and
    mark it dirty (delayed write). *)

val allocate : State.t -> ftype:Types.ftype -> cg_hint:int -> spread:bool -> State.incore
(** Allocate a fresh inode, initialise the dinode (link count 0,
    new generation) and write it through. Takes a reference. *)
