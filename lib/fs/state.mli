(** Shared mutable state of a mounted file system.

    This module only defines the state record and tiny helpers; the
    behaviour lives in {!Alloc}, {!Inode}, {!Dir}, {!File} and
    {!Fsops}. *)

open Su_fstypes

(** An in-core inode: the authoritative copy the file system
    manipulates, separate from the buffer-cache block that backs it
    (footnote 11 of the paper). *)
type incore = {
  inum : int;
  din : Types.dinode;
  ilock : Su_sim.Sync.Mutex.t;
  mutable refs : int;
}

type t = {
  geom : Geom.t;
  engine : Su_sim.Engine.t;
  cpu : Su_sim.Cpu.t;
  disk : Su_disk.Disk.t;
  driver : Su_driver.Driver.t;
  cache : Su_cache.Bcache.t;
  scheme : Su_core.Scheme_intf.t;
  alloc_init : bool;  (** enforce allocation initialisation for file data *)
  alloc_mutex : Su_sim.Sync.Mutex.t;
  icache : (int, incore) Hashtbl.t;
  rotor : int array;  (** per-group data allocation cursor *)
  freemaps : Freemap.t array;
      (** per-group bitset mirror of the allocation maps, built lazily
          under [alloc_mutex]; same allocation decisions as the byte
          scans it accelerates (see {!Freemap}) *)
  dirx : Dir_index.t option;
      (** directory lookup index, when [Fs.config.dir_index] is set *)
  mutable next_cg : int;  (** round-robin for new directories *)
  mutable gen_counter : int;
  softdep_stats : Su_core.Softdep.stats option;
  journal_stats : Su_core.Journaled.stats option;
  obs : Su_obs.Events.t option;
      (** event sink for the JSONL trace; shared with the driver and
          cache configs when [Fs.config.trace_sink] is set *)
  health : Health.t;
      (** online fault-tolerance state; {!Fsops} refuses mutation once
          it reaches [Readonly] *)
}

val charge : t -> float -> unit
(** Consume CPU on the shared processor (blocking). *)

val block_frags : t -> int
val block_bytes : t -> int
