(** World assembly: build the simulated machine (CPU, disk, driver,
    cache, syncer), make a file system on the disk and mount it with a
    chosen ordering scheme. *)

open Su_fstypes

type scheme_kind =
  | Conventional
  | Scheduler_flag
  | Scheduler_chains of { barrier_dealloc : bool }
  | Soft_updates
  | No_order
  | Journaled of { group_commit : bool }
      (** write-ahead metadata journaling (extension; see
          {!Su_core.Journaled}) *)

val scheme_kind_name : scheme_kind -> string

val all_schemes : scheme_kind list
(** The five schemes of the paper's §5 comparison, in its order:
    conventional, flag, chains, soft updates, no order. *)

type config = {
  scheme : scheme_kind;
  alloc_init : bool;  (** enforce allocation initialisation for file data *)
  flag_sem : Su_driver.Ordering.flag_semantics;  (** scheduler-flag runs *)
  nr : bool;  (** reads bypass ordering-blocked writes *)
  cb : bool;  (** block-copy enhancement (§3.3) *)
  policy : Su_driver.Driver.policy;
  max_concat : int;
  cache_mb : int;
  syncer_interval : float;
  syncer_passes : int;
  geom : Geom.t;
  disk_params : Su_disk.Disk_params.t;
  costs : Costs.t;
  keep_trace_records : bool;
  journal_mb : int;  (** log region size (journaled scheme only) *)
  nvram_mb : int;
      (** battery-backed disk write cache (0 = none); writes are
          durable on acceptance and destage in idle time (§7's NVRAM
          comparison) *)
  fault : Su_disk.Fault.config;
      (** device fault model ({!Su_disk.Fault.none} by default) *)
  io_max_attempts : int;  (** driver attempts per request (see {!Su_driver.Driver.config}) *)
  io_retry_backoff : float;  (** base retry delay, seconds *)
  io_request_timeout : float;  (** per-attempt deadline, 0 = none *)
  spare_frags : int;
      (** spare-sector pool for bad-sector remapping (0 = no fault
          tolerance; the disk image and golden traces are then
          bit-identical to a build without this feature) *)
  checksums : bool;
      (** maintain the per-fragment checksum region and verify every
          cache fill against it, self-healing mismatches
          ({!Integrity}); off (the default) the device image, golden
          traces and benchmark shapes are bit-identical to a build
          without the feature *)
  scrub_interval : float;
      (** background scrubber wake-up period in simulated seconds
          (0.0 = no scrubber) *)
  health_max_lost : int;
      (** unrecoverable fragments tolerated before the volume flips
          read-only (see {!Health}) *)
  trace_sink : Su_obs.Events.t option;
      (** when set, the driver, cache and FS operations emit JSONL
          trace events into the sink (default [None]). Observability
          only: simulation behavior is bit-identical either way. *)
  dir_index : bool;
      (** maintain the in-core directory lookup index ({!Dir_index})
          and charge lookups at dirhash cost instead of a linear scan
          (default [false]: the paper's namei model, unchanged traces;
          the load engine turns it on) *)
}

exception Mount_failure of string
(** The volume cannot be mounted safely: no usable superblock replica
    survives. Raised by {!mount_image}. *)

val config : ?scheme:scheme_kind -> unit -> config
(** Paper-faithful defaults per scheme: the scheduler-flag scheme uses
    Part-NR with block copying (the best variant, used in §5), chains
    uses specific remove dependencies and block copying, soft updates
    enforces allocation initialisation, conventional does neither.
    1 GB HP C2447-like disk, 32 MB cache, 1 s syncer. *)

type world = {
  cfg : config;
  engine : Su_sim.Engine.t;
  cpu : Su_sim.Cpu.t;
  disk : Su_disk.Disk.t;
  driver : Su_driver.Driver.t;
  cache : Su_cache.Bcache.t;
  syncer : Su_cache.Syncer.t;
  scrub : Scrub.t option;  (** background scrubber, when configured *)
  integrity : Integrity.t option;
      (** checksum verification and self-healing, when [checksums] *)
  st : State.t;
  extra_stop : unit -> unit;  (** scheme background-process shutdown *)
}

val make : config -> world
(** Build everything, format the disk (mkfs writes the initial image
    directly, without simulated time) and mount. The syncer daemon is
    already running; call [Engine.run] to start simulation. *)

val stop : world -> unit
(** Stop the syncer (and the journal flusher, if any) so the event
    queue can drain. *)

val mount_image : config -> Su_fstypes.Types.cell array -> world
(** Build a world over an existing disk image (e.g. a crashed-and-
    repaired one) instead of running mkfs. A physical snapshot may
    carry the spare region and remap-table cell past the media; the
    in-core remap table is restored from it and the superblock
    replicas cross-checked (unreadable or invalid copies are restored
    from a surviving sister, degrading health). Under a journaled
    configuration, an image whose log region still holds records is
    first recovered (replayed, its log retired, its maps rebuilt) on a
    private copy, so the new mount's transactions are never overtaken
    by stale ones at the next recovery; the argument is not modified.
    The disk mounts the array by reference (the argument, or that
    replayed copy; see {!Su_disk.Disk.install_image}): the caller must
    neither mutate its cells in place nor replace its slots while the
    world lives, and {!Su_disk.Disk.take_image} hands it back with the
    world's writes in it.
    @raise Invalid_argument if the image does not fit the configured
    geometry.
    @raise Mount_failure if no usable superblock replica survives. *)

val journal_region : config -> (int * int) option
(** [(log_start, log_frags)] for journaled configurations. *)

val recover_image :
  ?observer:Su_fstypes.Imglog.observer ->
  config ->
  Su_fstypes.Types.cell array ->
  unit
(** Journal replay + map rebuild, when the configuration journals;
    no-op otherwise. [observer] sees every cell the replay changes
    (see {!Su_fstypes.Imglog}); the crash-state explorer uses it to
    re-crash recovery inside its own write stream. *)

val check_exposure : config -> bool
(** Whether fsck judges exposure (a file pointing at data never
    written for it) on this configuration's images: never for the
    journaled scheme, whose log holds metadata only; otherwise exactly
    when [alloc_init] is on. Every recovery check uses it. *)

val driver_mode : config -> Su_driver.Ordering.mode
