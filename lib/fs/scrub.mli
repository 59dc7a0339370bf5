(** Background media scrubber.

    A {!Su_sim.Proc} that probes every fragment of the volume with
    driver reads, a 64-fragment batch per [interval]. A latent
    bad sector is repaired by rewriting known content through the
    driver (whose retry-exhaustion path remaps the fragment to a
    spare): a sister superblock replica for superblock fragments, a
    clean cached copy of the extent, or — for never-written
    fragments — a bare remap. Content that exists nowhere else is
    never guessed at: the fragment is reported to the {!Health}
    monitor as lost. Emits [scrub.found] / [scrub.repair] /
    [scrub.lost] / [scrub.pass] JSONL events when a sink is
    attached. *)

type t

val start :
  engine:Su_sim.Engine.t ->
  disk:Su_disk.Disk.t ->
  driver:Su_driver.Driver.t ->
  cache:Su_cache.Bcache.t ->
  health:Health.t ->
  geom:Su_fstypes.Geom.t ->
  ?integrity:Integrity.t ->
  interval:float ->
  ?obs:Su_obs.Events.t ->
  unit ->
  t
(** Spawn the scrubber process. With [integrity], every readable
    fragment is also verified against the checksum region
    ({!Integrity.verify_frag}) — a silent corruption the foreground
    never reads is found and healed (or reported lost) by the sweep;
    such fragments count in {!found} and {!repaired}/{!lost}. *)

val stop : t -> unit

val passes_run : t -> int
(** Complete volume sweeps finished. *)

val scanned : t -> int
(** Fragments probed. *)

val found : t -> int
(** Latent bad sectors detected. *)

val repaired : t -> int
(** Bad sectors healed (replica, cached copy, or unallocated remap). *)

val deferred : t -> int
(** Bad sectors under a dirty cached extent: the pending flush will
    rewrite and remap them, so the scrubber left them alone. *)

val lost : t -> int
(** Fragments whose content could not be recovered. *)
