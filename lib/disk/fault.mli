(** Pluggable, PRNG-seeded fault model for the simulated disk.

    The seed state assumed a perfect device: every request succeeds
    and a crashed multi-fragment write is all-or-nothing. This module
    injects the failures a real drive exhibits —

    - {e transient} read/write errors (a retry usually succeeds),
    - {e permanent} bad sectors (every access to the fragment fails),
    - {e stalls} (the attempt completes, but at a large multiple of
      the normal service time, tripping the driver's request timeout),
    - {e torn writes}: a failed or crashed multi-fragment write
      applies only a prefix of its fragments to the media. This is
      deliberately {e stronger} than the paper's sector-atomicity
      assumption, which loses an in-flight request in its entirety;
      see DESIGN.md §7.
    - {e silent} faults, which report success: bit rot on the read
      path ({!silent.Flip_read}), writes acknowledged but never
      applied ({!silent.Lost_write}), and writes applied to the wrong
      sector ({!silent.Misdirect_write}). The device never detects
      these — only an end-to-end checksum layer can.

    All randomness is drawn from a private {!Su_util.Rng} stream, so a
    given [config] replays identically. *)

(** Typed I/O errors, shared by the disk, driver and cache layers.
    [Timeout] is never produced by the device itself: the driver
    raises it when a (possibly stalled) attempt exceeds its
    per-request deadline. [Checksum] is likewise never produced by the
    device — the integrity layer raises it when a verified read
    mismatches and every rung of the repair ladder has failed. *)
type error =
  | Transient of { op : [ `Read | `Write ]; lbn : int }
  | Bad_sector of { lbn : int }
  | Timeout of { elapsed : float; limit : float }
  | Checksum of { lbn : int }

val error_to_string : error -> string

(** One injected silent fault. [Flip_read.frag] is the (logical)
    fragment whose returned copy is corrupted; [Misdirect_write.target]
    the sector the payload lands on instead of its destination. *)
type silent =
  | Flip_read of { frag : int }
  | Lost_write
  | Misdirect_write of { target : int }

type config = {
  seed : int;
  read_fail : float;  (** probability a read attempt fails transiently *)
  write_fail : float;  (** probability a write attempt fails transiently *)
  stall : float;  (** probability an attempt stalls *)
  stall_factor : float;  (** service-time multiplier for a stalled attempt *)
  bad_sectors : int list;  (** fragments that fail permanently *)
  torn_writes : bool;
      (** failed multi-fragment writes apply a random prefix of their
          fragments instead of nothing *)
  flip_read : float;
      (** probability a read attempt silently returns corrupted data *)
  lost_write : float;
      (** probability a write attempt is acknowledged but not applied *)
  misdirect_write : float;
      (** probability a write attempt lands on a random wrong sector *)
  flip_at : int list;
      (** one-shot targeted injection: the first read touching each
          listed sector returns it corrupted *)
  lose_at : int list;
      (** one-shot: the first write touching each listed sector is lost *)
  misdirect_at : (int * int) list;
      (** one-shot [(sector, target)]: the first write touching
          [sector] lands at [target] instead *)
}

val none : config
(** The perfect device: zero probabilities, no bad sectors, no
    targeted injections. A disk created with [none] behaves
    bit-identically to the seed model (no RNG is consulted). *)

val transient : ?seed:int -> ?rate:float -> unit -> config
(** Transient read/write errors at [rate] (default 0.02) per attempt,
    plus occasional stalls; torn writes enabled, silent classes off.
    The standard configuration for "workloads must complete via driver
    retry". *)

type t

val create : config -> t
val config : t -> config

val enabled : t -> bool
(** False for {!none}-equivalent configs: the disk skips the model
    entirely (and draws no random numbers). *)

(** Verdict for one device attempt. [applied] is the number of leading
    fragments a failed write still managed to put on the media (0 when
    torn writes are disabled; always 0 for reads). [Silent] attempts
    report success to the driver; the carried {!silent} tells the disk
    how to lie. *)
type verdict =
  | Ok_attempt
  | Stalled
  | Failed of { err : error; applied : int }
  | Silent of silent

val judge :
  t -> ?phys:(int -> int) -> ?media:int -> op:[ `Read | `Write ] -> lbn:int ->
  nfrags:int -> unit -> verdict
(** [phys] (default identity) translates logical to physical
    addresses before the bad-sector table is consulted, so a remapped
    fragment escapes its old bad sector; the reported
    [Bad_sector.lbn] and torn-write prefix remain logical. [media]
    (addressable fragments) bounds the victim draw for random
    misdirected writes; when absent they degrade to lost writes.
    Targeted one-shot injections are consulted first and draw no
    random numbers; the probabilistic silent classes draw extra
    numbers only when their rates are nonzero, so seeded replays of
    fail-stop-only configurations are bit-identical to before the
    silent model existed. *)

val injected : t -> int
(** Total faults (failures + stalls + silent) injected so far. *)

val silent_injected : t -> int
(** Silent faults injected so far (included in {!injected}). *)

val corrupt_cell :
  Su_util.Rng.t -> Su_fstypes.Types.cell -> Su_fstypes.Types.cell
(** A structurally valid cell that digests differently from the input
    — "one flipped bit" at the typed-cell level. Never aliases the
    input's mutable structure. *)

val corrupt : t -> Su_fstypes.Types.cell -> Su_fstypes.Types.cell
(** {!corrupt_cell} drawing from the model's own RNG stream. *)
