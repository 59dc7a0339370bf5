(** The syncer daemon.

    UNIX SVR4 MP style (paper §2): the daemon wakes once per
    [interval] (1 second), first services the background workitem
    queue (deferred dependency processing for soft updates), then
    sweeps a [1/passes] slice of the buffer cache, initiating an
    asynchronous write for every dirty buffer it marked on the
    previous pass and marking the dirty buffers it encounters now.
    This spreads write-back smoothly instead of the classic bursty
    "30-second sync". *)

type t

val start :
  engine:Su_sim.Engine.t ->
  cache:Bcache.t ->
  ?interval:float ->
  ?passes:int ->
  unit ->
  t
(** Spawn the daemon process. Defaults: [interval = 1.0] s,
    [passes = 30]. *)

val create :
  engine:Su_sim.Engine.t ->
  cache:Bcache.t ->
  ?interval:float ->
  ?passes:int ->
  unit ->
  t
(** A syncer with no daemon process, driven by calling {!sweep}
    (tests and benches). *)

val sweep : t -> unit
(** One tick's pass without the workitems: write the blocks marked
    last pass that are still dirty and idle, then mark the dirty idle
    blocks among the next [ceil(n / passes)] cached keys in address
    order, [n] being the buffer count, starting at the first key at or
    past {!cursor} and wrapping past the largest. *)

val cursor : t -> int
(** Where the next sweep starts: one past the last key visited. *)

val marked : t -> int list
(** Keys marked by the last sweep, most recently marked first. *)

val stop : t -> unit
(** The daemon exits at its next wake-up. *)

val writes_issued : t -> int
val workitems_run : t -> int

val passes_run : t -> int
(** Sweeps executed so far. *)

val batch_hist : t -> Su_obs.Hist.t
(** Writes issued per sweep (flush batch sizes; base-1 buckets). *)

val residency_hist : t -> Su_obs.Hist.t
(** Dirty-buffer count sampled at the start of each sweep. *)
