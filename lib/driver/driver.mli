(** The device driver: request queue, disk scheduling and ordering
    enforcement.

    Requests are accepted (non-blocking) in issue order; whenever the
    disk is idle the driver picks the next request to service from the
    {e eligible} subset of the queue (see {!Ordering}) using C-LOOK or
    FCFS, and concatenates queued requests that are contiguous on disk
    into a single device operation (as the paper's SVR4 driver does).
    Completion callbacks run in engine-event context. *)

type policy = Clook | Fcfs

type config = {
  mode : Ordering.mode;
  policy : policy;
  max_concat : int;  (** max fragments per device operation *)
  keep_records : bool;  (** retain full per-request trace records *)
  max_attempts : int;
      (** device attempts per operation before failing it with a typed
          error (must be >= 1) *)
  retry_backoff : float;
      (** delay before the second attempt, seconds; doubles per retry *)
  request_timeout : float;
      (** per-attempt deadline, seconds; an attempt completing later
          is treated as failed and re-driven. 0 disables. *)
  sink : Su_obs.Events.t option;
      (** when set, the driver emits [io.issue] / [io.start] /
          [io.complete] / [io.retry] / [io.fail] events (and a
          [trace.reset] marker) into the sink. Never perturbs
          scheduling or simulated time. *)
}

val default_config : config
(** Unordered, C-LOOK, 64-fragment concatenation, aggregates only;
    5 attempts with 2 ms base backoff, no timeout, no event sink. *)

type t

val create : engine:Su_sim.Engine.t -> disk:Su_disk.Disk.t -> config -> t

val submit :
  t ->
  kind:Request.kind ->
  lbn:int ->
  nfrags:int ->
  ?flagged:bool ->
  ?deps:int list ->
  ?sync:bool ->
  ?payload:Su_fstypes.Types.cell array ->
  on_complete:
    ((Su_fstypes.Types.cell array option, Su_disk.Fault.error) result -> unit) ->
  unit ->
  int
(** Enqueue a request; returns its id. [payload] must be a private
    snapshot (writes). [sync] marks that a process will block on the
    completion (statistics only).

    A device error or timeout is retried with exponential backoff up
    to [max_attempts]; while retrying, the request stays outstanding,
    so every ordering constraint naming it continues to hold — scheme
    dependency state is untouched by retries. Only after the budget is
    exhausted does [on_complete] fire with [Error]; the failed id then
    behaves as completed for ordering purposes (so the queue cannot
    deadlock behind a dead sector). *)

val submit_wait :
  t ->
  kind:Request.kind ->
  lbn:int ->
  nfrags:int ->
  ?sync:bool ->
  ?payload:Su_fstypes.Types.cell array ->
  ?on_complete:
    ((Su_fstypes.Types.cell array option, Su_disk.Fault.error) result -> unit) ->
  unit ->
  (Su_fstypes.Types.cell array option, Su_disk.Fault.error) result
(** The blocking form of {!submit}, for process context: enqueue the
    request, park the calling process until it completes, and return
    its result (after the same retry budget). [on_complete], if given,
    still runs in engine-event context at completion, before the
    caller is woken — for work that must not wait for the wake-up. *)

val completed : t -> int -> bool
(** Whether the given request id has completed. Ids never issued are
    reported complete (useful for chains bookkeeping across runs). *)

val outstanding : t -> int
(** Requests accepted but not yet completed. *)

val queue_length : t -> int
(** Requests waiting in the queue (not on the device). *)

val quiesce : t -> unit
(** Process operation: block until no request is outstanding. *)

val trace : t -> Trace.t

val reset_trace : t -> unit
(** Start a fresh trace (discard accumulated statistics); used to
    exclude benchmark set-up from measurements. *)

val mode : t -> Ordering.mode
