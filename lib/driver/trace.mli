(** Per-request I/O measurements, mirroring the paper's instrumented
    device driver: queue delay, disk access (service) time and driver
    response time (issue to completion, both included). *)

type record = {
  r_id : int;
  r_kind : Request.kind;
  r_lbn : int;
  r_nfrags : int;
  r_sync : bool;
  r_issue : float;
  r_start : float;
  r_complete : float;
}

type t

val create : ?keep_records:bool -> unit -> t

val note : t -> record -> unit

val note_io :
  t ->
  id:int ->
  kind:Request.kind ->
  lbn:int ->
  nfrags:int ->
  sync:bool ->
  issue:float ->
  start:float ->
  complete:float ->
  unit
(** Same accounting as {!note} taken field-wise; a [record] is only
    materialized when [keep_records] is set, so the driver's hot
    completion path avoids the allocation. *)

val note_retry : t -> unit
val note_failure : t -> unit
val note_remap : t -> unit

val requests : t -> int
val reads : t -> int
val writes : t -> int

val io_retries : t -> int
(** Device attempts that failed (or timed out) and were re-driven. *)

val io_failures : t -> int
(** Requests completed with an error after the retry budget ran out. *)

val io_remaps : t -> int
(** Bad sectors remapped to spares after retry exhaustion. *)

val avg_access_ms : t -> float
(** Mean disk service time, milliseconds. *)

val avg_response_ms : t -> float
(** Mean driver response time (queue + access), milliseconds. *)

val sync_avg_response_ms : t -> float
(** Response time averaged over requests a process waited for. *)

val note_qdepth : t -> int -> unit
(** Sample the dispatch-queue depth (taken at each dispatch decision). *)

val response_hist : t -> Su_obs.Hist.t
(** Driver response times (queue + access), seconds. *)

val qdepth_hist : t -> Su_obs.Hist.t
(** Queue-depth samples (dimensionless; base-1 buckets). *)

val response_percentile_ms : t -> float -> float
(** [response_percentile_ms t p]: bucket-resolution percentile of the
    driver response time, milliseconds. *)

val response_max_ms : t -> float

val records : t -> record list
(** Chronological; empty unless [keep_records] was set. The reversal
    is computed once and cached until the next [note]. *)
