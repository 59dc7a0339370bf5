(** Benchmark harness: build a world, run an (unmeasured) set-up
    phase, then measure a multi-user phase — elapsed times, CPU
    charged to the benchmark processes, and system-wide disk
    statistics, mirroring the paper's methodology. *)

type measures = {
  users : int;
  elapsed_avg : float;  (** mean of the per-user elapsed times, seconds *)
  elapsed_max : float;
  cpu_total : float;  (** CPU seconds charged to the user processes *)
  disk_requests : int;
  disk_reads : int;
  disk_writes : int;
  avg_response_ms : float;  (** driver response: queue + access *)
  avg_access_ms : float;  (** disk service only *)
  sync_response_ms : float;  (** response over process-blocking requests *)
  response_p50_ms : float;  (** driver response percentiles (bucket *)
  response_p90_ms : float;  (** resolution, exact min/max clamp) *)
  response_p99_ms : float;
  response_max_ms : float;  (** exact *)
  counters : (string * float) list;
      (** cross-layer counters in one flat namespace ([cache.*],
          [syncer.*], [io.*], [disk.*], [fault.*], plus [softdep.*] /
          [journal.*] when the scheme has them and [scrub.*] when the
          background scrubber is configured); see HACKING.md for the
          glossary *)
  softdep : Su_core.Softdep.stats option;
}

val run :
  cfg:Su_fs.Fs.config ->
  ?setup:(Su_fs.State.t -> unit) ->
  users:int ->
  (int -> Su_fs.State.t -> unit) ->
  measures
(** [run ~cfg ~setup ~users body] builds a fresh world, runs [setup]
    in a process, syncs and resets the trace, then spawns [users]
    processes running [body i st] concurrently and measures them
    (elapsed per user, CPU charged to the users, then the driver is
    drained for the system-wide I/O statistics). When a [setup] is
    given, the buffer and inode caches are emptied after it, so the
    measured phase re-reads its metadata from the disk — the
    benchmarks model a fresh session over pre-existing trees. *)

val measures_json : measures -> Su_obs.Json.t
(** One flat object: scalar fields by name (durations suffixed [_s] or
    [_ms]) plus a ["counters"] sub-object mapping each cross-layer
    counter to its value. This is the ["measures"] payload of
    [metasim run --json]. *)

val repeat :
  reps:int ->
  (int -> measures) ->
  measures
(** Run [f rep] several times (vary the seed with [rep]) and average
    the numeric fields. *)
