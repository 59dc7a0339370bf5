(** Systematic crash-state exploration.

    One fault-free run of a workload is {e recorded}: the initial
    on-disk image plus every extent the disk applies, in completion
    order. The explorer then re-creates the durable image at {e every}
    write boundary — the state after the first [k] writes, for all
    [k] — plus, for multi-fragment writes, every torn intermediate
    state (a prefix of the extent on the media, the tail lost). Each
    state is put through the full recovery pipeline: fsck check,
    fsck repair, remount, a continuation workload and a final check.

    This turns the paper's spot-check crash experiments into an
    exhaustive sweep: an ordering scheme's crash-consistency claim is
    verified at every instant the durable state changes, not at a
    handful of sampled times. *)

open Su_fstypes

(** A named workload run against a freshly made file system. Keep
    sweeps small: cost is linear in the writes the workload issues. *)
type workload = { wl_name : string; wl_run : Su_fs.State.t -> unit }

val smallfiles : workload
(** Create/append/unlink churn over one directory, then sync. *)

val dirtree : workload
(** mkdir/rename/rmdir tree manipulation with a hard link, then sync. *)

val renamefile : workload
(** Cross-directory rename of a file (plus an in-place rename), swept
    at every write boundary. *)

val renamedir : workload
(** Cross-directory rename of a directory, then a second move back:
    the ".."-rewrite choreography at every write boundary, including a
    change superseding a still-pending one. *)

val builtin_workloads : workload list

val find_workload : string -> workload option

(** {1 The sweep engine}

    Shared by crash sweeps, {!Campaign}s and fuzz cases. *)

val sweep_cfg : Su_fs.Fs.scheme_kind -> Su_fs.Fs.config
(** The compact volume every sweep runs on: 32 MB, 16 MB cylinder
    groups, 1,024 inodes per group, a 4 MB cache and a 2 MB journal. *)

val cap : int option -> int -> int
(** [cap limit n]: [n], or at most [limit] of it (smoke-run caps). *)

exception Hang
(** the body had not finished when the event queue drained or the
    run reached its simulated-time horizon *)

val run :
  ?child:bool ->
  ?wind_down:(exn -> unit) ->
  Su_fs.Fs.world ->
  (Su_fs.Fs.world -> unit) ->
  exn option
(** [run w body] runs [body w] in a controller process (in a child it
    joins, with [child]), then [Fs.stop], [Driver.quiesce] and
    [Engine.stop], and runs the engine for at most one simulated hour,
    far past any sweep workload. Returns [body]'s exception, replaced
    by any escaping a process later, or {!Hang} when [body] is still
    unfinished once the event queue drains or the hour is up (a body
    parked forever keeps the syncer re-arming, so it ends at the
    hour). [wind_down] gets an exception from stopping the world
    (default: re-raise). *)

val fan_out :
  ?jobs:int ->
  fail_fast:bool ->
  clean:('a -> bool) ->
  init:(unit -> 's) ->
  int ->
  ('s -> int -> 'a) ->
  'a list
(** [[f s 0; ...; f s (n-1)]] over a {!Su_util.Pool} of [jobs]
    domains, each worker threading its own [s = init ()] through the
    indices it claims, ascending. With [fail_fast], indices run in
    chunks of 8 ([init] per worker and chunk) and the list ends at the
    first result [clean] rejects — the same list at any [jobs]. *)

type recording = {
  rec_initial : Types.cell array;  (** image as formatted, pre-run *)
  rec_deltas : Delta.t array;
      (** applied extents, completion order, with pre- and
          post-images: the write-delta log crash states are
          materialized from *)
}

val record : cfg:Su_fs.Fs.config -> workload -> recording
(** Run the workload once (no faults) and log every write the disk
    applies — payload and replaced cells both. The run is driven to
    completion and quiesced, so the log covers all deferred writes
    too. *)

(** Result of re-crashing the recovery pipeline inside its own write
    stream (the nested, crash-during-recovery sweep). *)
type nested = {
  n_writes : int;  (** cell writes the outer recovery pipeline issued *)
  n_states : int;  (** nested crash states verified (prefixes of that stream) *)
  n_unrecovered : int;
      (** nested states a fresh recovery failed to settle (repair did
          not converge, or violations survived) *)
  n_unsettled : int;
      (** nested states where a second recovery round still wrote:
          recovery is not idempotent — it never reaches the write-free
          fixed point within two rounds *)
}

type verdict = {
  v_boundary : int;  (** completed writes when the crash hit *)
  v_torn : int option;  (** [Some k]: k fragments of the next write landed *)
  v_pre_violations : int;  (** fsck violations before repair *)
  v_repair_converged : bool;
  v_post_violations : int;  (** violations surviving repair *)
  v_remount_ok : bool;  (** repaired image remounted, ran on, stayed clean *)
  v_nested : nested option;  (** crash-during-recovery sub-sweep, if run *)
}

val verify_state :
  ?nested:bool ->
  ?nested_max_boundaries:int ->
  cfg:Su_fs.Fs.config ->
  boundary:int ->
  torn:int option ->
  Types.cell array ->
  verdict
(** Full recovery pipeline on one crash image (consumes it: journal
    replay, repair, then the remount probe, all of which replace its
    slots copy-on-write, so a {!materialize}d image leaves its cursor
    intact). With [nested] (default false), the pipeline's
    own write stream is recorded — every cell the journal replay, log
    retirement, map rebuild and fsck repair change — and recovery is
    re-crashed after every prefix of it: each truncated state must
    recover cleanly in one round and reach the write-free fixed point
    by the second (recovery re-entrancy). [nested_max_boundaries] caps
    the prefixes explored. Fsck judges exposure by
    {!Su_fs.Fs.check_exposure}; the remount step is
    {!Su_fs.Crash.remount_probe}. *)

type summary = {
  s_scheme : Su_fs.Fs.scheme_kind;
  s_workload : string;
  s_writes : int;  (** recorded write completions *)
  s_states : int;  (** crash states explored (boundaries + torn) *)
  s_torn_states : int;
  s_dirty_states : int;  (** states with pre-repair violations *)
  s_unrepaired : int;  (** states still violated after repair *)
  s_remount_failures : int;
  s_nested_states : int;  (** crash-during-recovery states verified *)
  s_nested_unrecovered : int;  (** nested states recovery failed to settle *)
  s_nested_unsettled : int;  (** nested states short of the fixed point *)
  s_verdicts : verdict list;  (** per-state detail, crash order *)
}

(** {1 The promise} *)

(** How a crash state came through recovery, best first: no violations
    (nothing for fsck to fix beyond leaks); violated, but repaired,
    remounted and clean; neither. Nested states count too. *)
type level = Consistent | Repairable | Broken

val state_level : verdict -> level

val level : summary -> level
(** The worst state's ([Consistent] for an empty sweep). *)

val level_name : level -> string
(** ["consistent"], ["repairable"] or ["BROKEN"]. *)

type demand = [ `Default | `Consistent ]

val keeps : ?demand:demand -> Su_fs.Fs.scheme_kind -> level -> bool
(** [`Default]: No Order must be repairable, every other scheme
    consistent. [`Consistent]: every scheme consistent. *)

val crash_states :
  ?torn:bool -> ?max_boundaries:int -> recording -> (int * int option) array
(** The crash states of a recording in sweep order: [(k, None)] for a
    crash after exactly [k] completed writes, [(k, Some applied)] for
    the (k+1)-th write torn after [applied] fragments. [torn]
    (default true) includes the torn states; [max_boundaries] caps
    the write boundaries explored (smoke runs). *)

val materialize : Delta.cursor -> int * int option -> Types.cell array
(** Materialize one crash state as an image the verify pipeline may
    recover: seek the cursor, copy its slots, overlay any torn prefix.
    Seeking costs O(cells touched) per boundary crossed. The copy is
    shallow — cells are shared with the cursor and its log — except
    for [Csum] cells, which {!Su_fs.Fs.recover_image} updates in place:
    a caller may replace the image's slots, and may mutate nothing else
    (every recovery write is copy-on-write). *)

val sweep :
  ?torn:bool ->
  ?jobs:int ->
  ?max_boundaries:int ->
  ?nested:bool ->
  ?nested_max_boundaries:int ->
  ?fail_fast:bool ->
  ?demand:demand ->
  ?recording:recording ->
  cfg:Su_fs.Fs.config ->
  workload ->
  summary
(** Verify every {!crash_states} state of [recording] (default: a
    fresh {!record} of the workload) through {!fan_out}: [jobs] > 1
    spreads the per-state verification over that many domains ([0] =
    all cores); verdict order and all counts are identical at any
    [jobs] value. [nested] re-crashes the recovery pipeline at every
    one of its own write boundaries for every outer crash state (see
    {!verify_state}). [fail_fast] (default false) ends the sweep at the
    first state whose {!state_level} the scheme does not {!keeps} under
    [demand]. *)

type shakedown = {
  f_injected : int;  (** faults the disk injected *)
  f_retries : int;  (** attempts the driver re-drove *)
  f_failures : int;  (** requests failed after the retry budget *)
  f_cache_failures : int;  (** failed writes surfaced to the cache *)
  f_completed : bool;  (** the workload ran to completion *)
  f_consistent : bool;  (** the final image checks out clean *)
}

val fault_shakedown : cfg:Su_fs.Fs.config -> workload -> shakedown
(** Run the workload with whatever fault model [cfg] carries (pair
    with {!Su_disk.Fault.transient}) and report how the stack coped.
    A healthy result completes, is consistent, and absorbed every
    transient with retries ([f_failures = 0]). *)
