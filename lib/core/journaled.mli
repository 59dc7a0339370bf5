(** Write-ahead metadata journaling — the extension the paper's §7
    names as the natural comparison for soft updates.

    Every structural change appends a redo transaction (full
    post-images of the affected metadata) to a dedicated log region;
    in-place metadata writes stay delayed. Two commit disciplines:

    - [Sync_commit]: the calling process waits for its log append.
      Appends are sequential, so this is far cheaper than the
      conventional scheme's random synchronous writes.
    - [Group_commit]: records accumulate in memory and a background
      flusher commits them every 0.25 s — the "delayed group commit"
      the paper says logging needs to match soft updates. The window
      between an update and its commit is vulnerable to crashes
      (bounded by the flush interval); the syncer's 1+ second
      write-back lag keeps in-place writes behind their log records.

    When the log cursor wraps, the cache is flushed (checkpoint) so
    older records become redundant; replay applies the whole log in
    sequence order, which is idempotent because records carry full
    post-images.

    Recovery ({!recover}) replays the log onto a crashed image and
    rebuilds the allocation maps from the reachable tree. Journaling
    protects metadata only: stale-data exposure is out of scope (run
    fsck with [check_exposure:false]). *)

type commit_mode = Sync_commit | Group_commit

type stats = {
  mutable txns : int;
  mutable records : int;
  mutable log_writes : int;  (** log fragments written *)
  mutable wraps : int;  (** checkpoints forced by log wrap-around *)
}

val make :
  cache:Su_cache.Bcache.t ->
  geom:Su_fstypes.Geom.t ->
  log_start:int ->
  log_frags:int ->
  mode:commit_mode ->
  Scheme_intf.t * stats * (unit -> unit)
(** Returns the scheme, its counters, and a stop function that flushes
    any pending records and terminates the group-commit flusher (so
    the event queue can drain). *)

val recover :
  ?observer:Su_fstypes.Imglog.observer ->
  geom:Su_fstypes.Geom.t ->
  log_start:int ->
  log_frags:int ->
  Su_fstypes.Types.cell array ->
  unit
(** Replay the journal onto the image (in place) and retire the log.
    The allocation maps are left as the crash found them:
    [Su_fs.Fs.recover_image] rebuilds them afterwards from the
    reachable tree ([Su_fs.Fsck.rebuild_maps]). Every cell the
    pipeline changes flows through {!Su_fstypes.Imglog.write}, copy on
    write: the caller's cells are never mutated. With an [observer],
    each record is installed as soon as it is applied, so the observer
    sees recovery's own write stream record by record — the
    crash-state explorer re-crashes recovery at each of those
    boundaries. Without one, each touched block is copied once, takes
    all its records, and is installed once. Both land on the same
    image. Recovery tolerates re-execution over any prefix of its
    own effects: replay records are absolute post-images, and the log
    is retired oldest-sequence-first so a crash mid-retirement leaves
    only records whose effects are already on the media. *)
