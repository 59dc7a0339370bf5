(** Systematic fault campaigns: one injected run per planned fault.

    The fault-tolerance analogue of the crash sweep in {!Explorer}.
    One fault-free recording run finds the sectors a workload reads
    and writes; a campaign's {e plan} turns them into injections, and
    the workload is re-run once per injection. Two campaigns share
    this engine:

    - {b Permanent} ([metasim faultsweep]): every touched sector, read
      or written, is made permanently bad, with a spare pool for the
      remap machinery to absorb it.
    - {b Silent} ([metasim corruptsweep]): checksums on, a bit-flipped
      read on every read-touched sector and a lost and a misdirected
      write on every write-touched one.

    Every run must {e survive or fail clean}: either every operation
    completes, or it stops with a typed error ({!Su_fs.Fsops.Eio} /
    [Erofs], {!Su_cache.Bcache.Io_error}, {!Su_fs.Fs.Mount_failure})
    and the surviving state repairs, remounts and stays clean. An
    untyped exception, or a workload that never finishes (see
    {!Explorer.run}), is always a violation; so is a completed silent
    run whose image diverges from the model oracle (a {e silent
    escape}).

    Verdict lists are identical at any [jobs] value: results merge by
    index, and fail-fast works in fixed-size chunks. *)

type injection =
  | Bad_sector of int  (** the sector fails permanently on every access *)
  | Flip of int  (** the first read of the sector returns rotten data *)
  | Lost of int
      (** the first write to the sector is acknowledged, never applied *)
  | Misdirect of int * int
      (** [(sector, victim)]: the first write to [sector] lands on [victim] *)

val sector : injection -> int

val kind_name : injection -> string
(** ["bad-sector"], ["flip"], ["lost"] or ["misdirect"]. *)

val silent : injection -> bool
(** The device reports success: only checksums can catch it. Silent
    runs turn checksums and the post-run {!Su_fs.Integrity.full_verify}
    on, and their fault must have fired for a completed run to count. *)

type campaign = Permanent | Silent

val name : campaign -> string
(** ["faultsweep"] or ["corruptsweep"]: the subcommand, and the
    directory [/<name>.d] the remount probe lives in. *)

val plan : campaign -> reads:int array -> writes:int array -> injection array
(** The deterministic injection plan. [Permanent]: one bad sector per
    sector in [reads] or [writes], ascending. [Silent]: flips over
    [reads], then lost writes over [writes], then misdirected writes
    over [writes] (victim = the next write-touched sector, wrapping;
    with no distinct victim it degrades to a lost write). *)

type outcome =
  | Completed  (** every operation finished; the fault was absorbed *)
  | Failed_typed of string
      (** the run stopped with a typed error: legal iff the surviving
          state is clean *)
  | Escaped of string
      (** an untyped exception or a hung workload: always a
          violation *)

val outcome_name : outcome -> string

type verdict = {
  v_injection : injection;
  v_outcome : outcome;
  v_remaps : int;  (** bad-sector remaps performed during the run *)
  v_injected : bool;  (** the fault model actually fired *)
  v_detected : int;  (** checksum mismatches the run observed *)
  v_repaired : int;  (** fragments the online ladder healed *)
  v_pre_violations : int;  (** fsck violations before repair *)
  v_repair_converged : bool;
  v_post_violations : int;  (** violations surviving repair *)
  v_remount : (unit, string) result;
      (** {!Su_fs.Crash.remount_probe} on the repaired image *)
  v_divergences : int;  (** model-oracle mismatches (completed runs) *)
}

val clean : verdict -> bool
(** The per-verdict contract. A completed run must leave nothing to
    repair, match the oracle and remount — and, when the injection is
    silent, its fault must have fired (a plan entry that never
    triggers would make the campaign vacuous). A typed failure must
    repair, remount and stay clean. An escape never passes. *)

val run_one :
  cfg:Su_fs.Fs.config ->
  spares:int ->
  ?oracle:(Su_fstypes.Types.cell array -> string list) ->
  Explorer.workload ->
  injection ->
  verdict
(** Run the workload once under the injection with [spares] spare
    fragments, then verify the surviving state on the {e logical}
    image (remapped content resolved home, as a rebuilt replacement
    drive would hold it): {!Su_fs.Crash.check} for a completed run,
    {!Su_fs.Crash.repair} for any other, whose first round gives the
    pre-repair count. [oracle] receives the final image of a
    completed run and returns divergence descriptions ([[]] = the
    image matches the model); without one nothing diverges. *)

type summary = {
  s_scheme : Su_fs.Fs.scheme_kind;
  s_workload : string;
  s_read_sectors : int;  (** distinct read-touched sectors *)
  s_write_sectors : int;  (** distinct write-touched sectors *)
  s_planned : int;  (** injections in the full plan *)
  s_swept : int;  (** injections actually run (caps, fail-fast) *)
  s_completed : int;
  s_failed_typed : int;
  s_escaped : int;
  s_remaps : int;  (** remaps performed across all runs *)
  s_detected : int;  (** checksum mismatches observed across runs *)
  s_repaired : int;  (** fragments healed online across runs *)
  s_silent_escapes : int;
  s_violations : int;  (** verdicts that are not {!clean} *)
  s_verdicts : verdict list;  (** per-injection detail, plan order *)
}

val ok : summary -> bool
(** No escapes, no silent escapes, no violations. *)

val sweep :
  ?jobs:int ->
  ?spares:int ->
  ?max_injections:int ->
  ?fail_fast:bool ->
  ?oracle:(Su_fstypes.Types.cell array -> string list) ->
  cfg:Su_fs.Fs.config ->
  campaign ->
  Explorer.workload ->
  summary
(** The campaign: discover the touched sectors (checksums on for
    [Silent]), plan, and {!run_one} each planned injection through
    {!Explorer.fan_out}. [spares] (default 64) sizes each run's spare
    pool; [max_injections] runs only a prefix of the plan (smoke runs). *)
