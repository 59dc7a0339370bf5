(** Seeded workload fuzzing with shrinking.

    A PRNG seed denotes a list of operations over the full syscall
    surface (create/append/write/unlink/mkdir/rmdir/link/rename of
    files and directories/fsync/sync) drawn from a small fixed
    namespace. A pure in-memory model mirrors Fsops semantics and
    decides which ops are valid; invalid ops are skipped identically
    in the model and on the file system, so {e any subsequence} of a
    generated list is a runnable workload — the property greedy
    shrinking relies on.

    One fuzz case: run the ops fault-free, crash-sweep the recording
    at every write boundary (including re-crashing the recovery
    pipeline inside its own write stream), and check the final
    recovered image against the model (sizes, link counts, entry
    sets, hard links sharing an inode). *)

type op =
  | Create of string
  | Append of string * int  (** bytes *)
  | Write of string * int  (** truncate + rewrite *)
  | Unlink of string
  | Mkdir of string
  | Rmdir of string
  | Link of { src : string; dst : string }
  | Rename of { src : string; dst : string }
  | Fsync of string
  | Sync

val op_to_string : op -> string
val pp_op : Format.formatter -> op -> unit

val gen : seed:int -> ops:int -> op list
(** The op list a seed denotes. Deterministic; drawn from
    {!Su_util.Rng.substream} 0 of the seed so later consumers of the
    seed's randomness cannot change what a seed means. *)

(** The in-memory oracle: a mirror of the directory tree with files
    as shared mutable records (hard links alias). *)
module Model : sig
  type t

  val create : unit -> t

  val apply : t -> op -> bool
  (** Mutate per the op's Fsops semantics; [false] = the op is
      invalid (Fsops would raise), the model is untouched, and the
      op must be skipped on the file system too. *)
end

val workload_of_ops : name:string -> op list -> Su_check.Explorer.workload
(** A workload running the model-valid subsequence of [ops], then a
    final [sync] (clean shutdown). *)

val find_case : string -> op list option
(** The op-list edition of a built-in explorer workload (smallfiles,
    dirtree, renamefile, renamedir): the same behavior as a runnable
    workload ({!workload_of_ops}) and as a model oracle
    ({!check_final_image}) — what the corruption sweep needs. *)

val check_final_image :
  cfg:Su_fs.Fs.config ->
  Su_fstypes.Types.cell array ->
  op list ->
  string list
(** Mount the (recovered) image and walk the model against it.
    Returns mismatch descriptions; [[]] means image and model
    agree. *)

type case_result = {
  cr_summary : Su_check.Explorer.summary;
  cr_mismatches : string list;  (** final recovered image vs the model *)
}

val run_case :
  ?nested:bool ->
  ?torn:bool ->
  ?jobs:int ->
  ?max_boundaries:int ->
  ?nested_max_boundaries:int ->
  cfg:Su_fs.Fs.config ->
  name:string ->
  op list ->
  case_result
(** Record the ops, sweep every crash state ([nested], default true:
    also re-crash recovery at its own write boundaries), then compare
    the fault-free final image against the model. *)

val failure : case_result -> string option
(** The case as a pass/fail: the sweep must keep the scheme's promise
    ({!Su_check.Explorer.keeps}: ordered schemes and the journal
    consistent at every crash state, No Order repaired everywhere),
    and the final image must match the model. [None] = the case
    passes. *)

val shrink : still_fails:(op list -> bool) -> op list -> op list
(** Greedy delta-debugging: drop chunks (halving downwards), then
    single ops, keeping any cut for which [still_fails] holds.
    Deterministic. The result still fails and is locally minimal at
    chunk size 1. *)
