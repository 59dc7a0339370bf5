(** Ordering enforcement policies for the device driver (§3 of the
    paper).

    With flag-based ordering the file system sets a one-bit flag on
    writes that later requests may depend on; the flag's semantics
    determine which queued requests are {e eligible} for scheduling.
    With chains, each request carries the explicit list of request ids
    it must follow.

    Flag semantics, most to least restrictive:
    - [Full]: a flagged request is a full barrier — it waits for every
      earlier request, and nothing issued after it may start until it
      completes.
    - [Back]: requests issued after a flagged request may be scheduled
      neither before it nor before anything issued before it; the
      flagged request itself reorders freely with earlier unflagged
      requests.
    - [Part]: requests issued after a flagged request may not pass it;
      everything else reorders freely.
    - [Ignore]: the flag is ignored (unsafe baseline).

    The [nr] option lets read requests bypass writes that are waiting
    only because of ordering restrictions, unless they conflict
    (overlap) with an earlier incomplete write. *)

type flag_semantics = Full | Back | Part | Ignore

type mode =
  | Unordered  (** no driver-level constraints (conventional / soft updates / no-order) *)
  | Flag of { sem : flag_semantics; nr : bool }
  | Chains of { nr : bool }

(** Queue-state oracle supplied by the driver. A request is
    {e outstanding} from issue until completion (queued or on the
    device). *)
type ctx = {
  is_outstanding : int -> bool;
  min_outstanding : unit -> int option;
  conflicting_earlier_write : Request.t -> bool;
      (** an outstanding write with a lower id overlaps this request *)
}

val eligible : mode -> ctx -> Request.t -> bool
(** Whether the (queued, outstanding) request may be handed to the
    disk scheduler now. *)

val first_blocker : mode -> ctx -> Request.t -> int option
(** Incremental companion to {!eligible} for the driver's dispatch
    index. [None] means the ordering constraints are satisfied now
    ({e except} possibly the conflicting-earlier-write check, which
    the driver applies separately to all candidates, including the
    [nr] read bypass). [Some w] returns a {e necessary} witness: an
    outstanding request id that must complete before this request can
    become eligible, so the driver may park the request until [w]
    completes instead of re-evaluating it after every completion.
    Invariant (checked by the test suite): [first_blocker] returns
    [None] iff [eligible] holds when no earlier outstanding write
    overlaps the request. *)
