(** Reproductions of every figure and table in the paper's evaluation,
    plus the ablations discussed in the text. Each experiment returns
    printable tables; absolute values are simulator-scale, the shapes
    are what reproduce the paper (see EXPERIMENTS.md).

    [scale] trades fidelity for wall-clock time: [`Full] uses the
    paper's workload sizes (10,000 files, 1-8 users, several
    repetitions), [`Quick] shrinks them for smoke runs. *)

type scale = [ `Full | `Quick ]

val fig1 : scale -> Su_util.Text_table.t
(** Ordering-flag semantics (Full/Back/Part/Part-NR/Ignore), 4-user
    copy: elapsed time and average disk access time. *)

val fig2 : scale -> Su_util.Text_table.t
(** Flag semantics (Part/Full-NR/Back-NR/Part-NR/Ignore), 1-user
    remove: elapsed time and average driver response time. *)

val fig3 : scale -> Su_util.Text_table.t
(** Part / -NR / -CB / -NR/CB implementations, 4-user copy. *)

val fig4 : scale -> Su_util.Text_table.t
(** Same four implementations, 4-user remove. *)

val fig5 : scale -> Su_util.Text_table.t list
(** Metadata update throughput (files/second) vs concurrency:
    (a) 1 KB creates, (b) removes, (c) create/removes. *)

val tab1 : scale -> Su_util.Text_table.t
(** 4-user copy across the five schemes, with and without allocation
    initialisation: elapsed, % of No Order, CPU, disk requests,
    average I/O response time. *)

val tab2 : scale -> Su_util.Text_table.t
(** 4-user remove across the five schemes. *)

val tab3 : scale -> Su_util.Text_table.t
(** Andrew benchmark: five phases plus total, per scheme. *)

val fig6 : scale -> Su_util.Text_table.t
(** Sdet throughput (scripts/hour) vs script concurrency. *)

val crash_consistency : scale -> Su_util.Text_table.t
(** Crash-injection sweep: fsck violations and repairable leftovers
    per scheme over a grid of crash points. *)

val aging : scale -> Su_util.Text_table.t
(** Extension: age the volume with create/delete churn, then compare a
    tree copy on the aged volume against a fresh one — FFS-style
    allocation degrades as the free space fragments. *)

val all : scale -> (string * (unit -> Su_util.Text_table.t list)) list
(** Every experiment, in paper order, keyed by its identifier; each is
    a thunk so callers can run a subset. *)
