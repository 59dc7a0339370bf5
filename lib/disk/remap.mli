(** Bad-sector remap table.

    The drive reserves [nspares + 1] fragments past the addressable
    media: index [media] holds the persisted table (a
    {!Su_fstypes.Types.cell.Rmap} cell) and
    [media + 1 .. media + nspares] are the spare fragments. Logical
    addresses stay stable — a remapped fragment is transparently
    redirected to its spare on every subsequent access. *)

type t

val create : media:int -> nspares:int -> t

val table_slot : t -> int
(** Physical index of the persisted-table cell ([media]). *)

val lookup : t -> int -> int
(** Physical address of a logical fragment (identity if unmapped). *)

val remap : t -> int -> int option
(** Allocate the next spare for a logical fragment and record the
    mapping. [None] when the spare pool is exhausted. *)

val entries : t -> (int * int) list
(** [(logical, spare)] pairs in allocation order. *)

val size : t -> int
val nspares : t -> int
val spares_left : t -> int

val cell : t -> Su_fstypes.Types.cell
(** The table serialized as an on-disk cell. *)

val load : t -> Su_fstypes.Types.cell -> unit
(** Restore the table from a persisted cell ([Empty] = empty table).
    @raise Invalid_argument on any other cell kind. *)
