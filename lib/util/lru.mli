(** Intrusive doubly-linked recency lists.

    A node is embedded in the object it tracks (the object holds the
    node, the node holds the object), so membership updates are O(1)
    pointer surgery with no allocation and no auxiliary table. Lists
    are kept ordered by ascending [stamp] — a recency counter assigned
    by the owner — so the head is always the least recently used
    element. Moving a node to the tail with a fresh maximal stamp is
    O(1) ({!remove} + {!append}).

    The caller owns the stamp discipline: {!append} does not check
    that the new node's stamp exceeds the tail's. *)

type 'a node = {
  value : 'a;
  mutable stamp : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable in_list : bool;
}

type 'a t

val make : ?stamp:int -> 'a -> 'a node
(** A detached node ([stamp] defaults to [0]). *)

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val append : 'a t -> 'a node -> unit
(** Add at the tail (most recent end).
    @raise Invalid_argument if the node is already in a list. *)

val remove : 'a t -> 'a node -> unit
(** Unlink; a no-op when the node is not in a list. *)

val first : 'a t -> 'a node option
(** Head node, for a walk along [next] that may stop early. *)

val head : 'a t -> 'a option
(** Least recently used element. *)

val filter : ('a -> bool) -> 'a t -> 'a list
(** Matching values, head (least recent) to tail, in one walk that
    allocates only the result. *)

val to_list : 'a t -> 'a list
(** Values, head (least recent) to tail. *)

val stamps : 'a t -> int list
(** Stamps, head to tail (testing / debugging). *)
