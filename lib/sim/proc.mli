(** Lightweight simulated processes built on OCaml 5 effects.

    A process is an ordinary OCaml function whose blocking points
    (sleeps, I/O waits, lock waits) perform effects handled by the
    engine: the one-shot continuation is parked and resumed by a later
    event. Code between blocking points executes atomically with
    respect to other processes, mirroring a uniprocessor kernel with
    well-defined preemption points.

    Invariant: wake-ups always go through [Engine.soon]/[Engine.after];
    a resumption never runs synchronously inside the waker. A CPU
    charge that {!Cpu.consume} finishes in place is not a wake-up: the
    process never parks, and no other process runs in between. *)

type handle
(** A spawned process. *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> handle
(** [spawn engine f] schedules [f] to start at the current time.
    An exception escaping [f] is wrapped in [Process_failure] and
    propagates out of [Engine.run]. *)

exception Process_failure of string * exn

val name : handle -> string
val finished : handle -> bool

val cpu_time : handle -> float
(** Total CPU seconds charged to this process (see {!Cpu}). *)

val charge_cpu : handle -> float -> unit
(** Account CPU usage; normally called by {!Cpu} only. *)

val self : unit -> handle
(** The currently running process.
    @raise Invalid_argument outside process context. *)

val self_opt : unit -> handle option

val sleep : Engine.t -> float -> unit
(** Block the calling process for a virtual duration. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process and hands its resume
    thunk to [register]. The thunk must be invoked exactly once, via
    the engine's event queue. *)

val join : Engine.t -> handle -> unit
(** Block until the given process finishes. Returns immediately if it
    already has. *)

val join_all : Engine.t -> handle list -> unit

(** One-shot write-once cells usable as completion signals. *)
module Ivar : sig
  type 'a t

  val create : Engine.t -> 'a t
  val fill : 'a t -> 'a -> unit
  (** @raise Invalid_argument if already filled. *)

  val is_filled : 'a t -> bool

  val read : 'a t -> 'a
  (** Block the calling process until filled, then return the value. *)

  val peek : 'a t -> 'a option
end
