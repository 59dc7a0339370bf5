(** A single shared CPU modelled as a FIFO server.

    Processes consume CPU in bursts; concurrent bursts serialise in
    first-come-first-served order, approximating a time-sharing
    uniprocessor at syscall granularity (the workloads chunk long
    computations into small bursts). Each burst is charged to the
    calling process's CPU account. *)

type t

val create : Engine.t -> t

val consume : t -> float -> unit
(** [consume cpu seconds] blocks the calling process for its queueing
    delay plus [seconds] of service, and charges [seconds] to it.
    No-op for non-positive durations. Must be called from a process.

    A charge that nothing can interleave with — the CPU is idle and no
    event is due before the charge ends, within the current
    [Engine.run]'s horizon — completes without suspending: the clock
    advances by [seconds] in place ({!Engine.advance}). Every other
    charge parks the process on the engine's queue. The two are
    indistinguishable to the simulation. *)

val busy_time : t -> float
(** Total CPU seconds served so far (utilisation numerator). *)
