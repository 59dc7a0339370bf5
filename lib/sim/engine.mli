(** Discrete-event simulation engine.

    The engine owns a virtual clock and a time-ordered event queue.
    Events with equal timestamps fire in scheduling order. All
    simulated activity — process resumptions, disk completions, daemon
    wake-ups — is driven by callbacks scheduled here.

    The queue is a flat binary heap over parallel arrays (a
    [floatarray] of times plus int arrays of sequence numbers and
    payload-slot ids) ordered by monomorphic float/int comparisons;
    payloads sit in a free-list slot pool. Steady-state scheduling and
    dispatch allocate nothing. Hot paths should {!register} a handler
    once and schedule [(handler, int arg)] events; the closure API
    costs one caller-side closure per event and nothing else. *)

type t

type handler
(** A handler id returned by {!register} (engine-specific). *)

val null : handler
(** Placeholder for not-yet-registered handler fields; scheduling it
    is an error. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules [f] at absolute virtual [time]. Scheduling
    in the past is clamped to [now]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t dt f] schedules [f] at [now t +. dt]. Negative [dt] is
    clamped to zero. *)

val soon : t -> (unit -> unit) -> unit
(** Schedule at the current time, after already-pending same-time
    events. Used to defer wake-ups out of the waker's context. *)

val register : t -> (int -> unit) -> handler
(** [register t f] installs [f] as a reusable event handler and
    returns its id. Meant to be called once per component at set-up;
    events then carry only the id and an int argument, so scheduling
    them allocates nothing. Handlers cannot be unregistered. *)

val at_handler : t -> float -> handler -> int -> unit
(** [at_handler t time h arg] schedules [handlers h arg] at absolute
    [time] (clamped to [now] like {!at}) without allocating. *)

val after_handler : t -> float -> handler -> int -> unit
(** Relative-time form of {!at_handler}; negative delays clamp to 0. *)

val stop : t -> unit
(** Abort the run: no further events fire on this engine, now or in
    later [run] calls (the halt is sticky — crash injection abandons
    the world; fresh worlds use fresh engines). *)

val stopped : t -> bool

val run : ?until:float -> t -> unit
(** Execute events in (time, scheduling order) until the queue drains,
    [stop] is called, or the next event lies past [until].

    [run ~until] semantics: events with time <= [until] execute; an
    event past [until] stays queued and the clock advances to [until]
    (never backwards — a smaller [until] than the current clock leaves
    the clock alone). Two consecutive runs [run ~until:a; run
    ~until:b] with [a <= b] are equivalent to the single [run
    ~until:b], provided nothing is scheduled in between. If the engine
    is (or becomes) halted, the clock stays where the halt left it and
    queued events remain queued; subsequent runs are no-ops.
    Exceptions raised by event callbacks propagate to the caller. *)

val advance : t -> float -> bool
(** [advance t time] moves the clock forward to [time] in place of an
    event at [time], and says whether it could. It can only inside a
    {!run}, with [time] between [now t] and that run's [until], the
    engine not stopped, and no queued event due at or before [time]
    (an equal-time event was scheduled earlier, so it must fire
    first). Then nothing could have fired in between, so the caller
    may carry on at [time] exactly as if its event had fired there;
    the event is neither queued nor counted in {!events_executed}. It
    returns [false], and changes nothing, in every other case —
    always outside a [run]. {!Cpu} uses it to finish a charge that
    nothing can interleave with. *)

val events_executed : t -> int
(** Total callbacks executed so far (for engine health checks). *)

val pending : t -> int
(** Events currently queued (tests and benchmarks). *)

val capacity : t -> int
(** Current backing-array capacity; stays at the high-water mark of
    [pending] because popped slots are recycled through the free list
    (exposed so tests can pin the no-growth invariant). *)
