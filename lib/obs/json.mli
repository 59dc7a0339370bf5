(** A minimal JSON value type with a compact printer and a parser —
    enough for the simulator's structured output (measurement records,
    table dumps, JSONL traces) without an external dependency.

    Rendering is deterministic: object fields print in the order
    given, floats use the shortest representation that round-trips
    exactly, and non-finite floats render as [null] (no cell of any
    machine-readable output may carry [nan]/[inf]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line. *)

val to_string_pretty : t -> string
(** Two-space indentation; deterministic. *)

val parse : string -> (t, string) result
(** Strict parser for the subset this module prints (standard JSON;
    numbers with a ['.'] or exponent parse as [Float], others as
    [Int]). The error string carries a character offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere. *)

val get : string -> t -> t
(** Like {!member} but raises [Not_found]. *)

val to_float : t -> float option
(** [Int] and [Float] both convert; everything else is [None]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

val equal : t -> t -> bool
(** Structural equality; object field order is significant (rendering
    is deterministic, so round-tripping preserves order). *)

val write_file :
  log:out_channel -> ?note:string -> string -> (out_channel -> unit) -> unit
(** The command-line tools' one file writer: [write_file ~log path f]
    writes [path] through [f], then reports [# wrote PATH] (or
    [# wrote PATH (NOTE)]) on [log]. A path that cannot be written is
    reported as [cannot write PATH: REASON] on stderr, and the process
    exits 2. *)

val write_pretty : log:out_channel -> string -> t -> unit
(** {!write_file} of {!to_string_pretty}, newline-terminated. *)
