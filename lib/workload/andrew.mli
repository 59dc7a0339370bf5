(** The original Andrew file-system benchmark (§5.3), synthesised:

    1. create the target directory tree,
    2. copy the source files into it,
    3. examine the status of every file (recursive stat),
    4. read every byte of every file,
    5. compile — modelled as CPU bursts producing object files (the
       phase is compute-bound in the paper and dominates the total).

    Each execution uses a fresh world; phase times are per-phase
    elapsed seconds for the single benchmark user. *)

type result = {
  phases : float array;  (** length 5 *)
  total : float;
}

type summary = {
  mean : result;
  stdev : result;
  reps : int;
}

val run : cfg:Su_fs.Fs.config -> reps:int -> summary
