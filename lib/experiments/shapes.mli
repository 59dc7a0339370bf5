(** Machine-checkable shape claims over experiment output.

    EXPERIMENTS.md's "shape reproduced?" column used to be checked by
    eye against rendered text tables. This module serialises the same
    tables as JSON and asserts the load-bearing qualitative claims —
    scheme ordering in tables 1/2, figure 5 monotonicity, Soft Updates
    within a bounded factor of No Order — so the reproduction is gated
    in CI rather than prose. Bounds are calibrated at [`Quick] scale
    with generous margins; they hold at [`Full] scale too. *)

val table_json : Su_util.Text_table.t -> Su_obs.Json.t
(** [{"title": ..., "headers": [...], "rows": [[...], ...]}] with every
    cell a string, exactly as rendered. *)

val experiments_json :
  scale:string ->
  (string * float * Su_util.Text_table.t list) list ->
  Su_obs.Json.t
(** [experiments_json ~scale [(id, wall_s, tables); ...]] builds the
    toplevel document [bench/main.exe --json] emits:
    [{"scale": ..., "experiments": [{"id", "wall_s", "tables": [...]}]}]. *)

val check : Su_obs.Json.t -> (string * bool * string) list
(** Evaluate every shape claim whose table is present anywhere in the
    document (tables are recognised structurally, so the argument may
    be an [experiments_json] document, one experiment, or a bare table
    list). Returns [(claim, passed, detail)]; an empty list means no
    recognisable table was found. *)
