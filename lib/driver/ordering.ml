type flag_semantics = Full | Back | Part | Ignore

type mode =
  | Unordered
  | Flag of { sem : flag_semantics; nr : bool }
  | Chains of { nr : bool }

type ctx = {
  is_outstanding : int -> bool;
  min_outstanding : unit -> int option;
  conflicting_earlier_write : Request.t -> bool;
}

let gate_completed ctx (r : Request.t) =
  match r.Request.gate with
  | None -> true
  | Some g -> not (ctx.is_outstanding g)

(* No outstanding request has an id below [bound]. The caller's own
   request is outstanding with id >= bound, so [>= bound] is the right
   comparison. *)
let nothing_outstanding_below ctx bound =
  match ctx.min_outstanding () with
  | None -> true
  | Some m -> m >= bound

let flag_eligible sem ctx (r : Request.t) =
  match sem with
  | Ignore -> true
  | Part -> gate_completed ctx r
  | Back ->
    (match r.Request.gate with
     | None -> true
     | Some g -> (not (ctx.is_outstanding g)) && nothing_outstanding_below ctx g)
  | Full ->
    if r.Request.flagged then
      (* a barrier waits for everything issued before it *)
      nothing_outstanding_below ctx r.Request.id
    else
      (* the gate could not start before its predecessors finished,
         so its completion implies theirs *)
      gate_completed ctx r

(* Incremental form of [eligible], used by the driver's dispatch
   index: instead of re-evaluating every queued request after each
   completion, the driver parks a blocked request under the returned
   witness id and re-examines it only when that witness completes.

   The contract is that the witness is {e necessary}: the request
   cannot become eligible while the witness is still outstanding. This
   holds because every condition is a conjunction of monotone clauses
   (ids complete and are never re-issued), so any failing clause
   yields a necessary witness:
   - an outstanding gate or chain dependency must itself complete;
   - a "nothing outstanding below [bound]" clause cannot become true
     before the current minimum outstanding id completes.

   The -NR read bypass is the one disjunction: a read that fails the
   flag/chains clause may still proceed once it stops overlapping an
   earlier outstanding write. Its only necessary condition is the
   conflict check, which the driver applies to every ready candidate
   anyway, so we report such reads as unblocked here and let the
   driver park them under the conflicting write's id. *)
(* Helpers for [first_blocker] live at toplevel so the Unordered path
   (and every classify call) allocates no closures. *)
let nr_read nr (r : Request.t) =
  nr && (match r.Request.kind with Request.Read -> true | Request.Write -> false)

let gate_blocker ctx (r : Request.t) =
  match r.Request.gate with
  | Some g when ctx.is_outstanding g -> Some g
  | Some _ | None -> None

let below_blocker ctx bound =
  match ctx.min_outstanding () with
  | Some m when m < bound -> Some m
  | Some _ | None -> None

let first_blocker mode ctx (r : Request.t) =
  match mode with
  | Unordered -> None
  | Flag { sem; nr } ->
    let flag_blocker =
      match sem with
      | Ignore -> None
      | Part -> gate_blocker ctx r
      | Back ->
        (match gate_blocker ctx r with
         | Some g -> Some g
         | None ->
           (match r.Request.gate with
            | None -> None
            | Some g -> below_blocker ctx g))
      | Full ->
        if r.Request.flagged then below_blocker ctx r.Request.id
        else gate_blocker ctx r
    in
    (match flag_blocker with
     | None -> None
     | Some w -> if nr_read nr r then None else Some w)
  | Chains { nr } ->
    let dep_blocker =
      match List.find_opt ctx.is_outstanding r.Request.deps with
      | Some d -> Some d
      | None -> gate_blocker ctx r
    in
    (match dep_blocker with
     | None -> None
     | Some w -> if nr_read nr r then None else Some w)

let eligible mode ctx (r : Request.t) =
  match mode with
  | Unordered -> true
  | Chains { nr } ->
    let deps_ok =
      List.for_all (fun d -> not (ctx.is_outstanding d)) r.Request.deps
      (* flagged requests act as Part-style gates so the chains scheme
         can fall back on barriers for de-allocation (§3.2) *)
      && gate_completed ctx r
    in
    if deps_ok then true
    else nr_read nr r && not (ctx.conflicting_earlier_write r)
  | Flag { sem; nr } ->
    if flag_eligible sem ctx r then true
    else nr_read nr r && not (ctx.conflicting_earlier_write r)
