module Bitset = Su_util.Bitset
module Itbl = Su_util.Itbl

type policy = Clook | Fcfs

type config = {
  mode : Ordering.mode;
  policy : policy;
  max_concat : int;
  keep_records : bool;
  max_attempts : int;
  retry_backoff : float;
  request_timeout : float;
  sink : Su_obs.Events.t option;
}

let default_config =
  {
    mode = Ordering.Unordered;
    policy = Clook;
    max_concat = 64;
    keep_records = false;
    max_attempts = 5;
    retry_backoff = 0.002;
    request_timeout = 0.0;
    sink = None;
  }

(* The queue is maintained as a dispatch index so that accepting a
   request, selecting the next device operation and retiring a
   completion are all cheap in the number of pending requests — the
   seed implementation rebuilt the full eligible list after every disk
   completion, which went quadratic exactly in the paper's interesting
   regime (thousands of delayed writes queued at once).

   Every pending request is in exactly one of two states:
   - {e ready}: eligible for scheduling right now; indexed by id
     ([ready_ids], FCFS order) and by lbn ([ready_lbns] plus the
     [ready_at] buckets, C-LOOK order and concatenation lookups);
   - {e parked}: provably not eligible until a specific outstanding
     request (its {e witness}) completes; stored in [waiters] under
     the witness id. Witnesses come from {!Ordering.first_blocker}
     (gates, chain dependencies, barriers) or from the
     conflicting-earlier-write check (WAW safety), and are always
     necessary conditions, so a parked request never needs to be
     re-examined before its witness completes. Eligibility is
     monotone — ids only ever leave the outstanding set — so a ready
     request never becomes ineligible again.

   All id- and lbn-keyed sets are hierarchical bitsets
   ({!Su_util.Bitset}): O(1) membership flips and allocation-free
   successor queries, where the seed's functional [Set]/[Map]
   structures allocated O(log n) nodes per operation on the per-event
   path. The lbn-keyed buckets ([ready_at], [writes_at]) hold the
   request records themselves, so the scheduling walks (head pick,
   concatenation, WAW scan, waiter promotion) never consult the
   id-keyed table. Request records
   are recycled through [free_reqs] (see {!release}), and the single
   in-flight device operation's parameters live in the [a_*] fields
   with one preallocated completion callback [on_done_fn], so
   steady-state dispatch and completion allocate almost nothing. *)
type t = {
  engine : Su_sim.Engine.t;
  disk : Su_disk.Disk.t;
  config : config;
  mutable trace : Trace.t;
  mutable next_id : int;
  mutable last_flagged : int option;
  fcfs : bool;  (* config.policy = Fcfs, checked on every dispatch *)
  reqs : Request.t Itbl.t;
      (* queued requests by id; consulted (and maintained) only under
         the FCFS policy, whose head pick needs id-to-record mapping *)
  mutable n_queued : int;  (* submitted and not yet sent to the disk *)
  ready_ids : Bitset.t;
      (* queued and eligible, by id; FCFS only, like [reqs] *)
  ready_lbns : Bitset.t;  (* lbns with at least one ready request *)
  ready_at : Request.t list Itbl.t;
      (* lbn -> ready requests, ascending id *)
  waiters : Request.t list Itbl.t;  (* witness id -> parked requests *)
  outstanding_ids : Bitset.t;  (* queued + in-flight *)
  mutable n_outstanding : int;
  write_lbns : Bitset.t;  (* start lbns with outstanding writes *)
  writes_at : Request.t list Itbl.t;
      (* outstanding writes by start lbn, newest first *)
  mutable max_wext : int;
      (* widest write nfrags seen so far; bounds the WAW scan window *)
  mutable head_pos : int;
  mutable idle_waiters : (unit -> unit) list;
  mutable retries : pending_retry list;
      (* failed device operations parked for re-drive after backoff;
         their requests stay outstanding, so everything ordered after
         them stays parked until the retry resolves *)
  mutable octx : Ordering.ctx;  (* built once; closures read live state *)
  mutable free_reqs : Request.t array;  (* recycled request records *)
  mutable n_free : int;
  (* parameters of the in-flight device operation, stashed for
     [on_done_fn] (the disk is serial: one operation in flight) *)
  mutable a_run : Request.t list;
  mutable a_lbn : int;
  mutable a_nfrags : int;
  mutable a_op : Su_disk.Disk.op;
  mutable a_payload : Su_fstypes.Types.cell array option;
  mutable a_attempts : int;
  mutable a_start : float;
  mutable on_done_fn :
    (Su_fstypes.Types.cell array option, Su_disk.Fault.error) result ->
    float ->
    unit;
}

(* A device operation (a concatenated run of requests) that failed or
   timed out and is awaiting its next attempt. *)
and pending_retry = {
  p_run : Request.t list;
  p_lbn : int;
  p_nfrags : int;
  p_op : Su_disk.Disk.op;
  p_payload : Su_fstypes.Types.cell array option;
  p_attempts : int;  (* attempts already made *)
  p_due : float;  (* earliest time of the next attempt *)
}

let trace t = t.trace
let mode t = t.config.mode

let emit t ~kind fields =
  match t.config.sink with
  | None -> ()
  | Some sink ->
    Su_obs.Events.emit sink ~t_sim:(Su_sim.Engine.now t.engine) ~kind fields

let reset_trace t =
  t.trace <- Trace.create ~keep_records:t.config.keep_records ();
  (* Marker so a trace replay can count only post-reset events,
     matching the statistics the fresh Trace will accumulate. *)
  emit t ~kind:"trace.reset" []

let completed t id = not (Bitset.mem t.outstanding_ids id)
let outstanding t = t.n_outstanding
let queue_length t = t.n_queued

(* Cap on the WAW scan window: the scan never needs to look further
   back than the widest outstanding write could reach, and the
   concatenation limit keeps device operations at 64 fragments, so 64
   is also the widest window that can ever pay off. *)
let max_write_extent = 64

let add_write_index t (r : Request.t) =
  let lbn = r.Request.lbn in
  if r.Request.nfrags > t.max_wext then t.max_wext <- r.Request.nfrags;
  match Itbl.get t.writes_at lbn with
  | [] ->
    Itbl.set t.writes_at lbn [ r ];
    Bitset.set t.write_lbns lbn
  | l -> Itbl.set t.writes_at lbn (r :: l)

let remove_write_index t (r : Request.t) =
  let lbn = r.Request.lbn in
  match Itbl.get t.writes_at lbn with
  | [ w ] when w == r ->
    Itbl.remove t.writes_at lbn;
    Bitset.clear t.write_lbns lbn
  | l ->
    (match List.filter (fun w -> w != r) l with
     | [] ->
       Itbl.remove t.writes_at lbn;
       Bitset.clear t.write_lbns lbn
     | l' -> Itbl.set t.writes_at lbn l')

(* An outstanding write with a lower id whose extent overlaps [r].
   Walks only the start lbns that actually hold writes, via the
   bitset's successor query; the window is bounded by the widest
   write seen so far (usually far narrower than the 64-fragment cap —
   single-fragment workloads scan exactly one bucket). *)
let conflicting_earlier_write_id t (r : Request.t) =
  let width = if t.max_wext < max_write_extent then t.max_wext else max_write_extent in
  let lo =
    let l = r.Request.lbn - width + 1 in
    if l < 0 then 0 else l
  in
  let hi = r.Request.lbn + r.Request.nfrags in
  let rec scan start =
    if start < 0 || start >= hi then None
    else
      match
        List.find_opt
          (fun (w : Request.t) ->
            w.Request.id < r.Request.id
            && r.Request.lbn < w.Request.lbn + w.Request.nfrags)
          (Itbl.get t.writes_at start)
      with
      | Some w -> Some w.Request.id
      | None -> scan (Bitset.next_geq t.write_lbns (start + 1))
  in
  scan (Bitset.next_geq t.write_lbns lo)

(* --- the dispatch index ---------------------------------------------- *)

let rec insert_sorted (r : Request.t) = function
  | [] -> [ r ]
  | (x : Request.t) :: _ as l when r.Request.id < x.Request.id -> r :: l
  | x :: rest -> x :: insert_sorted r rest

let make_ready t (r : Request.t) =
  if t.fcfs then Bitset.set t.ready_ids r.Request.id;
  let lbn = r.Request.lbn in
  match Itbl.get t.ready_at lbn with
  | [] ->
    Itbl.set t.ready_at lbn [ r ];
    Bitset.set t.ready_lbns lbn
  | l -> Itbl.set t.ready_at lbn (insert_sorted r l)

let remove_ready t (r : Request.t) =
  if t.fcfs then Bitset.clear t.ready_ids r.Request.id;
  let lbn = r.Request.lbn in
  match Itbl.get t.ready_at lbn with
  | [ x ] when x == r ->
    Itbl.remove t.ready_at lbn;
    Bitset.clear t.ready_lbns lbn
  | l ->
    (match List.filter (fun x -> x != r) l with
     | [] ->
       Itbl.remove t.ready_at lbn;
       Bitset.clear t.ready_lbns lbn
     | l' -> Itbl.set t.ready_at lbn l')

let park t ~witness (r : Request.t) =
  Itbl.set t.waiters witness (r :: Itbl.get t.waiters witness)

(* File a queued request as ready, or park it under a necessary
   witness. A request is dispatchable iff its ordering constraints are
   satisfied and no earlier outstanding write overlaps it; both kinds
   of blockage name an outstanding id that must complete first. *)
let classify t (r : Request.t) =
  match Ordering.first_blocker t.config.mode t.octx r with
  | Some w -> park t ~witness:w r
  | None ->
    (match conflicting_earlier_write_id t r with
     | Some w -> park t ~witness:w r
     | None -> make_ready t r)

(* [witness] has completed: re-examine every request parked under it.
   Each either becomes ready or parks under a new (still outstanding)
   witness. *)
let promote_waiters t witness =
  match Itbl.get t.waiters witness with
  | [] -> ()
  | [ r ] ->
    Itbl.remove t.waiters witness;
    classify t r
  | rs ->
    Itbl.remove t.waiters witness;
    (* re-classify in ascending id order so [park]'s consing keeps
       each waiter list in descending id order deterministically *)
    List.iter (fun r -> classify t r) (List.rev rs)

(* --- scheduling ------------------------------------------------------ *)

let pick_head t =
  if t.fcfs then (
    match Bitset.min_elt t.ready_ids with
    | -1 -> None
    | id -> Some (Itbl.get t.reqs id))
  else begin
    let lbn =
      match Bitset.next_geq t.ready_lbns t.head_pos with
      | -1 -> Bitset.min_elt t.ready_lbns
      | l -> l
    in
    if lbn < 0 then None
    else
      (match Itbl.get t.ready_at lbn with
       | r :: _ -> Some r
       | [] -> assert false)
  end

let same_kind (a : Request.kind) (b : Request.kind) =
  match a, b with
  | Request.Read, Request.Read | Request.Write, Request.Write -> true
  | Request.Read, Request.Write | Request.Write, Request.Read -> false

(* Largest ready id at exactly [lbn] with the same kind as [head]
   (matching the seed's concatenation table, where the last-inserted —
   highest-id — same-kind candidate won). The bucket is ascending, so
   the last match wins. *)
let concat_candidate t (head : Request.t) lbn =
  if lbn < 0 || not (Bitset.mem t.ready_lbns lbn) then None
  else
    let rec best_match best = function
      | [] -> best
      | (r : Request.t) :: rest ->
        let best =
          if same_kind r.Request.kind head.Request.kind && r != head then
            Some r
          else best
        in
        best_match best rest
    in
    best_match None (Itbl.get t.ready_at lbn)

(* Gather ready requests that extend [head] contiguously upward, same
   kind, within the concatenation limit. *)
let concat_run t (head : Request.t) =
  let rec extend acc last_end total =
    if total >= t.config.max_concat then List.rev acc
    else
      match concat_candidate t head last_end with
      | Some r when total + r.Request.nfrags <= t.config.max_concat ->
        remove_ready t r;
        extend (r :: acc) (last_end + r.Request.nfrags) (total + r.Request.nfrags)
      | Some _ | None -> List.rev acc
  in
  remove_ready t head;
  head :: extend [] (head.Request.lbn + head.Request.nfrags) head.Request.nfrags

let notify_if_idle t =
  if t.n_outstanding = 0 && t.idle_waiters <> [] then begin
    let ws = t.idle_waiters in
    t.idle_waiters <- [];
    List.iter (fun w -> Su_sim.Engine.soon t.engine w) ws
  end

(* Pop the earliest-due pending retry whose backoff has elapsed. *)
let take_due_retry t now =
  match t.retries with
  | [] -> None
  | _ ->
    let due, rest =
      List.partition (fun p -> p.p_due <= now +. 1e-12) t.retries
    in
    (match
       List.sort
         (fun a b ->
           let c = Float.compare a.p_due b.p_due in
           if c <> 0 then c else Int.compare a.p_lbn b.p_lbn)
         due
     with
     | [] -> None
     | first :: later ->
       t.retries <- later @ rest;
       Some first)

let ignore_completion
    (_ : (Su_fstypes.Types.cell array option, Su_disk.Fault.error) result) =
  ()

(* Preallocated success value for data-less completions (writes), so
   the per-write completion path does not allocate an [Ok] block. *)
let ok_none : (Su_fstypes.Types.cell array option, Su_disk.Fault.error) result =
  Ok None

(* Completed (or definitively failed) requests go back to the pool;
   payload, callback and dependency fields are dropped immediately so
   recycling can never leak stale data into a later request's
   lifetime. Records parked in [reqs] or held by a pending retry are
   still live and are only released on their eventual completion. *)
let release t (r : Request.t) =
  r.Request.payload <- None;
  r.Request.gate <- None;
  r.Request.deps <- [];
  r.Request.on_complete <- ignore_completion;
  let n = t.n_free in
  if n = Array.length t.free_reqs then begin
    let ncap = if n = 0 then 64 else n * 2 in
    let na = Array.make ncap r in
    Array.blit t.free_reqs 0 na 0 n;
    t.free_reqs <- na
  end;
  t.free_reqs.(n) <- r;
  t.n_free <- n + 1

let rec try_dispatch t =
  if not (Su_disk.Disk.busy t.disk) then begin
    let now = Su_sim.Engine.now t.engine in
    match take_due_retry t now with
    | Some p ->
      submit_run t ~run:p.p_run ~lbn:p.p_lbn ~nfrags:p.p_nfrags ~op:p.p_op
        ~payload:p.p_payload ~attempts:p.p_attempts
    | None ->
      (match pick_head t with
       | None -> ()
       | Some head ->
         Trace.note_qdepth t.trace t.n_queued;
         let run = concat_run t head in
         let sink_on = Option.is_some t.config.sink in
         List.iter
           (fun (r : Request.t) ->
             if t.fcfs then Itbl.remove t.reqs r.Request.id;
             t.n_queued <- t.n_queued - 1;
             r.Request.start_time <- now;
             if sink_on then
               emit t ~kind:"io.start" [ ("id", Su_obs.Json.Int r.Request.id) ])
           run;
         let lbn = head.Request.lbn in
         let nfrags =
           List.fold_left (fun n (r : Request.t) -> n + r.Request.nfrags) 0 run
         in
         let op, payload =
           match head.Request.kind with
           | Request.Read -> (Su_disk.Disk.Read, None)
           | Request.Write ->
             (match run with
              | [ { Request.payload = Some _ as p; _ } ] ->
                (* single-request run: send its snapshot directly *)
                (Su_disk.Disk.Write, p)
              | _ ->
                let cells = Array.make nfrags Su_fstypes.Types.Empty in
                let off = ref 0 in
                List.iter
                  (fun (r : Request.t) ->
                    (match r.Request.payload with
                     | Some p -> Array.blit p 0 cells !off r.Request.nfrags
                     | None -> invalid_arg "Driver: write without payload");
                    off := !off + r.Request.nfrags)
                  run;
                (Su_disk.Disk.Write, Some cells))
         in
         submit_run t ~run ~lbn ~nfrags ~op ~payload ~attempts:0)
  end

(* Drive one device operation, then complete, retry (with exponential
   backoff) or fail the run. While an operation is retrying, its
   requests stay outstanding: gates, chain edges and WAW conflicts
   that name them keep their dependents parked, so the schemes'
   ordering state is untouched by the retry machinery. A write retry
   re-sends the identical payload, so a half-applied (torn) earlier
   attempt is simply overwritten.

   The operation's parameters are stashed in the [a_*] fields rather
   than captured in a fresh closure: the disk services one operation
   at a time, and [handle_done] copies them out before anything can
   re-dispatch. *)
and submit_run t ~run ~lbn ~nfrags ~op ~payload ~attempts =
  t.a_run <- run;
  t.a_lbn <- lbn;
  t.a_nfrags <- nfrags;
  t.a_op <- op;
  t.a_payload <- payload;
  t.a_attempts <- attempts;
  t.a_start <- Su_sim.Engine.now t.engine;
  Su_disk.Disk.submit t.disk ~lbn ~nfrags ~op ~payload ~on_done:t.on_done_fn

and handle_done t result _svc =
  let run = t.a_run
  and lbn = t.a_lbn
  and nfrags = t.a_nfrags
  and op = t.a_op
  and payload = t.a_payload
  and attempts = t.a_attempts
  and attempt_start = t.a_start in
  t.a_run <- [];
  t.a_payload <- None;
  let now = Su_sim.Engine.now t.engine in
  let result =
    (* a per-request deadline turns a stalled-but-successful attempt
       into a failure: the data (if any) is discarded and the
       operation re-driven, as a host would after aborting a hung
       command *)
    let limit = t.config.request_timeout in
    match result with
    | Ok _ when limit > 0.0 && now -. attempt_start > limit ->
      Error (Su_disk.Fault.Timeout { elapsed = now -. attempt_start; limit })
    | r -> r
  in
  match result with
  | Ok data -> complete_run t ~run ~lbn ~nfrags data
  | Error err ->
    let attempts = attempts + 1 in
    if attempts >= t.config.max_attempts then begin
      (* Last resort before failing the run: a write that keeps dying
         on a permanent bad sector can be relocated — remap the
         fragment to a spare and re-drive with a fresh budget (the
         payload is still in hand; reads have nothing to relocate).
         Several bad sectors under one run converge one remap at a
         time; the spare pool bounds the recursion. *)
      let remapped =
        match op, err with
        | Su_disk.Disk.Write, Su_disk.Fault.Bad_sector { lbn = bad } ->
          if Su_disk.Disk.try_remap t.disk ~lbn:bad then Some bad else None
        | _ -> None
      in
      match remapped with
      | Some bad ->
        Trace.note_remap t.trace;
        emit t ~kind:"io.remap"
          [ ("lbn", Su_obs.Json.Int bad); ("run_lbn", Su_obs.Json.Int lbn) ];
        (* completion context: the device is idle right now *)
        submit_run t ~run ~lbn ~nfrags ~op ~payload ~attempts:0
      | None -> fail_run t ~run err
    end
    else begin
      Trace.note_retry t.trace;
      emit t ~kind:"io.retry"
        [ ("lbn", Su_obs.Json.Int lbn); ("attempts", Su_obs.Json.Int attempts) ];
      let delay =
        t.config.retry_backoff *. (2.0 ** float_of_int (attempts - 1))
      in
      t.retries <-
        { p_run = run; p_lbn = lbn; p_nfrags = nfrags; p_op = op;
          p_payload = payload; p_attempts = attempts; p_due = now +. delay }
        :: t.retries;
      Su_sim.Engine.after t.engine delay (fun () -> try_dispatch t);
      (* the device is idle during the backoff window: let ready
         requests (necessarily unordered w.r.t. the failed run)
         use it *)
      try_dispatch t
    end

and complete_run t ~run ~lbn ~nfrags data =
  let complete_time = Su_sim.Engine.now t.engine in
  let sink_on = Option.is_some t.config.sink in
  let off = ref 0 in
  List.iter
    (fun (r : Request.t) ->
      Bitset.clear t.outstanding_ids r.Request.id;
      t.n_outstanding <- t.n_outstanding - 1;
      (match r.Request.kind with
       | Request.Write -> remove_write_index t r
       | Request.Read -> ());
      Trace.note_io t.trace ~id:r.Request.id ~kind:r.Request.kind
        ~lbn:r.Request.lbn ~nfrags:r.Request.nfrags ~sync:r.Request.sync
        ~issue:r.Request.issue_time ~start:r.Request.start_time
        ~complete:complete_time;
      if sink_on then
        emit t ~kind:"io.complete"
          [
            ("id", Su_obs.Json.Int r.Request.id);
            ("lbn", Su_obs.Json.Int r.Request.lbn);
            ( "response_s",
              Su_obs.Json.Float (complete_time -. r.Request.issue_time) );
          ];
      (* promote before the completion callback runs: a callback may
         submit new requests and trigger a dispatch, which must
         already see the requests this completion unblocked *)
      promote_waiters t r.Request.id;
      let result =
        match data with
        | None -> ok_none
        | Some cells ->
          let slice = Some (Array.sub cells !off r.Request.nfrags) in
          off := !off + r.Request.nfrags;
          Ok slice
      in
      let cb = r.Request.on_complete in
      cb result;
      release t r)
    run;
  t.head_pos <- lbn + nfrags;
  notify_if_idle t;
  try_dispatch t

(* The retry budget ran out: complete every request of the run with
   the typed error. The failed ids leave the outstanding set (so the
   queue cannot wedge behind them) and their waiters are promoted —
   whether to re-issue, escalate or give up is the caller's decision;
   the cache re-dirties failed buffers and counts the failure. *)
and fail_run t ~run err =
  List.iter
    (fun (r : Request.t) ->
      Bitset.clear t.outstanding_ids r.Request.id;
      t.n_outstanding <- t.n_outstanding - 1;
      (match r.Request.kind with
       | Request.Write -> remove_write_index t r
       | Request.Read -> ());
      Trace.note_failure t.trace;
      emit t ~kind:"io.fail" [ ("id", Su_obs.Json.Int r.Request.id) ];
      promote_waiters t r.Request.id;
      let cb = r.Request.on_complete in
      cb (Error err);
      release t r)
    run;
  notify_if_idle t;
  try_dispatch t

(* Sentinel for the id-keyed request table: never scheduled, only
   returned for absent ids (which the FCFS head pick never asks for —
   ids in [ready_ids] are always bound). *)
let absent_req : Request.t =
  {
    Request.id = -1;
    kind = Request.Read;
    lbn = 0;
    nfrags = 0;
    payload = None;
    flagged = false;
    gate = None;
    deps = [];
    sync = false;
    issue_time = 0.0;
    start_time = 0.0;
    on_complete = ignore;
  }

let create ~engine ~disk config =
  let t =
    {
      engine;
      disk;
      config;
      trace = Trace.create ~keep_records:config.keep_records ();
      next_id = 0;
      last_flagged = None;
      fcfs = (match config.policy with Fcfs -> true | Clook -> false);
      reqs = Itbl.create ~capacity:16384 ~absent:absent_req ();
      n_queued = 0;
      ready_ids = Bitset.create ();
      ready_lbns = Bitset.create ();
      (* Sized past the deepest burst the benches queue (10k requests
         outstanding at once): growing a hot table mid-burst rehashes
         more entries than the burst itself queues, and 256 KB a table
         is nothing next to the disk image. *)
      ready_at = Itbl.create ~capacity:16384 ~absent:[] ();
      waiters = Itbl.create ~capacity:16384 ~absent:[] ();
      outstanding_ids = Bitset.create ();
      n_outstanding = 0;
      write_lbns = Bitset.create ();
      writes_at = Itbl.create ~capacity:16384 ~absent:[] ();
      max_wext = 1;
      head_pos = 0;
      idle_waiters = [];
      retries = [];
      octx =
        {
          Ordering.is_outstanding = (fun _ -> false);
          min_outstanding = (fun () -> None);
          conflicting_earlier_write = (fun _ -> false);
        };
      free_reqs = [||];
      n_free = 0;
      a_run = [];
      a_lbn = 0;
      a_nfrags = 0;
      a_op = Su_disk.Disk.Read;
      a_payload = None;
      a_attempts = 0;
      a_start = 0.0;
      on_done_fn = (fun _ _ -> ());
    }
  in
  t.octx <-
    {
      Ordering.is_outstanding = (fun id -> Bitset.mem t.outstanding_ids id);
      min_outstanding =
        (fun () ->
          match Bitset.min_elt t.outstanding_ids with
          | -1 -> None
          | m -> Some m);
      conflicting_earlier_write =
        (fun r -> Option.is_some (conflicting_earlier_write_id t r));
    };
  t.on_done_fn <- (fun result svc -> handle_done t result svc);
  Su_disk.Disk.set_idle_callback disk (fun () -> try_dispatch t);
  t

let submit t ~kind ~lbn ~nfrags ?(flagged = false) ?(deps = []) ?(sync = false)
    ?payload ~on_complete () =
  if nfrags <= 0 then invalid_arg "Driver.submit: nfrags must be positive";
  if lbn < 0 then invalid_arg "Driver.submit: negative lbn";
  if lbn + nfrags > Su_disk.Disk.nfrags t.disk then
    invalid_arg "Driver.submit: address out of range";
  (match kind, payload with
   | Request.Write, None -> invalid_arg "Driver.submit: write without payload"
   | Request.Write, Some p when Array.length p <> nfrags ->
     invalid_arg "Driver.submit: payload length mismatch"
   | Request.Write, Some _ | Request.Read, _ -> ());
  let id = t.next_id in
  t.next_id <- id + 1;
  let now = Su_sim.Engine.now t.engine in
  let r =
    if t.n_free > 0 then begin
      let n = t.n_free - 1 in
      t.n_free <- n;
      let r = t.free_reqs.(n) in
      r.Request.id <- id;
      r.Request.kind <- kind;
      r.Request.lbn <- lbn;
      r.Request.nfrags <- nfrags;
      r.Request.payload <- payload;
      r.Request.flagged <- flagged;
      r.Request.gate <- t.last_flagged;
      r.Request.deps <- deps;
      r.Request.sync <- sync;
      r.Request.issue_time <- now;
      r.Request.start_time <- now;
      r.Request.on_complete <- on_complete;
      r
    end
    else
      {
        Request.id;
        kind;
        lbn;
        nfrags;
        payload;
        flagged;
        gate = t.last_flagged;
        deps;
        sync;
        issue_time = now;
        start_time = now;
        on_complete;
      }
  in
  if flagged then t.last_flagged <- Some id;
  if Option.is_some t.config.sink then
    emit t ~kind:"io.issue"
      [
        ("id", Su_obs.Json.Int id);
        ( "op",
          Su_obs.Json.Str
            (match kind with Request.Read -> "read" | Request.Write -> "write")
        );
        ("lbn", Su_obs.Json.Int lbn);
        ("nfrags", Su_obs.Json.Int nfrags);
        ("sync", Su_obs.Json.Bool sync);
      ];
  if t.fcfs then Itbl.set t.reqs id r;
  t.n_queued <- t.n_queued + 1;
  Bitset.set t.outstanding_ids id;
  t.n_outstanding <- t.n_outstanding + 1;
  (match kind with
   | Request.Write -> add_write_index t r
   | Request.Read -> ());
  classify t r;
  try_dispatch t;
  id

let submit_wait t ~kind ~lbn ~nfrags ?sync ?payload ?(on_complete = ignore)
    () =
  let iv = Su_sim.Proc.Ivar.create t.engine in
  ignore
    (submit t ~kind ~lbn ~nfrags ?sync ?payload
       ~on_complete:(fun r ->
         on_complete r;
         Su_sim.Proc.Ivar.fill iv r)
       ());
  Su_sim.Proc.Ivar.read iv

let quiesce t =
  if t.n_outstanding > 0 then
    Su_sim.Proc.suspend (fun resume ->
        t.idle_waiters <- resume :: t.idle_waiters)
