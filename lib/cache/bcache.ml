open Su_sim

exception Io_error of Su_disk.Fault.error

type stuck_buffer = {
  sb_key : int;
  sb_nfrags : int;
  sb_dirty : bool;
  sb_io : int;
  sb_ref : int;
  sb_sticky : bool;
}

exception Stuck of { op : string; detail : string; buffers : stuck_buffer list }

let stuck_buffer_of (b : Buf.t) =
  {
    sb_key = b.Buf.key;
    sb_nfrags = b.Buf.nfrags;
    sb_dirty = b.Buf.dirty;
    sb_io = b.Buf.io_count;
    sb_ref = b.Buf.refcount;
    sb_sticky = b.Buf.sticky;
  }

let stuck_to_string ~op ~detail buffers =
  let buf_line b =
    Printf.sprintf "  lbn %d (%d frags): %s%sio=%d ref=%d" b.sb_key b.sb_nfrags
      (if b.sb_dirty then "dirty " else "clean ")
      (if b.sb_sticky then "sticky " else "")
      b.sb_io b.sb_ref
  in
  let shown = List.filteri (fun i _ -> i < 16) buffers in
  let lines = List.map buf_line shown in
  let lines =
    if List.length buffers > 16 then
      lines @ [ Printf.sprintf "  ... and %d more" (List.length buffers - 16) ]
    else lines
  in
  Printf.sprintf "Bcache.%s stuck: %s\n%d buffer(s) involved:\n%s" op detail
    (List.length buffers)
    (String.concat "\n" lines)

let () =
  Printexc.register_printer (function
    | Stuck { op; detail; buffers } ->
      Some (stuck_to_string ~op ~detail buffers)
    | Io_error e ->
      Some (Printf.sprintf "Bcache.Io_error: %s" (Su_disk.Fault.error_to_string e))
    | _ -> None)

type hooks = {
  mutable pre_write : Buf.t -> Su_fstypes.Types.cell array * bool;
  mutable post_write : Buf.t -> unit;
  mutable pre_invalidate : Buf.t -> unit;
  mutable verify_fill :
    (lbn:int -> Su_fstypes.Types.cell array -> Su_fstypes.Types.cell array)
      option;
      (* integrity hook, run (process context) on every fill read
         before the cells become a buffer: returns the cells to trust
         (possibly repaired) or raises [Io_error (Checksum _)] when
         the repair ladder is exhausted. Installed by the fs layer —
         the cache cannot see the checksum region's owner directly *)
}

type config = {
  capacity_frags : int;
  cb : bool;
  copy_cost : int -> unit;
  sink : Su_obs.Events.t option;
}

let default_config =
  { capacity_frags = 32 * 1024; cb = false; copy_cost = (fun _ -> ());
    sink = None }

type t = {
  engine : Engine.t;
  driver : Su_driver.Driver.t;
  config : config;
  hooks : hooks;
  tbl : (int, Buf.t) Hashtbl.t;
  keys : Su_util.Bitset.t;
      (* the keys of [tbl], so the syncer steps through them in address
         order without sorting the table *)
  (* Every valid buffer, clean or dirty, sits on one intrusive recency
     list in ascending stamp order: the head is the least recently used
     buffer. Only [touch] moves a buffer; dirtying and cleaning are not
     recency events. Victim selection and the full-flush walk therefore
     never scan the table. *)
  lru : Buf.t Su_util.Lru.t;
  mutable used : int;
  mutable copies : int;  (* fragments held by in-flight write snapshots *)
  mutable ndirty : int;
  mutable nio_failures : int;  (* writes failed by the driver (fail-fast) *)
  mutable nhits : int;  (* getblk/bread found the extent cached *)
  mutable nmisses : int;  (* extent not cached: created or read in *)
  mutable nevictions : int;  (* buffers reclaimed under space pressure *)
  mutable lru_counter : int;
  space_waiters : Sync.Waitq.t;
  mutable workitems : (unit -> unit) list;  (* reversed *)
  mutable last_io_error : Su_disk.Fault.error option;
  mutable on_io_error : Su_disk.Fault.error -> unit;
      (* health monitor hook: hears every definitive device failure *)
}

let default_hooks () =
  {
    pre_write =
      (fun b -> (Buf.payload b.Buf.content ~nfrags:b.Buf.nfrags, false));
    post_write = (fun _ -> ());
    pre_invalidate = (fun _ -> ());
    verify_fill = None;
  }

let create ~engine ~driver config =
  {
    engine;
    driver;
    config;
    hooks = default_hooks ();
    tbl = Hashtbl.create 4096;
    keys = Su_util.Bitset.create ();
    lru = Su_util.Lru.create ();
    used = 0;
    copies = 0;
    ndirty = 0;
    nio_failures = 0;
    nhits = 0;
    nmisses = 0;
    nevictions = 0;
    lru_counter = 0;
    space_waiters = Sync.Waitq.create engine;
    workitems = [];
    last_io_error = None;
    on_io_error = (fun _ -> ());
  }

let hooks t = t.hooks
let engine t = t.engine
let driver t = t.driver
let dirty_count t = t.ndirty
let used_frags t = t.used
let io_failures t = t.nio_failures
let hits t = t.nhits
let misses t = t.nmisses
let evictions t = t.nevictions
let set_io_error_callback t f = t.on_io_error <- f

let note_io_error t e =
  t.last_io_error <- Some e;
  t.on_io_error e

let emit t ~kind fields =
  match t.config.sink with
  | None -> ()
  | Some sink ->
    Su_obs.Events.emit sink ~t_sim:(Engine.now t.engine) ~kind fields

let emit_buf t ~kind (b : Buf.t) =
  (* build the field list only when a sink is attached: this runs on
     every dirty/clean/fill/evict transition *)
  match t.config.sink with
  | None -> ()
  | Some _ ->
    emit t ~kind
      [ ("lbn", Su_obs.Json.Int b.Buf.key);
        ("nfrags", Su_obs.Json.Int b.Buf.nfrags) ]

let touch t (b : Buf.t) =
  t.lru_counter <- t.lru_counter + 1;
  b.Buf.lru.Su_util.Lru.stamp <- t.lru_counter;
  if b.Buf.valid then begin
    (* fresh maximal stamp: move to the tail, O(1) *)
    Su_util.Lru.remove t.lru b.Buf.lru;
    Su_util.Lru.append t.lru b.Buf.lru
  end

let lookup t lbn = Hashtbl.find_opt t.tbl lbn

let covering t ~span ?(clean = false) frag =
  let rec scan k =
    if k >= span then None
    else
      match Hashtbl.find_opt t.tbl (frag - k) with
      | Some b
        when b.Buf.valid && k < b.Buf.nfrags && not (clean && b.Buf.dirty) ->
        Some b
      | Some _ | None -> scan (k + 1)
  in
  scan 0

let buffer_count t = Hashtbl.length t.tbl
let next_key t k = Su_util.Bitset.next_geq t.keys k

let all_bufs t = Hashtbl.fold (fun _ b acc -> b :: acc) t.tbl []

let set_dirty t (b : Buf.t) v =
  if b.Buf.dirty <> v then begin
    b.Buf.dirty <- v;
    t.ndirty <- t.ndirty + (if v then 1 else -1);
    emit_buf t ~kind:(if v then "cache.dirty" else "cache.clean") b
  end

let bdwrite t b = set_dirty t b true

(* --- write-out ------------------------------------------------------ *)

let finish_write ?(failed = false) t (b : Buf.t) =
  b.Buf.io_count <- b.Buf.io_count - 1;
  if b.Buf.io_count = 0 then begin
    b.Buf.io_locked <- false;
    Sync.Waitq.broadcast b.Buf.lock_waiters;
    let ws = b.Buf.write_waiters in
    b.Buf.write_waiters <- [];
    List.iter (fun w -> Engine.soon t.engine w) ws
  end;
  if failed then begin
    (* the payload never became durable: count it, re-mark the buffer
       dirty so a later flush re-drives it, and skip the post-write
       dependency hook (it assumes the update is on disk — running it
       would let the scheme release ordering constraints early) *)
    t.nio_failures <- t.nio_failures + 1;
    if b.Buf.valid then set_dirty t b true
  end
  else if b.Buf.valid then t.hooks.post_write b;
  Sync.Waitq.signal t.space_waiters

let bawrite ?flagged ?deps ?(sync = false) ?notify t (b : Buf.t) =
  (* The issue-time snapshot occupies real memory until the write
     completes. When snapshots (plus the cache) exceed memory, the
     writer must wait — the paper's observation that block copying
     "does not behave well when system activity exceeds the available
     memory". Only process-context callers can reach this point with
     the budget exhausted (the syncer, scheme hooks, evictions). *)
  if t.config.cb then begin
    let attempts = ref 0 in
    while
      t.copies + b.Buf.nfrags > t.config.capacity_frags
      && Su_sim.Proc.self_opt () <> None
    do
      incr attempts;
      if !attempts > 1_000_000 then
        raise
          (Stuck
             {
               op = "bawrite";
               detail =
                 Printf.sprintf
                   "copy memory never freed (%d snapshot fragments held, \
                    capacity %d)"
                   t.copies t.config.capacity_frags;
               buffers =
                 List.filter_map
                   (fun (b : Buf.t) ->
                     if b.Buf.io_count > 0 then Some (stuck_buffer_of b)
                     else None)
                   (all_bufs t);
             });
      Sync.Waitq.wait t.space_waiters
    done;
    t.copies <- t.copies + b.Buf.nfrags
  end;
  let cells, keep_dirty = t.hooks.pre_write b in
  t.config.copy_cost b.Buf.nfrags;
  let flagged = match flagged with Some f -> f | None -> b.Buf.wflag in
  let deps = match deps with Some d -> d | None -> b.Buf.wdeps in
  b.Buf.wflag <- false;
  b.Buf.wdeps <- [];
  set_dirty t b keep_dirty;
  b.Buf.io_count <- b.Buf.io_count + 1;
  if not t.config.cb then b.Buf.io_locked <- true;
  Su_driver.Driver.submit t.driver ~kind:Su_driver.Request.Write ~lbn:b.Buf.key
    ~nfrags:b.Buf.nfrags ~flagged ~deps ~sync ~payload:cells
    ~on_complete:(fun result ->
      if t.config.cb then begin
        t.copies <- t.copies - b.Buf.nfrags;
        Sync.Waitq.signal t.space_waiters
      end;
      (match result with Error e -> note_io_error t e | Ok _ -> ());
      let failed = Result.is_error result in
      finish_write ~failed t b;
      match notify with
      | Some f -> f (Result.map (fun _ -> ()) result)
      | None -> ())
    ()

let wait_write _t (b : Buf.t) =
  if b.Buf.io_count > 0 then
    Proc.suspend (fun resume ->
        b.Buf.write_waiters <- resume :: b.Buf.write_waiters)

let bwrite_sync t (b : Buf.t) =
  (* Wait for in-flight writes of this buffer first: real systems
     never have two writes of one buffer outstanding on this path, and
     the soft-updates completion bookkeeping relies on single-flight
     metadata writes. *)
  while b.Buf.io_count > 0 do
    wait_write t b
  done;
  let iv : (unit, Su_disk.Fault.error) result Proc.Ivar.t =
    Proc.Ivar.create t.engine
  in
  ignore (bawrite ~sync:true ~notify:(fun r -> Proc.Ivar.fill iv r) t b);
  match Proc.Ivar.read iv with Ok () -> () | Error e -> raise (Io_error e)

let prepare_modify t (b : Buf.t) =
  if not t.config.cb then
    while b.Buf.io_locked do
      Sync.Waitq.wait b.Buf.lock_waiters
    done

(* --- space management ----------------------------------------------- *)

let remove_from_table t (b : Buf.t) =
  if b.Buf.valid then begin
    Su_util.Lru.remove t.lru b.Buf.lru;
    b.Buf.valid <- false;
    Hashtbl.remove t.tbl b.Buf.key;
    Su_util.Bitset.clear t.keys b.Buf.key;
    t.used <- t.used - b.Buf.nfrags;
    if b.Buf.dirty then begin
      b.Buf.dirty <- false;
      t.ndirty <- t.ndirty - 1
    end
  end

let invalidate t (b : Buf.t) =
  if b.Buf.valid then begin
    emit_buf t ~kind:"cache.invalidate" b;
    t.hooks.pre_invalidate b;
    remove_from_table t b;
    Sync.Waitq.signal t.space_waiters
  end

let evictable (b : Buf.t) =
  b.Buf.valid && b.Buf.refcount = 0 && b.Buf.io_count = 0 && not b.Buf.sticky

let pick_victim t =
  (* Prefer the least-recently-used clean buffer; fall back to the
     least-recently-used dirty one (which we must write first). The
     list is in ascending stamp order, so the first evictable clean
     buffer from the head is the LRU one, and the first evictable dirty
     buffer passed on the way is the fallback; busy buffers
     (referenced, in-flight or sticky) are merely stepped over. Once
     every clean buffer has been passed (all but [ndirty] of the
     table: [remove_from_table] uncounts a dirty buffer it drops), the
     fallback found so far is the answer. *)
  let rec walk clean_left fallback = function
    | None -> fallback
    | Some _ when clean_left = 0 && Option.is_some fallback -> fallback
    | Some (n : Buf.t Su_util.Lru.node) ->
      let b = n.Su_util.Lru.value in
      if not b.Buf.dirty then
        if evictable b then Some b else walk (clean_left - 1) fallback n.next
      else
        let fallback =
          if Option.is_none fallback && evictable b then Some b else fallback
        in
        walk clean_left fallback n.next
  in
  walk (Hashtbl.length t.tbl - t.ndirty) None (Su_util.Lru.first t.lru)

let lru_keys t ~dirty =
  List.map
    (fun (b : Buf.t) -> b.Buf.key)
    (Su_util.Lru.filter (fun (b : Buf.t) -> b.Buf.dirty = dirty) t.lru)

let ensure_space t needed =
  let attempts = ref 0 in
  while t.used + needed > t.config.capacity_frags do
    incr attempts;
    if !attempts > 100_000 then
      raise
        (Stuck
           {
             op = "ensure_space";
             detail =
               Printf.sprintf
                 "cannot reclaim %d fragments (used %d of %d, no evictable \
                  buffer)"
                 needed t.used t.config.capacity_frags;
             buffers =
               List.filter_map
                 (fun (b : Buf.t) ->
                   if not (evictable b) then Some (stuck_buffer_of b) else None)
                 (all_bufs t);
           });
    match pick_victim t with
    | None -> Sync.Waitq.wait t.space_waiters
    | Some b ->
      if b.Buf.dirty then begin
        ignore (bawrite t b);
        wait_write t b;
        (* it may have been re-dirtied by a rollback; if so, it stays
           and we try another victim *)
        if (not b.Buf.dirty) && evictable b then begin
          t.nevictions <- t.nevictions + 1;
          emit_buf t ~kind:"cache.evict" b;
          invalidate t b
        end
      end
      else begin
        t.nevictions <- t.nevictions + 1;
        emit_buf t ~kind:"cache.evict" b;
        invalidate t b
      end
  done

(* --- lookup / read --------------------------------------------------- *)

let new_buf t ~lbn ~nfrags content =
  let lock_waiters = Sync.Waitq.create t.engine in
  let rec b =
    {
      Buf.key = lbn;
      nfrags;
      content;
      dirty = false;
      io_count = 0;
      io_locked = false;
      valid = true;
      refcount = 1;
      lru = { Su_util.Lru.value = b; stamp = 0; prev = None; next = None; in_list = false };
      wflag = false;
      wdeps = [];
      aux = None;
      sticky = false;
      syncer_marked = false;
      lock_waiters;
      write_waiters = [];
    }
  in
  touch t b;
  Hashtbl.replace t.tbl lbn b;
  Su_util.Bitset.set t.keys lbn;
  t.used <- t.used + nfrags;
  emit_buf t ~kind:"cache.fill" b;
  b

let getblk t ~lbn ~nfrags ~init =
  match Hashtbl.find_opt t.tbl lbn with
  | Some b ->
    if b.Buf.nfrags <> nfrags then
      invalid_arg
        (Printf.sprintf "Bcache.getblk: extent mismatch at %d (%d vs %d)" lbn
           b.Buf.nfrags nfrags);
    t.nhits <- t.nhits + 1;
    b.Buf.refcount <- b.Buf.refcount + 1;
    touch t b;
    b
  | None ->
    t.nmisses <- t.nmisses + 1;
    ensure_space t nfrags;
    new_buf t ~lbn ~nfrags (init ())

let bread t ~lbn ~nfrags =
  match Hashtbl.find_opt t.tbl lbn with
  | Some b ->
    if b.Buf.nfrags <> nfrags then
      invalid_arg
        (Printf.sprintf "Bcache.bread: extent mismatch at %d (%d vs %d)" lbn
           b.Buf.nfrags nfrags);
    t.nhits <- t.nhits + 1;
    b.Buf.refcount <- b.Buf.refcount + 1;
    touch t b;
    b
  | None ->
    t.nmisses <- t.nmisses + 1;
    ensure_space t nfrags;
    let cells =
      match
        Su_driver.Driver.submit_wait t.driver ~kind:Su_driver.Request.Read ~lbn
          ~nfrags ~sync:true ()
      with
      | Ok (Some cells) -> cells
      | Ok None -> invalid_arg "Bcache.bread: read returned no data"
      | Error e ->
        note_io_error t e;
        raise (Io_error e)
    in
    (* another process may have created the buffer while we waited *)
    (match Hashtbl.find_opt t.tbl lbn with
     | Some b ->
       b.Buf.refcount <- b.Buf.refcount + 1;
       touch t b;
       b
     | None ->
       (* verify the fill end-to-end before the cells become cached
          truth; the hook may re-read, repair, or raise a typed
          checksum error (it runs in this process's context) *)
       let cells =
         match t.hooks.verify_fill with
         | None -> cells
         | Some verify ->
           (try verify ~lbn cells
            with Io_error e as exn ->
              note_io_error t e;
              raise exn)
       in
       (match Hashtbl.find_opt t.tbl lbn with
        | Some b ->
          b.Buf.refcount <- b.Buf.refcount + 1;
          touch t b;
          b
        | None -> new_buf t ~lbn ~nfrags (Buf.of_cells cells)))

let release t (b : Buf.t) =
  if b.Buf.refcount <= 0 then invalid_arg "Bcache.release: not referenced";
  b.Buf.refcount <- b.Buf.refcount - 1;
  touch t b;
  if b.Buf.refcount = 0 then Sync.Waitq.signal t.space_waiters

let set_extent t (b : Buf.t) ~nfrags content =
  t.used <- t.used - b.Buf.nfrags + nfrags;
  b.Buf.nfrags <- nfrags;
  b.Buf.content <- content

(* --- workitems ------------------------------------------------------- *)

let add_workitem t f = t.workitems <- f :: t.workitems

let take_workitems t =
  let items = List.rev t.workitems in
  t.workitems <- [];
  items

(* --- full flush ------------------------------------------------------ *)

let sync_all t =
  let rounds = ref 0 in
  let stalled = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    if !rounds > 1000 then
      raise
        (Stuck
           {
             op = "sync_all";
             detail =
               Printf.sprintf
                 "no convergence after %d rounds (%d dirty buffers, %d queued \
                  workitems, %d failed writes)"
                 !rounds t.ndirty
                 (List.length t.workitems)
                 t.nio_failures;
             buffers =
               List.map stuck_buffer_of
                 (Su_util.Lru.filter (fun (b : Buf.t) -> b.Buf.dirty) t.lru);
           });
    let dirty0 = t.ndirty and fail0 = t.nio_failures in
    List.iter (fun item -> item ()) (take_workitems t);
    (* the recency list holds exactly the valid buffers in LRU
       (ascending stamp) order; snapshot its dirty ones, skipping
       buffers with a write already in flight *)
    let dirty =
      Su_util.Lru.filter
        (fun (b : Buf.t) -> b.Buf.dirty && b.Buf.io_count = 0)
        t.lru
    in
    List.iter
      (fun b ->
        ignore (bawrite t b);
        wait_write t b)
      dirty;
    Su_driver.Driver.quiesce t.driver;
    continue_ := t.ndirty > 0 || t.workitems <> [];
    (* A dirty set pinned in place by definitive device failures is a
       permanent fault (remap pool exhausted or no spares), not a
       dependency cycle: surface the typed device error instead of
       spinning toward the [Stuck] round limit. Three consecutive
       zero-progress failing rounds ≈ 15 device attempts per buffer —
       a transient blip cannot survive that. *)
    if !continue_ then
      if t.nio_failures > fail0 && t.ndirty >= dirty0 then begin
        incr stalled;
        if !stalled >= 3 then
          raise
            (Io_error
               (match t.last_io_error with
                | Some e -> e
                | None -> Su_disk.Fault.Transient { op = `Write; lbn = -1 }))
      end
      else stalled := 0
  done
