open Su_fstypes
open Su_cache

type commit_mode = Sync_commit | Group_commit

type stats = {
  mutable txns : int;
  mutable records : int;
  mutable log_writes : int;
  mutable wraps : int;
}

type t = {
  cache : Bcache.t;
  geom : Geom.t;
  log_start : int;
  log_frags : int;
  mode : commit_mode;
  stats : stats;
  mutable cursor : int;  (* next log fragment, relative *)
  mutable seq : int;
  mutable pending : Types.jrec list;  (* reversed; group mode *)
  mutable guarded : Buf.t list;
      (* metadata buffers with uncommitted records: pinned so an
         eviction cannot write them ahead of their log records *)
  mutable failed : Su_disk.Fault.error option;
      (* a group-commit log write the driver failed after its retries:
         its batch never became durable, so the next commit or fsync
         raises it *)
}

let recs_per_frag = 24  (* a 1 KB log sector holds about this many records *)

(* Append one committed transaction fragment. [on_durable] runs in
   completion context when the log write finishes (the pins it releases
   must drop before the waiter wakes). With [wait] the caller blocks
   until then, and a write the driver failed after its retries raises
   [Bcache.Io_error], as [Bcache.bwrite_sync] does: the commit is not
   durable. *)
let append_frag ?(on_durable = ignore) t recs ~wait =
  if t.cursor >= t.log_frags then begin
    (* wrap-around checkpoint: flush everything so older records are
       redundant before we overwrite them *)
    t.stats.wraps <- t.stats.wraps + 1;
    Bcache.sync_all t.cache;
    t.cursor <- 0
  end;
  t.seq <- t.seq + 1;
  t.stats.log_writes <- t.stats.log_writes + 1;
  let lbn = t.log_start + t.cursor in
  t.cursor <- t.cursor + 1;
  let payload = [| Types.Jlog { seq = t.seq; recs } |] in
  let driver = Bcache.driver t.cache in
  if wait then (
    match
      Su_driver.Driver.submit_wait driver ~kind:Su_driver.Request.Write ~lbn
        ~nfrags:1 ~sync:true ~payload ~on_complete:on_durable ()
    with
    | Ok _ -> ()
    | Error e -> raise (Bcache.Io_error e))
  else
    ignore
      (Su_driver.Driver.submit driver ~kind:Su_driver.Request.Write ~lbn
         ~nfrags:1 ~payload ~on_complete:on_durable ())

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take i acc rest =
      if i = 0 then (List.rev acc, rest)
      else match rest with [] -> (List.rev acc, []) | x :: r -> take (i - 1) (x :: acc) r
    in
    let c, rest = take n [] l in
    c :: chunks n rest

(* Raise a failed group-commit batch's error, once. *)
let raise_failed t =
  match t.failed with
  | Some e ->
    t.failed <- None;
    raise (Bcache.Io_error e)
  | None -> ()

let commit t ?(bufs = []) recs =
  raise_failed t;
  if recs <> [] then begin
    t.stats.txns <- t.stats.txns + 1;
    t.stats.records <- t.stats.records + List.length recs;
    match t.mode with
    | Sync_commit ->
      List.iter (fun c -> append_frag t c ~wait:true) (chunks recs_per_frag recs)
    | Group_commit ->
      t.pending <- List.rev_append recs t.pending;
      List.iter
        (fun (b : Buf.t) ->
          if not b.Buf.sticky then begin
            b.Buf.sticky <- true;
            t.guarded <- b :: t.guarded
          end)
        bufs
  end

(* Write the pending records as one batch. A batch write that fails
   keeps the batch's buffers pinned. Unless the caller waits for the
   batch, the error is held for the next commit or fsync to raise: the
   flusher that issued it has no caller to tell. *)
let flush_pending t ~wait =
  let guarded = t.guarded in
  t.guarded <- [];
  let ok = ref true in
  let note = function
    | Ok _ -> ()
    | Error e ->
      ok := false;
      if t.failed = None then t.failed <- Some e
  in
  let release () = List.iter (fun (b : Buf.t) -> b.Buf.sticky <- false) guarded in
  let rec append = function
    | [] -> release ()
    | [ last ] ->
      (* release the pins once the whole batch is durable *)
      append_frag t last ~wait ~on_durable:(fun r ->
          note r;
          if !ok then release ())
    | c :: rest ->
      append_frag t c ~wait:false ~on_durable:note;
      append rest
  in
  let recs = List.rev t.pending in
  t.pending <- [];
  try append (chunks recs_per_frag recs)
  with Bcache.Io_error _ as e when wait ->
    (* the waiting caller has the error already *)
    t.failed <- None;
    raise e

(* --- record extraction -------------------------------------------------- *)

let dinode_rec t (ibuf : Buf.t) inum =
  match ibuf.Buf.content with
  | Buf.Cmeta (Types.Inodes dinodes) ->
    let din = dinodes.(Geom.inode_index_in_block t.geom inum) in
    Types.J_dinode { inum; din = Types.copy_dinode din }
  | Buf.Cmeta _ | Buf.Cdata _ -> invalid_arg "Journaled: bad inode block"

let entry_rec (dir : Buf.t) slot =
  match dir.Buf.content with
  | Buf.Cmeta (Types.Dir entries) ->
    Types.J_entry { blk = dir.Buf.key; slot; entry = entries.(slot) }
  | Buf.Cmeta _ | Buf.Cdata _ -> invalid_arg "Journaled: bad directory block"

(* --- recovery ------------------------------------------------------------ *)

(* Replay mutates the image copy-on-write through [Imglog.write]: each
   touched block gets one private working copy (the current cell
   deep-copied, or a fresh block if it was never written), records are
   applied to the copies in sequence order, and a flush installs the
   copies — an identical result is dropped entirely. Replaying the same
   record twice is therefore both harmless and silent, which is what
   lets recovery be re-entered over its own partial effects.

   The flush policy sets the write stream an observer sees. Observed,
   recovery flushes after every record, so each record is its own
   write boundary for the crash-state explorer to re-crash at.
   Unobserved, it flushes once after the last record: a block is
   copied and compared once, not once per record that touches it. *)
let recover ?observer ~geom ~log_start ~log_frags image =
  let txns = ref [] in
  for i = 0 to log_frags - 1 do
    if log_start + i < Array.length image then
      match image.(log_start + i) with
      | Types.Jlog { seq; recs } -> txns := (seq, recs, log_start + i) :: !txns
      | _ -> ()
  done;
  let txns = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !txns in
  let work : (int, Types.meta) Hashtbl.t = Hashtbl.create 64 in
  let block blk fresh =
    match Hashtbl.find_opt work blk with
    | Some m -> m
    | None ->
      let m =
        match image.(blk) with
        | Types.Meta m -> Types.copy_meta m
        | Types.Empty | Types.Pad | Types.Frag _ | Types.Jlog _ | Types.Rmap _
        | Types.Csum _ ->
          fresh ()
      in
      Hashtbl.replace work blk m;
      m
  in
  let flush () =
    Hashtbl.fold (fun blk _ acc -> blk :: acc) work []
    |> List.sort Int.compare
    |> List.iter (fun blk ->
           Imglog.write ?observer image blk (Types.Meta (Hashtbl.find work blk)));
    Hashtbl.reset work
  in
  let apply = function
    | Types.J_dinode { inum; din } -> (
      match
        block (Geom.inode_block_frag geom inum) (fun () ->
            Types.fresh_inode_block geom)
      with
      | Types.Inodes dinodes ->
        dinodes.(Geom.inode_index_in_block geom inum) <- Types.copy_dinode din
      | _ -> ())
    | Types.J_entry { blk; slot; entry } -> (
      match block blk (fun () -> Types.Dir (Types.fresh_dir_block geom)) with
      | Types.Dir entries -> entries.(slot) <- entry
      | _ -> ())
    | Types.J_dir_init { blk } ->
      (* the block is brand new: reset it, wiping any stale contents
         from an earlier life (the same transaction re-adds the current
         entries) *)
      Hashtbl.replace work blk (Types.Dir (Types.fresh_dir_block geom))
    | Types.J_ind_init { blk } ->
      Hashtbl.replace work blk (Types.Indirect (Types.fresh_indirect geom))
    | Types.J_ind_set { blk; slot; ptr } -> (
      match block blk (fun () -> Types.Indirect (Types.fresh_indirect geom)) with
      | Types.Indirect arr -> arr.(slot) <- ptr
      | _ -> ())
  in
  List.iter
    (fun (_, recs, _) ->
      List.iter
        (fun r ->
          apply r;
          if Option.is_some observer then flush ())
        recs)
    txns;
  flush ();
  (* recovery is a checkpoint: every replayed record is now reflected
     in the metadata blocks, so retire the log. Leaving records behind
     would corrupt the next mount — its journal restarts at sequence
     zero, so the stale records (with higher sequence numbers) would
     replay on top of the new mount's transactions. Retirement runs
     oldest sequence first (after a wrap-around the cursor position
     order differs!): if retirement is itself interrupted, the
     surviving suffix holds only the newest records, whose absolute
     post-images re-apply as no-ops — never stale ones that would
     regress metadata already overwritten by a newer transaction. *)
  List.iter
    (fun (_, _, frag) ->
      match image.(frag) with
      | Types.Jlog _ -> Imglog.write ?observer image frag Types.Empty
      | _ -> ())
    txns

(* --- the scheme ----------------------------------------------------------- *)

(* group-commit flush period, seconds *)
let group_interval = 0.25

let make ~cache ~geom ~log_start ~log_frags ~mode =
  let stats = { txns = 0; records = 0; log_writes = 0; wraps = 0 } in
  let t =
    { cache; geom; log_start; log_frags; mode; stats; cursor = 0; seq = 0;
      pending = []; guarded = []; failed = None }
  in
  let stopped = ref false in
  (match mode with
   | Group_commit ->
     let engine = Bcache.engine cache in
     let rec flusher () =
       Su_sim.Proc.sleep engine group_interval;
       if not !stopped then begin
         flush_pending t ~wait:false;
         flusher ()
       end
     in
     ignore (Su_sim.Proc.spawn engine ~name:"jflush" flusher)
   | Sync_commit -> ());
  let stop () =
    stopped := true;
    flush_pending t ~wait:false
  in
  let scheme =
    {
      Scheme_intf.name =
        (match mode with
         | Sync_commit -> "Journaled"
         | Group_commit -> "Journaled (group commit)");
      link_add =
        (fun ~dir ~slot ~ibuf ~inum ->
          commit t ~bufs:[ dir; ibuf ]
            [ dinode_rec t ibuf inum; entry_rec dir slot ]);
      link_remove =
        (fun ~dir ~slot ~inum ~ibuf ~parent_inum ~parent_ibuf ~decrement ->
          (* write-ahead discipline: the entry deletion must be
             durable before the de-allocation records that [decrement]
             commits (block_dealloc logs the cleared dinode); a crash
             between them must not leave a logged-free inode behind a
             still-logged name *)
          commit t ~bufs:[ dir ]
            [ Types.J_entry { blk = dir.Buf.key; slot; entry = None } ];
          let parent_before = dinode_rec t parent_ibuf parent_inum in
          decrement ();
          (* rmdir's decrement also drops the parent's count (its lost
             ".."): re-log the parent's dinode whenever the decrement
             changed it, or replay would resurrect the stale count *)
          let parent_after = dinode_rec t parent_ibuf parent_inum in
          let recs =
            if parent_after <> parent_before && parent_inum <> inum then
              [ parent_after; dinode_rec t ibuf inum ]
            else [ dinode_rec t ibuf inum ]
          in
          let bufs =
            if parent_after <> parent_before && parent_inum <> inum then
              [ parent_ibuf; ibuf ]
            else [ ibuf ]
          in
          commit t ~bufs recs);
      link_change =
        (fun ~dir ~slot ~ibuf ~inum ~old_entry ~old_ibuf ~decrement ->
          (* the change (new target's inode + rewritten entry) is one
             transaction; the old target's decrement is logged after
             it, so replay always lands on one side of the swap *)
          commit t ~bufs:[ dir; ibuf ]
            [ dinode_rec t ibuf inum; entry_rec dir slot ];
          decrement ();
          commit t ~bufs:[ old_ibuf ]
            [ dinode_rec t old_ibuf old_entry.Types.inum ]);
      attr_update =
        (fun ~ibuf ~inum ->
          (* an append that fit inside already-allocated fragments:
             no alloc record will carry the new size, so the dinode
             must be re-logged or replay rolls the size back to its
             last logged value *)
          commit t ~bufs:[ ibuf ] [ dinode_rec t ibuf inum ]);
      (* the dots land as J_dir_init/J_entry records in the same log
         stream as the parent entry; replay reconstructs them *)
      mkdir_body = (fun ~body:_ ~inum:_ -> ());
      block_alloc =
        (fun req ->
          let init_recs =
            if req.Scheme_intf.init_required then begin
              let blk = req.Scheme_intf.data.Buf.key in
              match req.Scheme_intf.data.Buf.content with
              | Buf.Cmeta (Types.Dir entries) ->
                (* reset-and-restate: the init wipes stale contents
                   from the block's earlier lives, then re-adds the
                   entries it currently holds *)
                Types.J_dir_init { blk }
                :: (Array.to_list
                      (Array.mapi
                         (fun slot entry -> Types.J_entry { blk; slot; entry })
                         entries)
                   |> List.filter (function
                        | Types.J_entry { entry = Some _; _ } -> true
                        | _ -> false))
              | Buf.Cmeta (Types.Indirect arr) ->
                Types.J_ind_init { blk }
                :: (Array.to_list
                      (Array.mapi
                         (fun slot ptr -> Types.J_ind_set { blk; slot; ptr })
                         arr)
                   |> List.filter (function
                        | Types.J_ind_set { ptr; _ } -> ptr <> 0
                        | _ -> false))
              | Buf.Cmeta _ | Buf.Cdata _ -> []
            end
            else []
          in
          let ptr_rec =
            match req.Scheme_intf.loc with
            | Scheme_intf.P_ind slot ->
              Types.J_ind_set
                { blk = req.Scheme_intf.owner.Buf.key; slot;
                  ptr = req.Scheme_intf.new_ptr }
            | Scheme_intf.P_direct _ | Scheme_intf.P_ib1 | Scheme_intf.P_ib2 ->
              dinode_rec t req.Scheme_intf.owner req.Scheme_intf.inum
          in
          req.Scheme_intf.free_moved ();
          commit t
            ~bufs:[ req.Scheme_intf.owner; req.Scheme_intf.data ]
            (init_recs @ [ ptr_rec ]));
      block_dealloc =
        (fun ~ibuf ~inum ~runs:_ ~inode_freed:_ ~do_free ->
          do_free ();
          commit t ~bufs:[ ibuf ] [ dinode_rec t ibuf inum ]);
      reuse_frag_deps = (fun _ -> []);
      reuse_inode_deps = (fun _ -> []);
      fsync =
        (fun ~inum:_ ~ibuf:_ ->
          (* all metadata redo lives in the log: committing it is
             enough to make the file durable *)
          match t.mode with
          | Sync_commit -> ()
          | Group_commit ->
            raise_failed t;
            flush_pending t ~wait:true);
    }
  in
  (scheme, stats, stop)
