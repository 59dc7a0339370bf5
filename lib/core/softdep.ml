open Su_fstypes
open Su_cache

type stats = {
  mutable created : int;
  mutable rollbacks : int;
  mutable cancelled_adds : int;
  mutable workitems : int;
  mutable live_deps : int;
  mutable peak_live_deps : int;
  dep_lifetimes : Su_obs.Hist.t;
}

(* An allocdirect or allocindirect. *)
type alloc = {
  a_inum : int;
  a_loc : Scheme_intf.ptr_loc;
  a_owner_key : int;  (* lbn of the owning inode/indirect block *)
  mutable a_new_ptr : int;
  mutable a_old_ptr : int;
  mutable a_new_size : int;
  mutable a_old_size : int;
  mutable a_data_key : int;  (* lbn of the newly allocated extent *)
  mutable a_data_done : bool;  (* extent contents are on disk *)
  mutable a_included : bool;  (* pointer is in the in-flight owner write *)
  mutable a_free_moved : (unit -> unit) list;
      (* deferred frees of extents vacated by fragment moves *)
}

type diradd = {
  d_dir_key : int;
  d_slot : int;
  d_inum : int;
  d_old : Types.dirent option;
      (* what write-time rollback restores while the inode is not yet
         durable: [None] for a plain addition (clear the slot), [Some]
         for an in-place change (re-instate the old entry — BSD
         softdep's DIRCHG; the slot must never be written empty) *)
  mutable d_covered : bool;  (* inode is in the in-flight inode-block write *)
  mutable d_pending : int;
      (* prerequisites outstanding before the entry may roll forward:
         the target inode's write, plus — when the target is a fresh
         directory — its dots block written in full form *)
}

type dirrem = {
  r_decrement : unit -> unit;
  r_slot : int;
  mutable r_covered : bool;  (* removal is in the in-flight dir write *)
  mutable r_guard : diradd option;
      (* an entry change's removal half: the old target loses its
         reference only when the slot is written in its *new* form, so
         the decrement stays pending while the guarding diradd still
         rolls the slot back to the old entry *)
}

type freework = {
  f_actions : (unit -> unit) list;  (* frees + detached dir completions *)
  mutable f_covered : bool;  (* reset pointers are in the in-flight write *)
}

(* BSD softdep's MKDIR_BODY: a fresh directory's first block must be
   on disk with its dots in full form before any entry that makes the
   directory reachable. Entries gated on the body keep rolling back
   (an extra [d_pending] prerequisite) until a write of the body block
   lands with none of [bd_dots] rolled back. *)
type body = {
  bd_inum : int;  (* the new directory *)
  mutable bd_dots : diradd list;
      (* the dots adds that must have rolled forward (just ".."; "."
         carries no dependency) — re-pointed if a rename re-targets
         ".." while it is still pending *)
  mutable bd_waiters : diradd list;  (* entries gated on this body *)
  mutable bd_covered : bool;  (* the in-flight write carries full dots *)
}

type inodedep = {
  i_inum : int;
  i_birth : float;  (* simulated time the record was allocated *)
  mutable i_allocs : alloc list;
  mutable i_waiting_adds : diradd list;  (* diradds waiting for this inode *)
  mutable i_freework : freework list;
  mutable i_body : body option;  (* this inode's dots block, until durable *)
}

type pagedep = {
  p_birth : float;
  mutable p_adds : diradd list;
  mutable p_rems : dirrem list;
  mutable p_body : body option;  (* this block is a fresh directory's body *)
}

type indirdep = {
  n_birth : float;
  n_safe : int array;  (* on-disk-consistent pointer copy *)
  mutable n_allocs : alloc list;
}

type t = {
  cache : Bcache.t;
  geom : Geom.t;
  stats : stats;
  inodedeps : (int, inodedep) Hashtbl.t;  (* by inum *)
  pagedeps : (int, pagedep) Hashtbl.t;  (* by directory block lbn *)
  indirdeps : (int, indirdep) Hashtbl.t;  (* by indirect block lbn *)
  allocs_by_data : (int, alloc list) Hashtbl.t;  (* by new-extent lbn *)
}

let now t = Su_sim.Engine.now (Bcache.engine t.cache)

(* Aggregate dependency-record lifetime accounting: a record is born
   when first needed and retired when its last constituent clears —
   the residency the paper's §5 memory-overhead discussion cares
   about. Pure accumulation; never touches simulated time. *)
let dep_born t =
  t.stats.live_deps <- t.stats.live_deps + 1;
  if t.stats.live_deps > t.stats.peak_live_deps then
    t.stats.peak_live_deps <- t.stats.live_deps

let dep_retired t birth =
  t.stats.live_deps <- t.stats.live_deps - 1;
  Su_obs.Hist.add t.stats.dep_lifetimes (now t -. birth)

let get_inodedep t inum =
  match Hashtbl.find_opt t.inodedeps inum with
  | Some d -> d
  | None ->
    let d =
      { i_inum = inum; i_birth = now t; i_allocs = []; i_waiting_adds = [];
        i_freework = []; i_body = None }
    in
    dep_born t;
    Hashtbl.replace t.inodedeps inum d;
    d

let get_pagedep t key =
  match Hashtbl.find_opt t.pagedeps key with
  | Some p -> p
  | None ->
    let p = { p_birth = now t; p_adds = []; p_rems = []; p_body = None } in
    dep_born t;
    Hashtbl.replace t.pagedeps key p;
    p

let remove_inodedep t (d : inodedep) =
  if Hashtbl.mem t.inodedeps d.i_inum then begin
    Hashtbl.remove t.inodedeps d.i_inum;
    dep_retired t d.i_birth
  end

let remove_pagedep t key (p : pagedep) =
  if Hashtbl.mem t.pagedeps key then begin
    Hashtbl.remove t.pagedeps key;
    dep_retired t p.p_birth
  end

let remove_indirdep t key =
  match Hashtbl.find_opt t.indirdeps key with
  | None -> ()
  | Some n ->
    Hashtbl.remove t.indirdeps key;
    dep_retired t n.n_birth

let drop_inodedep_if_empty t (d : inodedep) =
  if
    d.i_allocs = [] && d.i_waiting_adds = [] && d.i_freework = []
    && d.i_body = None
  then remove_inodedep t d

let drop_pagedep_if_empty t key (p : pagedep) =
  if p.p_adds = [] && p.p_rems = [] && p.p_body = None then
    remove_pagedep t key p

let enqueue t action =
  t.stats.workitems <- t.stats.workitems + 1;
  Bcache.add_workitem t.cache action

(* ---------- write-time undo (pre_write hook) ------------------------- *)

let first_inum_of_inode_block t key =
  let g = t.geom in
  let c = Geom.cg_of_frag g key in
  let area_first, _ = Geom.cg_inode_area g c in
  let blk = (key - area_first) / g.Geom.frags_per_block in
  Geom.first_inum_of_cg g c + (blk * g.Geom.inodes_per_block)

let apply_ptr_undo (din : Types.dinode) (a : alloc) =
  match a.a_loc with
  | Scheme_intf.P_direct i -> din.Types.db.(i) <- a.a_old_ptr
  | Scheme_intf.P_ib1 -> din.Types.ib <- a.a_old_ptr
  | Scheme_intf.P_ib2 -> din.Types.ib2 <- a.a_old_ptr
  | Scheme_intf.P_ind _ -> invalid_arg "Softdep: indirect alloc on inodedep"

(* The payload shares the buffer's dinodes (Types slot invariant); a
   slot is copied on its first rollback, so the buffer's own dinodes
   are never touched. *)
let pre_write_inodes t (b : Buf.t) (dinodes : Types.dinode array) =
  let copy = Array.copy dinodes in
  let rolled = ref false in
  let base = first_inum_of_inode_block t b.Buf.key in
  Array.iteri
    (fun idx _ ->
      match Hashtbl.find_opt t.inodedeps (base + idx) with
      | None -> ()
      | Some dep ->
        let undo () =
          if copy.(idx) == dinodes.(idx) then
            copy.(idx) <- Types.copy_dinode dinodes.(idx);
          copy.(idx)
        in
        let rolled_size = ref max_int in
        List.iter
          (fun a ->
            if a.a_data_done then a.a_included <- true
            else begin
              a.a_included <- false;
              apply_ptr_undo (undo ()) a;
              if a.a_old_size < !rolled_size then rolled_size := a.a_old_size;
              rolled := true;
              t.stats.rollbacks <- t.stats.rollbacks + 1
            end)
          dep.i_allocs;
        if !rolled_size < copy.(idx).Types.size then
          (undo ()).Types.size <- !rolled_size;
        List.iter (fun d -> d.d_covered <- true) dep.i_waiting_adds;
        List.iter (fun f -> f.f_covered <- true) dep.i_freework)
    copy;
  (Types.Inodes copy, !rolled)

let pre_write_dir t (b : Buf.t) (entries : Types.dirent option array) =
  match Hashtbl.find_opt t.pagedeps b.Buf.key with
  | None -> (Types.Dir (Array.copy entries), false)
  | Some p ->
    let copy = Array.copy entries in
    let rolled = ref false in
    (* does this write carry the dots in full form? (a dots add still
       in p_adds is about to be rolled back below) *)
    (match p.p_body with
     | Some bd ->
       bd.bd_covered <-
         List.for_all (fun a -> not (List.memq a p.p_adds)) bd.bd_dots
     | None -> ());
    List.iter
      (fun (d : diradd) ->
        copy.(d.d_slot) <- d.d_old;
        rolled := true;
        t.stats.rollbacks <- t.stats.rollbacks + 1)
      p.p_adds;
    List.iter
      (fun (r : dirrem) ->
        match r.r_guard with
        | Some g when List.memq g p.p_adds ->
          (* the guarding change was just rolled back to its old form:
             the old target is still referenced by this write *)
          ()
        | Some _ | None -> r.r_covered <- true)
      p.p_rems;
    (Types.Dir copy, !rolled)

(* Each arm builds its own private (rolled-back) block, which becomes
   the payload without a second copy. *)
let pre_write t (b : Buf.t) =
  let wrap (m, keep_dirty) = (Buf.meta_cells m ~nfrags:b.Buf.nfrags, keep_dirty) in
  match b.Buf.content with
  | Buf.Cmeta (Types.Inodes dinodes) -> wrap (pre_write_inodes t b dinodes)
  | Buf.Cmeta (Types.Dir entries) -> wrap (pre_write_dir t b entries)
  | Buf.Cmeta (Types.Indirect actual) ->
    (match Hashtbl.find_opt t.indirdeps b.Buf.key with
     | None -> wrap (Types.Indirect (Array.copy actual), false)
     | Some n ->
       (* the safe copy is the write source (appendix) *)
       wrap (Types.Indirect (Array.copy n.n_safe), n.n_allocs <> []))
  | Buf.Cmeta _ | Buf.Cdata _ ->
    (Buf.payload b.Buf.content ~nfrags:b.Buf.nfrags, false)

(* ---------- completion processing (post_write hook) ------------------ *)

let remove_alloc_from_owner t (a : alloc) =
  match a.a_loc with
  | Scheme_intf.P_ind slot ->
    (match Hashtbl.find_opt t.indirdeps a.a_owner_key with
     | None -> ()
     | Some n ->
       n.n_safe.(slot) <- a.a_new_ptr;
       n.n_allocs <- List.filter (fun x -> x != a) n.n_allocs;
       if n.n_allocs = [] then begin
         remove_indirdep t a.a_owner_key;
         match Bcache.lookup t.cache a.a_owner_key with
         | Some ob -> ob.Buf.sticky <- false
         | None -> ()
       end)
  | Scheme_intf.P_direct _ | Scheme_intf.P_ib1 | Scheme_intf.P_ib2 ->
    (match Hashtbl.find_opt t.inodedeps a.a_inum with
     | None -> ()
     | Some dep ->
       dep.i_allocs <- List.filter (fun x -> x != a) dep.i_allocs;
       drop_inodedep_if_empty t dep)

let data_write_done t key =
  match Hashtbl.find_opt t.allocs_by_data key with
  | None -> ()
  | Some allocs ->
    Hashtbl.remove t.allocs_by_data key;
    List.iter
      (fun a ->
        a.a_data_done <- true;
        match a.a_loc with
        | Scheme_intf.P_ind _ ->
          (* allocindirect: merge into the safe copy; done *)
          remove_alloc_from_owner t a;
          List.iter (fun f -> enqueue t f) a.a_free_moved
        | Scheme_intf.P_direct _ | Scheme_intf.P_ib1 | Scheme_intf.P_ib2 -> ())
      allocs

let complete_diradd t (d : diradd) =
  (* every prerequisite is on disk (or the add was cancelled): stop
     rolling the entry back *)
  d.d_pending <- 0;
  (match Hashtbl.find_opt t.pagedeps d.d_dir_key with
   | None -> ()
   | Some p ->
     p.p_adds <- List.filter (fun x -> x != d) p.p_adds;
     drop_pagedep_if_empty t d.d_dir_key p);
  match Hashtbl.find_opt t.inodedeps d.d_inum with
  | None -> ()
  | Some dep ->
    dep.i_waiting_adds <- List.filter (fun x -> x != d) dep.i_waiting_adds;
    drop_inodedep_if_empty t dep

let satisfy_diradd t (d : diradd) =
  (* one prerequisite became durable; completion at zero. Cancelled
     adds (pending already zero) are left alone. *)
  if d.d_pending > 0 then begin
    d.d_pending <- d.d_pending - 1;
    if d.d_pending = 0 then complete_diradd t d
  end

let gate_on_body t (d : diradd) =
  (* an entry naming a fresh directory also waits for that
     directory's body (its dots block, written in full form) *)
  match Hashtbl.find_opt t.inodedeps d.d_inum with
  | Some { i_body = Some bd; _ } ->
    d.d_pending <- d.d_pending + 1;
    bd.bd_waiters <- d :: bd.bd_waiters
  | Some { i_body = None; _ } | None -> ()

let body_durable t (bd : body) =
  (* the dots block reached the disk in full form: release the gated
     entries and forget the body (dots never regress) *)
  List.iter (satisfy_diradd t) bd.bd_waiters;
  bd.bd_waiters <- [];
  match Hashtbl.find_opt t.inodedeps bd.bd_inum with
  | None -> ()
  | Some dep ->
    (match dep.i_body with
     | Some x when x == bd ->
       dep.i_body <- None;
       drop_inodedep_if_empty t dep
     | Some _ | None -> ())

let post_write_inodes t (b : Buf.t) (dinodes : Types.dinode array) =
  let base = first_inum_of_inode_block t b.Buf.key in
  Array.iteri
    (fun idx _ ->
      match Hashtbl.find_opt t.inodedeps (base + idx) with
      | None -> ()
      | Some dep ->
        (* completed allocdirects: pointer and contents both on disk *)
        let done_allocs, pending =
          List.partition (fun a -> a.a_included && a.a_data_done) dep.i_allocs
        in
        dep.i_allocs <- pending;
        List.iter
          (fun a -> List.iter (fun f -> enqueue t f) a.a_free_moved)
          done_allocs;
        (* diradds covered by this write: the inode is now stable
           (and stays stable — the prerequisite fires exactly once) *)
        let covered_adds, waiting =
          List.partition (fun (d : diradd) -> d.d_covered) dep.i_waiting_adds
        in
        dep.i_waiting_adds <- waiting;
        List.iter (satisfy_diradd t) covered_adds;
        (* freework covered by this write: reset pointers are stable *)
        let done_free, pending_free =
          List.partition (fun f -> f.f_covered) dep.i_freework
        in
        dep.i_freework <- pending_free;
        List.iter
          (fun f -> List.iter (fun act -> enqueue t act) f.f_actions)
          done_free;
        drop_inodedep_if_empty t dep)
    dinodes

let post_write_dir t (b : Buf.t) =
  match Hashtbl.find_opt t.pagedeps b.Buf.key with
  | None -> ()
  | Some p ->
    let done_rems, pending_rems =
      List.partition (fun r -> r.r_covered) p.p_rems
    in
    p.p_rems <- pending_rems;
    List.iter (fun r -> enqueue t r.r_decrement) done_rems;
    (match p.p_body with
     | Some bd when bd.bd_covered ->
       p.p_body <- None;
       body_durable t bd
     | Some _ | None -> ());
    drop_pagedep_if_empty t b.Buf.key p

let post_write t (b : Buf.t) =
  data_write_done t b.Buf.key;
  match b.Buf.content with
  | Buf.Cmeta (Types.Inodes dinodes) -> post_write_inodes t b dinodes
  | Buf.Cmeta (Types.Dir _) -> post_write_dir t b
  | Buf.Cmeta _ | Buf.Cdata _ -> ()

(* ---------- invalidation ---------------------------------------------- *)

let pre_invalidate t (b : Buf.t) =
  (* Deallocation purges dependencies before buffers are invalidated;
     this is a defensive sweep for stragglers. *)
  Hashtbl.remove t.allocs_by_data b.Buf.key;
  match b.Buf.content with
  | Buf.Cmeta (Types.Indirect _) -> remove_indirdep t b.Buf.key
  | Buf.Cmeta _ | Buf.Cdata _ -> ()

(* ---------- the four structural changes ------------------------------- *)

let attach_alloc t (req : Scheme_intf.alloc_req) =
  let a =
    {
      a_inum = req.Scheme_intf.inum;
      a_loc = req.Scheme_intf.loc;
      a_owner_key = req.Scheme_intf.owner.Buf.key;
      a_new_ptr = req.Scheme_intf.new_ptr;
      a_old_ptr = req.Scheme_intf.old_ptr;
      a_new_size = req.Scheme_intf.new_size;
      a_old_size = req.Scheme_intf.old_size;
      a_data_key = req.Scheme_intf.data.Buf.key;
      a_data_done = not req.Scheme_intf.init_required;
      a_included = false;
      a_free_moved =
        (if req.Scheme_intf.freed = [] then []
         else [ req.Scheme_intf.free_moved ]);
    }
  in
  t.stats.created <- t.stats.created + 1;
  (match a.a_loc with
   | Scheme_intf.P_ind slot ->
     let n =
       match Hashtbl.find_opt t.indirdeps a.a_owner_key with
       | Some n -> n
       | None ->
         (match req.Scheme_intf.owner.Buf.content with
          | Buf.Cmeta (Types.Indirect actual) ->
            (* the safe copy starts from the pointers already on disk:
               current contents minus this (not yet applied) update *)
            let safe = Array.copy actual in
            let n = { n_birth = now t; n_safe = safe; n_allocs = [] } in
            dep_born t;
            (* pending pointers must not leak into the safe copy *)
            safe.(slot) <- a.a_old_ptr;
            Hashtbl.replace t.indirdeps a.a_owner_key n;
            req.Scheme_intf.owner.Buf.sticky <- true;
            n
          | Buf.Cmeta _ | Buf.Cdata _ ->
            invalid_arg "Softdep: P_ind owner is not an indirect block")
     in
     n.n_safe.(slot) <- a.a_old_ptr;
     n.n_allocs <- a :: n.n_allocs
   | Scheme_intf.P_direct _ | Scheme_intf.P_ib1 | Scheme_intf.P_ib2 ->
     let dep = get_inodedep t a.a_inum in
     (* merge with a pending allocdirect for the same slot (fragment
        extension): keep the original on-disk old value *)
     let same_slot x = x.a_loc = a.a_loc in
     (match List.find_opt same_slot dep.i_allocs with
      | Some old ->
        a.a_old_ptr <- old.a_old_ptr;
        a.a_old_size <- old.a_old_size;
        a.a_free_moved <- old.a_free_moved @ a.a_free_moved;
        dep.i_allocs <- List.filter (fun x -> x != old) dep.i_allocs;
        (* the superseded extent's record no longer guards anything *)
        (match Hashtbl.find_opt t.allocs_by_data old.a_data_key with
         | Some l ->
           (match List.filter (fun x -> x != old) l with
            | [] -> Hashtbl.remove t.allocs_by_data old.a_data_key
            | l' -> Hashtbl.replace t.allocs_by_data old.a_data_key l')
         | None -> ())
      | None -> ());
     dep.i_allocs <- a :: dep.i_allocs);
  if not a.a_data_done then
    Hashtbl.replace t.allocs_by_data a.a_data_key
      (a
      :: (match Hashtbl.find_opt t.allocs_by_data a.a_data_key with
          | Some l -> l
          | None -> []))

let purge_for_runs t ~inum runs =
  (* Deallocation: drop every dependency touching the freed extents and
     return completion actions that must run when the freeing commits.
     The dependency tables are keyed by an extent's first fragment, so
     looking up each freed fragment finds exactly the affected records
     at a cost proportional to the freed runs, not to the backlog. *)
  let extra = ref [] in
  let in_runs key =
    List.exists (fun (start, len) -> key >= start && key < start + len) runs
  in
  let each_freed f =
    List.iter
      (fun (start, len) -> for k = start to start + len - 1 do f k done)
      runs
  in
  (* data-init guards for freed extents *)
  each_freed (fun k ->
      match Hashtbl.find_opt t.allocs_by_data k with
      | None -> ()
      | Some allocs ->
        Hashtbl.remove t.allocs_by_data k;
        List.iter (fun a -> remove_alloc_from_owner t a) allocs);
  (* remaining allocdirects of this inode (data already on disk) *)
  (match Hashtbl.find_opt t.inodedeps inum with
   | None -> ()
   | Some dep ->
     let cancelled, kept =
       List.partition (fun a -> in_runs a.a_new_ptr) dep.i_allocs
     in
     dep.i_allocs <- kept;
     List.iter (fun a -> extra := a.a_free_moved @ !extra) cancelled);
  (* freed indirect blocks *)
  each_freed (fun k ->
      if Hashtbl.mem t.indirdeps k then begin
        remove_indirdep t k;
        match Bcache.lookup t.cache k with
        | Some ob -> ob.Buf.sticky <- false
        | None -> ()
      end);
  (* freed directory blocks: their page dependencies are considered
     complete once the block is freed (appendix, block de-allocation) *)
  each_freed (fun k ->
      match Hashtbl.find_opt t.pagedeps k with
      | None -> ()
      | Some p ->
        List.iter (complete_diradd t) p.p_adds;
        List.iter (fun r -> extra := r.r_decrement :: !extra) p.p_rems;
        (* a freed body can gate nothing: the directory is going
           away, and so (via cancellation) are the gated entries *)
        (match p.p_body with
         | Some bd -> body_durable t bd
         | None -> ());
        remove_pagedep t k p);
  !extra

let make ~cache ~geom =
  let stats =
    { created = 0; rollbacks = 0; cancelled_adds = 0; workitems = 0;
      live_deps = 0; peak_live_deps = 0;
      dep_lifetimes = Su_obs.Hist.create ~base:1e-3 () }
  in
  let t =
    {
      cache;
      geom;
      stats;
      inodedeps = Hashtbl.create 512;
      pagedeps = Hashtbl.create 256;
      indirdeps = Hashtbl.create 64;
      allocs_by_data = Hashtbl.create 512;
    }
  in
  let hooks = Bcache.hooks cache in
  hooks.Bcache.pre_write <- pre_write t;
  hooks.Bcache.post_write <- post_write t;
  hooks.Bcache.pre_invalidate <- pre_invalidate t;
  let scheme =
    {
      Scheme_intf.name = "Soft Updates";
      link_add =
        (fun ~dir ~slot ~ibuf:_ ~inum ->
          let d = { d_dir_key = dir.Buf.key; d_slot = slot; d_inum = inum;
                    d_old = None; d_covered = false; d_pending = 1 } in
          stats.created <- stats.created + 1;
          let p = get_pagedep t dir.Buf.key in
          p.p_adds <- d :: p.p_adds;
          gate_on_body t d;
          let dep = get_inodedep t inum in
          dep.i_waiting_adds <- d :: dep.i_waiting_adds);
      link_remove =
        (fun ~dir ~slot ~inum ~ibuf:_ ~parent_inum:_ ~parent_ibuf:_ ~decrement ->
          let p = get_pagedep t dir.Buf.key in
          match
            List.find_opt
              (fun (d : diradd) -> d.d_slot = slot && d.d_inum = inum)
              p.p_adds
          with
          | Some d ->
            (* the entry never reached the disk: cancel both halves and
               proceed with no disk writes at all *)
            stats.cancelled_adds <- stats.cancelled_adds + 1;
            complete_diradd t d;
            drop_pagedep_if_empty t dir.Buf.key p;
            decrement ()
          | None ->
            stats.created <- stats.created + 1;
            p.p_rems <-
              { r_decrement = decrement; r_slot = slot; r_covered = false;
                r_guard = None }
              :: p.p_rems);
      link_change =
        (fun ~dir ~slot ~ibuf:_ ~inum ~old_entry ~old_ibuf:_ ~decrement ->
          let p = get_pagedep t dir.Buf.key in
          match
            List.find_opt (fun (d : diradd) -> d.d_slot = slot) p.p_adds
          with
          | Some pending ->
            (* the slot's current target never reached the disk:
               replace the pending add outright, inheriting its on-disk
               rollback image, re-point removals guarded by it at the
               new add, and drop the superseded target's count with no
               disk ordering at all *)
            let d = { d_dir_key = dir.Buf.key; d_slot = slot; d_inum = inum;
                      d_old = pending.d_old; d_covered = false;
                      d_pending = 1 } in
            stats.created <- stats.created + 1;
            stats.cancelled_adds <- stats.cancelled_adds + 1;
            complete_diradd t pending;
            let p = get_pagedep t dir.Buf.key in
            p.p_adds <- d :: p.p_adds;
            List.iter
              (fun (r : dirrem) ->
                match r.r_guard with
                | Some g when g == pending -> r.r_guard <- Some d
                | Some _ | None -> ())
              p.p_rems;
            (* if the superseded add was a still-pending dots entry,
               the body now waits for the re-targeted one *)
            (match p.p_body with
             | Some bd ->
               bd.bd_dots <-
                 List.map (fun x -> if x == pending then d else x) bd.bd_dots
             | None -> ());
            gate_on_body t d;
            let dep = get_inodedep t inum in
            dep.i_waiting_adds <- d :: dep.i_waiting_adds;
            decrement ()
          | None ->
            let d = { d_dir_key = dir.Buf.key; d_slot = slot; d_inum = inum;
                      d_old = Some old_entry; d_covered = false;
                      d_pending = 1 } in
            stats.created <- stats.created + 2;
            p.p_adds <- d :: p.p_adds;
            gate_on_body t d;
            let dep = get_inodedep t inum in
            dep.i_waiting_adds <- d :: dep.i_waiting_adds;
            (* the old target's decrement: guarded until the slot is
               written carrying the new entry *)
            p.p_rems <-
              { r_decrement = decrement; r_slot = slot; r_covered = false;
                r_guard = Some d }
              :: p.p_rems);
      (* a size/mtime-only change carries no dependency: the delayed
         inode write rolls nothing back and orders nothing *)
      attr_update = (fun ~ibuf:_ ~inum:_ -> ());
      mkdir_body =
        (fun ~body ~inum ->
          (* remember the dots block; its pending adds right now are
             exactly the dots entries that must roll forward before
             the block counts as durable in full form *)
          let p = get_pagedep t body.Buf.key in
          let bd =
            { bd_inum = inum; bd_dots = p.p_adds; bd_waiters = [];
              bd_covered = false }
          in
          stats.created <- stats.created + 1;
          p.p_body <- Some bd;
          (get_inodedep t inum).i_body <- Some bd);
      block_alloc =
        (fun req ->
          if req.Scheme_intf.init_required || req.Scheme_intf.freed <> [] then
            attach_alloc t req
          else req.Scheme_intf.free_moved ());
      block_dealloc =
        (fun ~ibuf:_ ~inum ~runs ~inode_freed:_ ~do_free ->
          let extra = purge_for_runs t ~inum runs in
          let fw = { f_actions = do_free :: extra; f_covered = false } in
          stats.created <- stats.created + 1;
          let dep = get_inodedep t inum in
          dep.i_freework <- fw :: dep.i_freework);
      reuse_frag_deps = (fun _ -> []);
      reuse_inode_deps = (fun _ -> []);
      fsync =
        (fun ~inum ~ibuf ->
          let rounds = ref 0 in
          let continue_ = ref true in
          while !continue_ do
            incr rounds;
            if !rounds > 100 then failwith "Softdep.fsync: no convergence";
            (match Hashtbl.find_opt t.inodedeps inum with
             | Some dep ->
               List.iter
                 (fun a ->
                   if not a.a_data_done then
                     match Bcache.lookup t.cache a.a_data_key with
                     | Some db -> Bcache.bwrite_sync t.cache db
                     | None -> a.a_data_done <- true)
                 dep.i_allocs
             | None -> ());
            Bcache.bwrite_sync t.cache ibuf;
            continue_ :=
              (match Hashtbl.find_opt t.inodedeps inum with
               | Some dep -> dep.i_allocs <> []
               | None -> false)
          done);
    }
  in
  (scheme, stats)
