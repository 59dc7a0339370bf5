open Su_fstypes

type bad_dir_reason =
  | Dir_inode_free
  | Bad_dot
  | Missing_dots
  | Unreadable_block of { ptr : int }
  | Unreadable_cg_header

type violation =
  | Dangling_entry of { dir : int; name : string; inum : int }
  | Bad_pointer of { inum : int; lbn : int; ptr : int }
  | Cross_allocated of { frag : int; owners : int * int }
  | Nlink_low of { inum : int; nlink : int; refs : int }
  | Exposure of { inum : int; flbn : int; frag : int }
  | Bad_dir of { inum : int; reason : bad_dir_reason }
  | Csum_mismatch of { frag : int }

type report = {
  violations : violation list;
  leaked_frags : int;
  leaked_inodes : int;
  stale_free : int;
  nlink_high : int;
  files : int;
  dirs : int;
}

let bad_dir_text = function
  | Dir_inode_free -> "directory inode is free"
  | Bad_dot -> "bad \".\""
  | Missing_dots -> "missing \".\" or \"..\""
  | Unreadable_block { ptr } -> Printf.sprintf "unreadable block at %d" ptr
  | Unreadable_cg_header -> "unreadable cylinder-group header"

let pp_violation ppf = function
  | Dangling_entry { dir; name; inum } ->
    Format.fprintf ppf "dangling entry %S in dir %d -> inode %d" name dir inum
  | Bad_pointer { inum; lbn; ptr } ->
    Format.fprintf ppf "bad pointer in inode %d, block %d -> %d" inum lbn ptr
  | Cross_allocated { frag; owners = a, b } ->
    Format.fprintf ppf "fragment %d owned by inodes %d and %d" frag a b
  | Nlink_low { inum; nlink; refs } ->
    Format.fprintf ppf "inode %d has nlink %d < %d references" inum nlink refs
  | Exposure { inum; flbn; frag } ->
    Format.fprintf ppf "inode %d fragment %d exposes stale data at %d" inum flbn
      frag
  | Bad_dir { inum; reason } ->
    Format.fprintf ppf "directory %d: %s" inum (bad_dir_text reason)
  | Csum_mismatch { frag } ->
    Format.fprintf ppf "fragment %d disagrees with its checksum" frag

(* --- the walk's tables ----------------------------------------------------

   One walk of the tree fills flat tables indexed by fragment and by
   inode; the map audit, and repair's settle, reclaim and map-rebuild
   phases, read them instead of walking again. A set of tables belongs
   to one check, one map rebuild or one repair at a time (cleared
   before each of its walks), and is never shared across domains: Pool
   runs fsck in several at once. Each domain keeps one spare set
   ([with_tables]), which every call takes and hands back, so a
   recovery allocates the 5.6 MB (default geometry) once per domain
   rather than once per check. *)

module A1 = Bigarray.Array1

type bytemap = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t
type statemap = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

(* 8 bytes of a byte map at once, in native order *)
external get64 : bytemap -> int -> int64 = "%caml_bigstring_get64"
external get64_states : statemap -> int -> int64 = "%caml_bigstring_get64"

type tables = {
  owner : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
      (* per fragment: the inode that claimed it first, 0 for none
         (inode numbers start at [Geom.root_inum]) *)
  claimed : bytemap;
      (* per fragment: 1 where [owner] is set, else 0 — laid out like a
         group's [frag_map] shifted by its base, so the audit compares
         and the map rebuild copies whole words *)
  refs : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
      (* per inode slot: the entries naming it *)
  state : statemap;
      (* per inode slot: [unseen], [queued] or [live] *)
  parent : (int, int) Hashtbl.t;
      (* reachable directory -> the directory whose entry reached it *)
  frag_pages : Bytes.t;
  inode_pages : Bytes.t;
      (* one byte per [page] fragments or inode slots: non-zero where
         a walk may have written [owner]/[claimed] or [refs]/[state]
         since the last [reset], so a reset clears what the walk
         reached rather than the whole volume *)
}

(* inode slot states: a directory is [queued] when first named and
   [live] once its dinode was read; a file is [live] when first named *)
let unseen = 0
let queued = 1
let live = 2

let page_bits = 12
let page = 1 lsl page_bits

(* The flat tables live outside the OCaml heap: allocated as major-heap
   [Bytes] on every walk (5 MB at the default geometry), they raised
   the heap's high-water mark by about half on the crash-recovery
   benchmark, far beyond the tables' own size. [A1.create] leaves them
   uninitialised, so a fresh set has every page marked. *)
let tables geom =
  let ninodes = Geom.total_inodes geom in
  let pages n = Bytes.make ((n + page - 1) / page) '\001' in
  {
    owner = A1.create Bigarray.int32 Bigarray.c_layout geom.Geom.nfrags;
    claimed = A1.create Bigarray.char Bigarray.c_layout geom.Geom.nfrags;
    refs = A1.create Bigarray.int32 Bigarray.c_layout ninodes;
    state = A1.create Bigarray.int8_unsigned Bigarray.c_layout ninodes;
    parent = Hashtbl.create 64;
    frag_pages = pages geom.Geom.nfrags;
    inode_pages = pages ninodes;
  }

(* The domain's spare set: taken for the length of one call, so a
   nested call (a check inside a repair, say) finds it gone and
   allocates its own; a set sized for another geometry is replaced. *)
let spare : tables option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_tables geom f =
  let slot = Domain.DLS.get spare in
  let t =
    match !slot with
    | Some t
      when A1.dim t.owner = geom.Geom.nfrags
           && A1.dim t.refs = Geom.total_inodes geom ->
      slot := None;
      t
    | Some _ | None -> tables geom
  in
  let r = f t in
  slot := Some t;
  r

(* Only the marked pages are cleared, each by a plain loop: a Bigarray
   sub-view per page would allocate a proxy every time. *)
let reset t =
  let nfrags = A1.dim t.owner and ninodes = A1.dim t.refs in
  for p = 0 to Bytes.length t.frag_pages - 1 do
    if Bytes.get t.frag_pages p <> '\000' then begin
      for f = p * page to min nfrags ((p + 1) * page) - 1 do
        A1.unsafe_set t.owner f 0l;
        A1.unsafe_set t.claimed f '\000'
      done;
      Bytes.set t.frag_pages p '\000'
    end
  done;
  for p = 0 to Bytes.length t.inode_pages - 1 do
    if Bytes.get t.inode_pages p <> '\000' then begin
      for i = p * page to min ninodes ((p + 1) * page) - 1 do
        A1.unsafe_set t.refs i 0l;
        A1.unsafe_set t.state i unseen
      done;
      Bytes.set t.inode_pages p '\000'
    end
  done;
  Hashtbl.reset t.parent

let owner t frag = Int32.to_int (A1.get t.owner frag)
let slot inum = inum - Geom.root_inum
let state t inum = A1.get t.state (slot inum)

let set_state t inum s =
  A1.set t.state (slot inum) s;
  Bytes.unsafe_set t.inode_pages (slot inum lsr page_bits) '\001'

let refs t inum = Int32.to_int (A1.get t.refs (slot inum))

(* [f inum] for every [live] slot, in ascending order. The state table
   is read 8 slots at a time: a walk reaches a few of a volume's inodes,
   and a word of [unseen] slots (all zero) is skipped whole. *)
let iter_live t f =
  let n = A1.dim t.state in
  let visit i = if A1.unsafe_get t.state i = live then f (i + Geom.root_inum) in
  let k = ref 0 in
  while !k + 8 <= n do
    if get64_states t.state !k <> 0L then
      for i = !k to !k + 7 do
        visit i
      done;
    k := !k + 8
  done;
  for i = !k to n - 1 do
    visit i
  done

(* Byte [j] is 1 where slot [i + j] is [live], else 0: the states are
   0, 1 and 2, so bit 1 of each byte marks [live]. This is the word an
   inode map holds for the same 8 slots. *)
let live_word t i =
  Int64.logand
    (Int64.shift_right_logical (get64_states t.state i) 1)
    0x0101010101010101L

(* The number of 1 bytes in a word whose bytes are all 0 or 1: the byte
   sum lands in the top byte when multiplied by 0x0101...01 (at most 8,
   so no byte carries). *)
let ones w =
  Int64.to_int (Int64.shift_right_logical (Int64.mul w 0x0101010101010101L) 56)

type ctx = {
  geom : Geom.t;
  image : Types.cell array;
  check_exposure : bool;
  t : tables;
  mutable violations : violation list;
  mutable files : int;
  mutable dirs : int;
}

let viol ctx v = ctx.violations <- v :: ctx.violations

let read_dinode ctx inum = Types.image_dinode ctx.geom ctx.image inum

let claim_frags ctx ~inum ~start ~len =
  for f = start to start + len - 1 do
    if not (Geom.data_frag_in_cg ctx.geom f) then
      viol ctx (Bad_pointer { inum; lbn = -1; ptr = f })
    else
      let other = owner ctx.t f in
      if other = 0 then begin
        A1.set ctx.t.owner f (Int32.of_int inum);
        A1.set ctx.t.claimed f '\001';
        Bytes.unsafe_set ctx.t.frag_pages (f lsr page_bits) '\001'
      end
      else if other <> inum then
        viol ctx (Cross_allocated { frag = f; owners = (other, inum) })
  done

let check_data_extent ctx ~inum ~(din : Types.dinode) ~lbn ~start ~len =
  claim_frags ctx ~inum ~start ~len;
  if ctx.check_exposure then
    for i = 0 to len - 1 do
      let f = start + i in
      if f >= 0 && f < Array.length ctx.image then
        match ctx.image.(f) with
        | Types.Frag s when Types.stamp_matches s ~inum ~gen:din.Types.gen -> ()
        | Types.Frag _ | Types.Empty | Types.Pad | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
          viol ctx (Exposure { inum; flbn = (lbn * ctx.geom.Geom.frags_per_block) + i; frag = f })
    done

let read_indirect ctx ~inum ~ptr =
  if ptr <= 0 || ptr >= Array.length ctx.image then begin
    viol ctx (Bad_pointer { inum; lbn = -1; ptr });
    None
  end
  else
    match ctx.image.(ptr) with
    | Types.Meta (Types.Indirect a) -> Some a
    | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
      (* pointer to an uninitialised indirect block *)
      viol ctx (Bad_pointer { inum; lbn = -1; ptr });
      None

let frags_in_block g ~size ~lbn =
  let bb = Geom.block_bytes g in
  if size <= lbn * bb then 0
  else if size >= (lbn + 1) * bb then g.Geom.frags_per_block
  else Geom.frags_of_bytes g (size - (lbn * bb))

(* the file system allocates partial tail runs only for files that fit
   in the direct pointers; larger files use full blocks *)
let extent_len g ~size ~lbn =
  let partial = frags_in_block g ~size ~lbn in
  if partial = 0 then 0
  else if
    partial < g.Geom.frags_per_block
    && Geom.blocks_of_bytes g size > g.Geom.ndaddr
  then g.Geom.frags_per_block
  else partial

(* Walk a file's block pointers, claiming fragments and checking
   stamps. *)
let check_file_blocks ctx inum (din : Types.dinode) =
  let g = ctx.geom in
  let fpb = g.Geom.frags_per_block in
  let size = din.Types.size in
  let check_ptr ~lbn ptr =
    if ptr <> 0 then begin
      let len = extent_len g ~size ~lbn in
      let len = if len = 0 then fpb else len in
      (* only the bytes the file logically holds must carry its stamps;
         the slack fragments of a full tail block are merely claimed *)
      let data_len = frags_in_block g ~size ~lbn in
      let data_len = if data_len = 0 then len else data_len in
      if din.Types.ftype = Types.F_dir then claim_frags ctx ~inum ~start:ptr ~len
      else begin
        claim_frags ctx ~inum ~start:ptr ~len;
        check_data_extent ctx ~inum ~din ~lbn ~start:ptr ~len:data_len
      end
    end
  in
  Array.iteri (fun i ptr -> check_ptr ~lbn:i ptr) din.Types.db;
  let nd = g.Geom.ndaddr and ni = g.Geom.nindir in
  if din.Types.ib <> 0 then begin
    claim_frags ctx ~inum ~start:din.Types.ib ~len:fpb;
    match read_indirect ctx ~inum ~ptr:din.Types.ib with
    | None -> ()
    | Some a -> Array.iteri (fun i ptr -> check_ptr ~lbn:(nd + i) ptr) a
  end;
  if din.Types.ib2 <> 0 then begin
    claim_frags ctx ~inum ~start:din.Types.ib2 ~len:fpb;
    match read_indirect ctx ~inum ~ptr:din.Types.ib2 with
    | None -> ()
    | Some a2 ->
      Array.iteri
        (fun l1 p1 ->
          if p1 <> 0 then begin
            claim_frags ctx ~inum ~start:p1 ~len:fpb;
            match read_indirect ctx ~inum ~ptr:p1 with
            | None -> ()
            | Some a1 ->
              Array.iteri
                (fun i ptr -> check_ptr ~lbn:(nd + ni + (l1 * ni) + i) ptr)
                a1
          end)
        a2
  end

let dir_blocks ctx inum (din : Types.dinode) =
  (* collect the directory's readable blocks *)
  let g = ctx.geom in
  let nblocks = Geom.blocks_of_bytes g din.Types.size in
  let out = ref [] in
  let fetch ptr =
    if ptr <> 0 then
      match ctx.image.(ptr) with
      | Types.Meta (Types.Dir entries) -> out := entries :: !out
      | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
        viol ctx (Bad_dir { inum; reason = Unreadable_block { ptr } })
  in
  let nd = g.Geom.ndaddr in
  for i = 0 to min (nblocks - 1) (nd - 1) do
    fetch din.Types.db.(i)
  done;
  if nblocks > nd && din.Types.ib <> 0 then begin
    match read_indirect ctx ~inum ~ptr:din.Types.ib with
    | None -> ()
    | Some a ->
      for i = 0 to nblocks - nd - 1 do
        if i < Array.length a then fetch a.(i)
      done
  end;
  List.rev !out

let add_ref ctx inum =
  if Geom.valid_inum ctx.geom inum then begin
    A1.set ctx.t.refs (slot inum) (Int32.succ (A1.get ctx.t.refs (slot inum)));
    Bytes.unsafe_set ctx.t.inode_pages (slot inum lsr page_bits) '\001'
  end

(* Breadth-first walk of the directory tree. Besides the violations it
   leaves in the tables who owns each fragment, how many entries name
   each inode, which inodes are reachable, and each directory's
   parent. *)
let walk ctx =
  let t = ctx.t in
  let queue = Queue.create () in
  let enqueue_dir ?parent inum =
    if state t inum = unseen then begin
      set_state t inum queued;
      Option.iter (Hashtbl.replace t.parent inum) parent;
      Queue.add inum queue
    end
  in
  enqueue_dir Geom.root_inum;
  while not (Queue.is_empty queue) do
    let dinum = Queue.pop queue in
    match read_dinode ctx dinum with
    | None -> viol ctx (Bad_dir { inum = dinum; reason = Dir_inode_free })
    | Some din ->
      set_state t dinum live;
      if din.Types.ftype = Types.F_dir then ctx.dirs <- ctx.dirs + 1
      else ctx.files <- ctx.files + 1;
      check_file_blocks ctx dinum din;
      let blocks = dir_blocks ctx dinum din in
      let saw_dot = ref false and saw_dotdot = ref false in
      List.iter
        (fun entries ->
          Array.iter
            (function
              | None -> ()
              | Some { Types.name; inum } ->
                add_ref ctx inum;
                if name = "." then begin
                  saw_dot := true;
                  if inum <> dinum then viol ctx (Bad_dir { inum = dinum; reason = Bad_dot })
                end
                else if name = ".." then saw_dotdot := true
                else begin
                  match read_dinode ctx inum with
                  | None -> viol ctx (Dangling_entry { dir = dinum; name; inum })
                  | Some child ->
                    if child.Types.ftype = Types.F_dir then enqueue_dir ~parent:dinum inum
                    else if state t inum = unseen then begin
                      set_state t inum live;
                      ctx.files <- ctx.files + 1;
                      check_file_blocks ctx inum child
                    end
                end)
            entries)
        blocks;
      if blocks <> [] && not (!saw_dot && !saw_dotdot) then
        viol ctx (Bad_dir { inum = dinum; reason = Missing_dots })
  done

(* Compare references with link counts and audit the free maps. *)
let audit ctx =
  let g = ctx.geom and t = ctx.t in
  let nlink_high = ref 0 in
  iter_live t (fun inum ->
      match read_dinode ctx inum with
      | Some din ->
        let refs = refs t inum in
        if din.Types.nlink < refs then
          viol ctx (Nlink_low { inum; nlink = din.Types.nlink; refs })
        else if din.Types.nlink > refs then incr nlink_high
      | None -> ());
  let leaked_frags = ref 0 and leaked_inodes = ref 0 and stale_free = ref 0 in
  for c = 0 to Geom.cg_count g - 1 do
    match ctx.image.(Geom.cg_header_frag g c) with
    | Types.Meta (Types.Cgroup cg) ->
      let base = Geom.cg_base g c in
      let data_first, data_count = Geom.cg_data_area g c in
      let frag f =
        let marked_used = Bytes.get cg.Types.frag_map (f - base) <> '\000' in
        let owned = A1.get t.claimed f <> '\000' in
        if owned && not marked_used then incr stale_free
        else if marked_used && not owned then incr leaked_frags
      in
      (* equal words hold equal bytes, which agree on every fragment;
         only a differing word (a leak, a stale free, or a map byte
         other than 0 and 1) is looked at byte by byte *)
      let k = ref 0 in
      while !k + 8 <= data_count do
        let f = data_first + !k in
        if
          Bytes.get_int64_ne cg.Types.frag_map (f - base)
          <> get64 t.claimed f
        then
          for f = f to f + 7 do
            frag f
          done;
        k := !k + 8
      done;
      for f = data_first + !k to data_first + data_count - 1 do
        frag f
      done;
      let first_inum = Geom.first_inum_of_cg g c in
      let ipc = g.Geom.inodes_per_cg in
      (* as for the fragments: a map word equal to the walk's live word
         agrees on all 8 inodes *)
      let j = ref 0 in
      while !j < ipc do
        if
          !j land 7 = 0
          && !j + 8 <= ipc
          && Bytes.get_int64_ne cg.Types.inode_map !j
             = live_word t (slot first_inum + !j)
        then j := !j + 8
        else begin
          let marked_used = Bytes.get cg.Types.inode_map !j <> '\000' in
          let live = state t (first_inum + !j) = live in
          if live && not marked_used then incr stale_free
          else if (not live) && marked_used then incr leaked_inodes;
          incr j
        end
      done
    | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
      viol ctx (Bad_dir { inum = -c; reason = Unreadable_cg_header })
  done;
  (!leaked_frags, !leaked_inodes, !stale_free, !nlink_high)

(* Verify every covered fragment against the persisted checksum region
   (auto-detected: images from checksum-less configurations have no
   region and no checksum phase). *)
let csum_violations ~geom image =
  match Types.image_csum geom image with
  | None -> []
  | Some (_, ca) ->
    let lim = min (Array.length ca) (Array.length image) in
    let out = ref [] in
    for f = lim - 1 downto 0 do
      if Types.cell_digest image.(f) <> ca.(f) then
        out := Csum_mismatch { frag = f } :: !out
    done;
    !out

(* A fresh walk of [image] into [t]. *)
let walk_into t ~geom ~image ~check_exposure =
  reset t;
  let ctx =
    { geom; image; check_exposure; t; violations = []; files = 0; dirs = 0 }
  in
  walk ctx;
  ctx

(* The audit and checksum phases over a finished walk. [ctx] keeps
   only the walk's own violations afterwards, so a later image change
   the walk cannot see is reported by auditing again. *)
let report_of ctx =
  let walked = ctx.violations in
  let leaked_frags, leaked_inodes, stale_free, nlink_high = audit ctx in
  let violations =
    List.rev ctx.violations @ csum_violations ~geom:ctx.geom ctx.image
  in
  ctx.violations <- walked;
  {
    violations;
    leaked_frags;
    leaked_inodes;
    stale_free;
    nlink_high;
    files = ctx.files;
    dirs = ctx.dirs;
  }

let check ~geom ~image ~check_exposure =
  with_tables geom (fun t -> report_of (walk_into t ~geom ~image ~check_exposure))

(* The number of non-zero bytes in [b.{off .. off + len - 1}], whose
   bytes are all 0 or 1. *)
let count_ones b off len =
  let n = ref 0 and k = ref 0 in
  while !k + 8 <= len do
    let w = get64 b (off + !k) in
    if w <> 0L then n := !n + ones w;
    k := !k + 8
  done;
  for i = off + !k to off + len - 1 do
    if A1.get b i <> '\000' then incr n
  done;
  !n

(* [b.[off .. off + len - 1]] all equal [ch] *)
let all_bytes b off len ch =
  let i = ref 0 in
  while !i < len && Bytes.get b (off + !i) = ch do
    incr i
  done;
  !i >= len

(* Whether [cg] equals [build_header t ~geom c], field for field, without
   building it. Loops, not local closures: this runs for every group of
   every map rebuild. *)
let header_current t ~geom c (cg : Types.cg) =
  let base = Geom.cg_base geom c in
  let data_first, data_count = Geom.cg_data_area geom c in
  let fm = cg.Types.frag_map and im = cg.Types.inode_map in
  let ipc = geom.Geom.inodes_per_cg in
  let prefix = data_first - base in
  let tail = prefix + data_count in
  Bytes.length fm = geom.Geom.cg_frags
  && Bytes.length im = ipc
  && all_bytes fm 0 prefix '\001'
  && all_bytes fm tail (Bytes.length fm - tail) '\000'
  && cg.Types.nffree = data_count - count_ones t.claimed data_first data_count
  &&
  let same = ref true and k = ref 0 in
  while !same && !k + 8 <= data_count do
    same := Bytes.get_int64_ne fm (prefix + !k) = get64 t.claimed (data_first + !k);
    k := !k + 8
  done;
  while !same && !k < data_count do
    same := Bytes.get fm (prefix + !k) = A1.get t.claimed (data_first + !k);
    incr k
  done;
  let first = slot (Geom.first_inum_of_cg geom c) in
  let nlive = ref 0 and j = ref 0 in
  while !same && !j + 8 <= ipc do
    let w = live_word t (first + !j) in
    same := Bytes.get_int64_ne im !j = w;
    nlive := !nlive + ones w;
    j := !j + 8
  done;
  while !same && !j < ipc do
    let is_live = A1.get t.state (first + !j) = live in
    same := Bytes.get im !j = if is_live then '\001' else '\000';
    if is_live then incr nlive;
    incr j
  done;
  !same && cg.Types.nifree = ipc - !nlive

(* Group [c]'s header as the walk in [t] has it: everything before the
   data area is in use, and a data fragment or inode is in use exactly
   when the walk claimed or reached it. *)
let build_header t ~geom c =
  let cg = Types.fresh_cg geom in
  let base = Geom.cg_base geom c in
  let data_first, data_count = Geom.cg_data_area geom c in
  Bytes.fill cg.Types.frag_map 0 (data_first - base) '\001';
  let k = ref 0 in
  while !k + 8 <= data_count do
    Bytes.set_int64_ne cg.Types.frag_map (data_first - base + !k)
      (get64 t.claimed (data_first + !k));
    k := !k + 8
  done;
  for f = data_first + !k to data_first + data_count - 1 do
    Bytes.set cg.Types.frag_map (f - base) (A1.get t.claimed f)
  done;
  cg.Types.nffree <- data_count - count_ones t.claimed data_first data_count;
  let first = Geom.first_inum_of_cg geom c in
  cg.Types.nifree <- geom.Geom.inodes_per_cg;
  for j = 0 to geom.Geom.inodes_per_cg - 1 do
    if state t (first + j) = live then begin
      Bytes.set cg.Types.inode_map j '\001';
      cg.Types.nifree <- cg.Types.nifree - 1
    end
  done;
  cg

(* Install the walk's maps in every group, in group order. A group whose
   header already holds them is skipped: [Imglog.write] would drop its
   identical write, so the observer sees the same writes. *)
let install_maps ?observer t ~geom ~image =
  for c = 0 to Geom.cg_count geom - 1 do
    let hdr = Geom.cg_header_frag geom c in
    match image.(hdr) with
    | Types.Meta (Types.Cgroup cg) when header_current t ~geom c cg -> ()
    | _ ->
      Imglog.write ?observer image hdr
        (Types.Meta (Types.Cgroup (build_header t ~geom c)))
  done

(* Recovery needs the walk's claims, not the audit. *)
let rebuild_maps ?observer geom image =
  with_tables geom (fun t ->
      ignore (walk_into t ~geom ~image ~check_exposure:false);
      install_maps ?observer t ~geom ~image)

let ok (r : report) = r.violations = []

(* --- repair -------------------------------------------------------------- *)

type repair_action =
  | Cleared_entry of { dir : int; name : string }
  | Fixed_nlink of { inum : int; from_ : int; to_ : int }
  | Truncated_file of { inum : int }
  | Cleared_dir_block of { inum : int; ptr : int }
  | Restored_dots of { inum : int }
  | Freed_unreachable of { inodes : int }
  | Rebuilt_maps
  | Resynced_csums of { frags : int }

let pp_repair_action ppf = function
  | Cleared_entry { dir; name } ->
    Format.fprintf ppf "cleared entry %S in dir %d" name dir
  | Fixed_nlink { inum; from_; to_ } ->
    Format.fprintf ppf "inode %d link count %d -> %d" inum from_ to_
  | Truncated_file { inum } -> Format.fprintf ppf "truncated inode %d" inum
  | Cleared_dir_block { inum; ptr } ->
    Format.fprintf ppf "cleared unreadable block %d of dir %d" ptr inum
  | Restored_dots { inum } ->
    Format.fprintf ppf "restored \".\"/\"..\" in dir %d" inum
  | Freed_unreachable { inodes } ->
    Format.fprintf ppf "reclaimed %d unreachable inode(s)" inodes
  | Rebuilt_maps -> Format.fprintf ppf "rebuilt allocation maps"
  | Resynced_csums { frags } ->
    Format.fprintf ppf "resynchronised %d checksum(s)" frags

(* Repair reads inode slots through [Types.image_dinode], whose result
   aliases the image: it must not be mutated. All repair writes go
   through {!update_dinode} / {!update_dir_block}, which copy the cell,
   apply the change, and install the copy via [Imglog.write] so an
   observer sees every effective mutation (and re-running a repair
   that has nothing left to change writes nothing at all). *)
let update_dinode ?observer geom image inum f =
  let blk = Geom.inode_block_frag geom inum in
  match image.(blk) with
  | Types.Meta (Types.Inodes _) ->
    (match Types.copy_cell image.(blk) with
     | Types.Meta (Types.Inodes dinodes) as cell ->
       f dinodes.(Geom.inode_index_in_block geom inum);
       Imglog.write ?observer image blk cell
     | _ -> ())
  | _ -> ()

let update_dir_block ?observer image ptr f =
  match image.(ptr) with
  | Types.Meta (Types.Dir _) ->
    (match Types.copy_cell image.(ptr) with
     | Types.Meta (Types.Dir entries) as cell ->
       f entries;
       Imglog.write ?observer image ptr cell
     | _ -> ())
  | _ -> ()

(* All readable directory blocks of a directory, with their addresses. *)
let dir_blocks_with_addr geom image (din : Types.dinode) =
  let nblocks = Geom.blocks_of_bytes geom din.Types.size in
  let out = ref [] in
  let fetch ptr =
    if ptr <> 0 then
      match image.(ptr) with
      | Types.Meta (Types.Dir entries) -> out := (ptr, entries) :: !out
      | _ -> ()
  in
  let nd = geom.Geom.ndaddr in
  for i = 0 to min (nblocks - 1) (nd - 1) do
    fetch din.Types.db.(i)
  done;
  if nblocks > nd && din.Types.ib <> 0 then begin
    match image.(din.Types.ib) with
    | Types.Meta (Types.Indirect arr) ->
      for i = 0 to nblocks - nd - 1 do
        if i < Array.length arr then fetch arr.(i)
      done
    | _ -> ()
  end;
  List.rev !out

let clear_entry ?observer geom image ~dir ~name =
  match Types.image_dinode geom image dir with
  | None -> ()
  | Some din ->
    List.iter
      (fun (ptr, blk_entries) ->
        if
          Array.exists
            (function
              | Some en -> en.Types.name = name
              | None -> false)
            blk_entries
        then
          update_dir_block ?observer image ptr (fun entries ->
              Array.iteri
                (fun i e ->
                  match e with
                  | Some en when en.Types.name = name -> entries.(i) <- None
                  | Some _ | None -> ())
                entries))
      (dir_blocks_with_addr geom image din)

let truncate_file ?observer geom image inum =
  update_dinode ?observer geom image inum (fun din ->
      Array.fill din.Types.db 0 (Array.length din.Types.db) 0;
      din.Types.ib <- 0;
      din.Types.ib2 <- 0;
      din.Types.size <- 0)

let clear_bad_dir_block ?observer geom image inum =
  (* remove pointers to unreadable blocks from a directory, then
     compact the survivors: directories must be dense *)
  match Types.image_dinode geom image inum with
  | None -> ()
  | Some din ->
    let keep = ref [] in
    Array.iter
      (fun ptr ->
        if ptr <> 0 then
          match image.(ptr) with
          | Types.Meta (Types.Dir _) -> keep := ptr :: !keep
          | _ -> ())
      din.Types.db;
    let survivors = Array.of_list (List.rev !keep) in
    update_dinode ?observer geom image inum (fun din ->
        Array.fill din.Types.db 0 (Array.length din.Types.db) 0;
        Array.blit survivors 0 din.Types.db 0 (Array.length survivors);
        din.Types.ib <- 0;
        din.Types.ib2 <- 0;
        din.Types.size <- Array.length survivors * Geom.block_bytes geom)

let restore_dots ?observer geom image ~inum ~parent =
  match Types.image_dinode geom image inum with
  | None -> ()
  | Some din ->
    (match dir_blocks_with_addr geom image din with
     | (ptr, _) :: _ ->
       update_dir_block ?observer image ptr (fun entries ->
           if Types.dir_find entries "." = None then begin
             match Types.dir_free_slot entries with
             | Some s -> entries.(s) <- Some { Types.name = "."; inum }
             | None -> ()
           end;
           if Types.dir_find entries ".." = None then begin
             match Types.dir_free_slot entries with
             | Some s -> entries.(s) <- Some { Types.name = ".."; inum = parent }
             | None -> ()
           end)
     | [] -> ())

type repair_outcome = {
  actions : repair_action list;
  initial : report;
  final : report;
  rounds : int;
  converged : bool;
}

(* Test-only: extra image writes injected at the top of every repair
   call, routed through the same observed write path as real repair
   actions. The nested (crash-during-recovery) sweep uses this to
   prove it catches a non-idempotent repair: a hook whose writes
   depend on the current image content never reaches a write-free
   round, and the sweep's fixed-point check flags it. Never set
   outside tests. *)
let repair_test_hook :
    (Su_fstypes.Types.cell array -> (int * Su_fstypes.Types.cell) list)
      option
      ref =
  ref None

type final_path = Unwritten | Reused_walk | Full_check

let repair_final_oracle : (final_path -> unit) option ref = ref None

let structural = function
  | Nlink_low _ | Csum_mismatch _ -> false
  | Dangling_entry _ | Bad_pointer _ | Cross_allocated _ | Exposure _
  | Bad_dir _ ->
    true

let repair ?observer ~geom ~image ~check_exposure () =
  (* count the effective writes: a repair that made none returns its
     first check as the final one *)
  let writes = ref 0 in
  let observer =
    Some
      (fun ~lbn ~pre ~post ->
        incr writes;
        Option.iter (fun f -> f ~lbn ~pre ~post) observer)
  in
  (match !repair_test_hook with
   | Some hook ->
     List.iter
       (fun (lbn, cell) -> Imglog.write ?observer image lbn cell)
       (hook image)
   | None -> ());
  with_tables geom @@ fun t ->
  let rewalk () = walk_into t ~geom ~image ~check_exposure in
  let actions = ref [] in
  let note a = actions := a :: !actions in
  (* the parent map is the current round's walk, taken before any of
     the round's repairs *)
  let fix = function
    | Dangling_entry { dir; name; _ } ->
      clear_entry ?observer geom image ~dir ~name;
      note (Cleared_entry { dir; name })
    | Cross_allocated { owners = (_, b); _ } ->
      truncate_file ?observer geom image b;
      note (Truncated_file { inum = b })
    | Exposure { inum; _ } | Bad_pointer { inum; _ } ->
      if inum > 0 then begin
        truncate_file ?observer geom image inum;
        note (Truncated_file { inum })
      end
    | Bad_dir { inum; reason = Missing_dots } ->
      let parent =
        Option.value ~default:Geom.root_inum (Hashtbl.find_opt t.parent inum)
      in
      restore_dots ?observer geom image ~inum ~parent;
      note (Restored_dots { inum })
    | Bad_dir { inum; reason = Bad_dot | Unreadable_block _ } ->
      clear_bad_dir_block ?observer geom image inum;
      note (Cleared_dir_block { inum; ptr = 0 })
    | Bad_dir { reason = Dir_inode_free | Unreadable_cg_header; _ }
    | Nlink_low _ | Csum_mismatch _ ->
      (* no inode to repair; the map rebuild rewrites every header *)
      ()
  in
  (* structural rounds: each check leaves its walk in [t]. Repairs that
     keep uncovering each other stop at the round limit, reporting
     divergence instead of dying — the settle/reclaim passes below
     still leave the image as sane as possible. *)
  let rec rounds n ctx (r : report) =
    match List.filter structural r.violations with
    | [] -> (n, true, ctx)
    | vs ->
      List.iter fix vs;
      if n = 8 then (n + 1, false, ctx)
      else
        let ctx = rewalk () in
        rounds (n + 1) ctx (report_of ctx)
  in
  let first = rewalk () in
  let initial = report_of first in
  let rounds, converged, last = rounds 1 first initial in
  (* the last round's repairs are not in its walk yet *)
  let last = if converged then last else rewalk () in
  (* settle link counts against the observed reference counts *)
  iter_live t (fun inum ->
      match Types.image_dinode geom image inum with
      | Some din ->
        let want = refs t inum in
        if din.Types.nlink <> want && want > 0 then begin
          note (Fixed_nlink { inum; from_ = din.Types.nlink; to_ = want });
          update_dinode ?observer geom image inum (fun d ->
              d.Types.nlink <- want)
        end
      | None -> ());
  (* unreachable allocated inodes: clear them (their storage is
     reclaimed by the map rebuild). A block never written as inodes
     reads back all-free, so only inode blocks are looked into. *)
  let freed = ref 0 in
  let ipb = geom.Geom.inodes_per_block in
  for b = 0 to (Geom.total_inodes geom / ipb) - 1 do
    let first = Geom.root_inum + (b * ipb) in
    match image.(Geom.inode_block_frag geom first) with
    | Types.Meta (Types.Inodes _) ->
      for inum = first to first + ipb - 1 do
        if state t inum <> live then
          match Types.image_dinode geom image inum with
          | Some _ ->
            update_dinode ?observer geom image inum (fun d ->
                d.Types.ftype <- Types.F_free;
                d.Types.nlink <- 0;
                Array.fill d.Types.db 0 (Array.length d.Types.db) 0;
                d.Types.ib <- 0;
                d.Types.ib2 <- 0;
                d.Types.size <- 0);
            incr freed
          | None -> ()
      done
    | _ -> ()
  done;
  if !freed > 0 then note (Freed_unreachable { inodes = !freed });
  (* neither pass changed what the walk found reachable or claimed *)
  install_maps ?observer t ~geom ~image;
  note Rebuilt_maps;
  (* resynchronise the checksum region to the repaired image: data the
     structural phase could not save is already gone (typed, reported
     above) — what matters now is that every fragment verifies so the
     volume remounts clean. One equality-suppressed write keeps the
     pass idempotent. *)
  (match Types.image_csum geom image with
   | None -> ()
   | Some (slot, ca) ->
     let fresh = Array.copy ca in
     let lim = min (Array.length fresh) (Array.length image) in
     let changed = ref 0 in
     for f = 0 to lim - 1 do
       let d = Types.cell_digest image.(f) in
       if fresh.(f) <> d then begin
         fresh.(f) <- d;
         incr changed
       end
     done;
     if !changed > 0 then begin
       Imglog.write ?observer image slot (Types.Csum fresh);
       note (Resynced_csums { frags = !changed })
     end);
  (* After convergence no reachable pointer targets anything but a data
     fragment, and the passes above wrote only live inodes' [nlink],
     unreachable dinodes, group headers and the checksum slot: nothing
     the walk reads. Its tables still describe the image, so only the
     audit and checksum phases run again. *)
  let path =
    if !writes = 0 then Unwritten
    else if converged then Reused_walk
    else Full_check
  in
  let final =
    match path with
    | Unwritten -> initial
    | Reused_walk -> report_of last
    | Full_check -> report_of (rewalk ())
  in
  (match !repair_final_oracle with
   | None -> ()
   | Some f ->
     if path <> Full_check && check ~geom ~image ~check_exposure <> final then
       failwith "Fsck.repair: final report differs from a full check";
     f path);
  { actions = List.rev !actions; initial; final; rounds; converged }
