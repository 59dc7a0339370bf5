open Su_fstypes
open Su_cache
module Intf = Su_core.Scheme_intf

let fpb st = State.block_frags st
let bb st = State.block_bytes st

let frags_in_block st ~size ~lbn =
  let bb = bb st in
  if size <= lbn * bb then 0
  else if size >= (lbn + 1) * bb then fpb st
  else Geom.frags_of_bytes st.State.geom (size - (lbn * bb))

let last_lbn st ~size = if size <= 0 then -1 else (size - 1) / bb st

let small_file st ~size =
  Geom.blocks_of_bytes st.State.geom size <= st.State.geom.Geom.ndaddr

(* Allocated length of block [lbn]: the tail is a partial fragment run
   only for small files; large files use full blocks throughout. *)
let extent_len st ~size ~lbn =
  let partial = frags_in_block st ~size ~lbn in
  if partial = 0 then 0
  else if partial < fpb st && not (small_file st ~size) then fpb st
  else partial

let add_wdeps (b : Buf.t) ids =
  List.iter
    (fun id -> if not (List.mem id b.Buf.wdeps) then b.Buf.wdeps <- id :: b.Buf.wdeps)
    ids

let cg_hint st ip = Geom.cg_of_inode st.State.geom ip.State.inum

(* --- indirect block plumbing ----------------------------------------- *)

let read_indirect st lbn =
  let buf = Bcache.bread st.State.cache ~lbn ~nfrags:(fpb st) in
  match buf.Buf.content with
  | Buf.Cmeta (Types.Indirect _) -> buf
  | Buf.Cmeta _ | Buf.Cdata _ ->
    Bcache.release st.State.cache buf;
    failwith "File: expected an indirect block"

(* Allocate a fresh, zeroed indirect block whose pointer lives at
   [loc] of [owner] (an inode block or another indirect block).
   Returns its address. The new block's initialisation must reach the
   disk before the pointer: init_required is unconditional for
   metadata. *)
let alloc_indirect st ip ~owner ~loc =
  let addr = Alloc.alloc_block st ~cg_hint:(cg_hint st ip) in
  let deps = st.State.scheme.Intf.reuse_frag_deps [ (addr, fpb st) ] in
  let data =
    Bcache.getblk st.State.cache ~lbn:addr ~nfrags:(fpb st) ~init:(fun () ->
        Buf.Cmeta (Types.Indirect (Types.fresh_indirect st.State.geom)))
  in
  add_wdeps data deps;
  Bcache.bdwrite st.State.cache data;
  let size = ip.State.din.Types.size in
  st.State.scheme.Intf.block_alloc
    {
      Intf.inum = ip.State.inum;
      owner;
      loc;
      data;
      new_ptr = addr;
      old_ptr = 0;
      new_size = size;
      old_size = size;
      freed = [];
      free_moved = (fun () -> ());
      init_required = true;
    };
  Bcache.release st.State.cache data;
  addr

let f_hole _f = failwith "File: hole in read path"

(* Resolve where the pointer for block [lbn] lives, allocating
   indirect blocks along the way when [alloc] is set. Calls [f] with
   the (referenced) owner buffer, the location, and the current
   pointer value, plus a setter that updates the in-memory pointer. *)
let with_ptr st ip lbn ~alloc f =
  let g = st.State.geom in
  let nd = g.Geom.ndaddr and ni = g.Geom.nindir in
  if lbn < nd then
    Inode.with_ibuf st ip.State.inum (fun ibuf ->
        let get () = ip.State.din.Types.db.(lbn) in
        let set v =
          ip.State.din.Types.db.(lbn) <- v;
          Inode.update st ip
        in
        f ibuf (Intf.P_direct lbn) get set)
  else if lbn < nd + ni then begin
    let slot = lbn - nd in
    let ib =
      if ip.State.din.Types.ib = 0 then
        if alloc then
          Inode.with_ibuf st ip.State.inum (fun ibuf ->
              let addr = alloc_indirect st ip ~owner:ibuf ~loc:Intf.P_ib1 in
              ip.State.din.Types.ib <- addr;
              Inode.update st ip;
              addr)
        else 0
      else ip.State.din.Types.ib
    in
    if ib = 0 then f_hole f
    else
      let buf = read_indirect st ib in
      Fun.protect
        ~finally:(fun () -> Bcache.release st.State.cache buf)
        (fun () ->
          let arr =
            match buf.Buf.content with
            | Buf.Cmeta (Types.Indirect a) -> a
            | Buf.Cmeta _ | Buf.Cdata _ -> assert false
          in
          let get () = arr.(slot) in
          let set v =
            Bcache.prepare_modify st.State.cache buf;
            arr.(slot) <- v;
            Bcache.bdwrite st.State.cache buf
          in
          f buf (Intf.P_ind slot) get set)
  end
  else begin
    let lbn2 = lbn - nd - ni in
    let l1 = lbn2 / ni and slot = lbn2 mod ni in
    if l1 >= ni then failwith "File: file too large";
    let ib2 =
      if ip.State.din.Types.ib2 = 0 then
        if alloc then
          Inode.with_ibuf st ip.State.inum (fun ibuf ->
              let addr = alloc_indirect st ip ~owner:ibuf ~loc:Intf.P_ib2 in
              ip.State.din.Types.ib2 <- addr;
              Inode.update st ip;
              addr)
        else 0
      else ip.State.din.Types.ib2
    in
    if ib2 = 0 then f_hole f
    else begin
      let b2 = read_indirect st ib2 in
      Fun.protect
        ~finally:(fun () -> Bcache.release st.State.cache b2)
        (fun () ->
          let arr2 =
            match b2.Buf.content with
            | Buf.Cmeta (Types.Indirect a) -> a
            | Buf.Cmeta _ | Buf.Cdata _ -> assert false
          in
          let l1_addr =
            if arr2.(l1) = 0 then
              if alloc then begin
                let addr = alloc_indirect st ip ~owner:b2 ~loc:(Intf.P_ind l1) in
                Bcache.prepare_modify st.State.cache b2;
                arr2.(l1) <- addr;
                Bcache.bdwrite st.State.cache b2;
                addr
              end
              else 0
            else arr2.(l1)
          in
          if l1_addr = 0 then f_hole f
          else
            let b1 = read_indirect st l1_addr in
            Fun.protect
              ~finally:(fun () -> Bcache.release st.State.cache b1)
              (fun () ->
                let arr1 =
                  match b1.Buf.content with
                  | Buf.Cmeta (Types.Indirect a) -> a
                  | Buf.Cmeta _ | Buf.Cdata _ -> assert false
                in
                let get () = arr1.(slot) in
                let set v =
                  Bcache.prepare_modify st.State.cache b1;
                  arr1.(slot) <- v;
                  Bcache.bdwrite st.State.cache b1
                in
                f b1 (Intf.P_ind slot) get set))
    end
  end

let ptr_at st ip lbn =
  let g = st.State.geom in
  let nd = g.Geom.ndaddr and ni = g.Geom.nindir in
  if lbn < nd then ip.State.din.Types.db.(lbn)
  else if lbn < nd + ni then begin
    if ip.State.din.Types.ib = 0 then 0
    else
      let buf = read_indirect st ip.State.din.Types.ib in
      Fun.protect
        ~finally:(fun () -> Bcache.release st.State.cache buf)
        (fun () ->
          match buf.Buf.content with
          | Buf.Cmeta (Types.Indirect a) -> a.(lbn - nd)
          | Buf.Cmeta _ | Buf.Cdata _ -> 0)
  end
  else begin
    let lbn2 = lbn - nd - ni in
    let l1 = lbn2 / ni and slot = lbn2 mod ni in
    if ip.State.din.Types.ib2 = 0 then 0
    else
      let b2 = read_indirect st ip.State.din.Types.ib2 in
      let l1_addr =
        Fun.protect
          ~finally:(fun () -> Bcache.release st.State.cache b2)
          (fun () ->
            match b2.Buf.content with
            | Buf.Cmeta (Types.Indirect a) -> a.(l1)
            | Buf.Cmeta _ | Buf.Cdata _ -> 0)
      in
      if l1_addr = 0 then 0
      else
        let b1 = read_indirect st l1_addr in
        Fun.protect
          ~finally:(fun () -> Bcache.release st.State.cache b1)
          (fun () ->
            match b1.Buf.content with
            | Buf.Cmeta (Types.Indirect a) -> a.(slot)
            | Buf.Cmeta _ | Buf.Cdata _ -> 0)
  end

(* --- data block growth ------------------------------------------------ *)

let stamp ip flbn =
  Some
    (Types.Written
       { inum = ip.State.inum; gen = ip.State.din.Types.gen; flbn })

let fill_stamps st ip ~lbn ~count =
  Array.init count (fun i -> stamp ip ((lbn * fpb st) + i))

(* Grow block [lbn] of the file to [want] fragments (from [have],
   possibly 0), producing a data buffer, and run the ordering scheme.
   [old_size]/[new_size] bracket the inode size change. *)
let grow_block st ip ~lbn ~have ~want ~old_size ~new_size =
  let init_required = st.State.alloc_init in
  State.charge st (float_of_int (want - have) *. Costs.data_per_frag);
  with_ptr st ip lbn ~alloc:true (fun owner loc get set ->
      let old_ptr = get () in
      let finish ~data ~new_ptr ~freed ~free_moved =
        ip.State.din.Types.size <- new_size;
        set new_ptr;
        (* the setter only touches the pointer's home; the size lives
           in the inode and must reach its buffer too *)
        Inode.update st ip;
        Bcache.bdwrite st.State.cache data;
        st.State.scheme.Intf.block_alloc
          {
            Intf.inum = ip.State.inum;
            owner;
            loc;
            data;
            new_ptr;
            old_ptr;
            new_size;
            old_size;
            freed;
            free_moved;
            init_required;
          };
        Bcache.release st.State.cache data
      in
      if have = 0 then begin
        (* fresh allocation *)
        let addr =
          if want = fpb st then Alloc.alloc_block st ~cg_hint:(cg_hint st ip)
          else Alloc.alloc_frags st ~cg_hint:(cg_hint st ip) ~count:want
        in
        let deps = st.State.scheme.Intf.reuse_frag_deps [ (addr, want) ] in
        let data =
          Bcache.getblk st.State.cache ~lbn:addr ~nfrags:want ~init:(fun () ->
              Buf.Cdata (fill_stamps st ip ~lbn ~count:want))
        in
        add_wdeps data deps;
        add_wdeps owner deps;
        finish ~data ~new_ptr:addr ~freed:[] ~free_moved:(fun () -> ())
      end
      else if old_ptr = 0 then failwith "File.grow_block: lost fragment run"
      else if Alloc.try_extend st ~start:old_ptr ~have ~want then begin
        (* extend the fragment run in place *)
        let data = Bcache.bread st.State.cache ~lbn:old_ptr ~nfrags:have in
        Bcache.prepare_modify st.State.cache data;
        let stamps =
          Array.init want (fun i ->
              if i < have then
                match data.Buf.content with
                | Buf.Cdata d -> d.(i)
                | Buf.Cmeta _ -> None
              else stamp ip ((lbn * fpb st) + i))
        in
        Bcache.set_extent st.State.cache data ~nfrags:want (Buf.Cdata stamps);
        finish ~data ~new_ptr:old_ptr ~freed:[] ~free_moved:(fun () -> ())
      end
      else begin
        (* move the fragment run to a larger home *)
        let addr =
          if want = fpb st then Alloc.alloc_block st ~cg_hint:(cg_hint st ip)
          else Alloc.alloc_frags st ~cg_hint:(cg_hint st ip) ~count:want
        in
        let deps = st.State.scheme.Intf.reuse_frag_deps [ (addr, want) ] in
        State.charge st
          (float_of_int have *. Costs.copy_per_frag);
        let old_buf = Bcache.bread st.State.cache ~lbn:old_ptr ~nfrags:have in
        let old_stamps =
          match old_buf.Buf.content with
          | Buf.Cdata d -> d
          | Buf.Cmeta _ -> Array.make have None
        in
        let stamps =
          Array.init want (fun i ->
              if i < have then old_stamps.(i) else stamp ip ((lbn * fpb st) + i))
        in
        Bcache.release st.State.cache old_buf;
        Bcache.invalidate st.State.cache old_buf;
        let data =
          Bcache.getblk st.State.cache ~lbn:addr ~nfrags:want ~init:(fun () ->
              Buf.Cdata stamps)
        in
        add_wdeps data deps;
        add_wdeps owner deps;
        let freed = [ (old_ptr, have) ] in
        finish ~data ~new_ptr:addr ~freed
          ~free_moved:(fun () -> Alloc.free_run st (old_ptr, have))
      end)

let append st ip ~bytes =
  if bytes <= 0 then invalid_arg "File.append: bytes must be positive";
  let bb = bb st in
  let cur = ip.State.din.Types.size in
  let target = cur + bytes in
  let small = small_file st ~size:target in
  let first =
    if cur = 0 then 0
    else if cur mod bb = 0 then cur / bb
    else (cur - 1) / bb
  in
  let last = last_lbn st ~size:target in
  let size_before = ref cur in
  let allocated = ref false in
  for lbn = first to last do
    let have = extent_len st ~size:cur ~lbn in
    let want_bytes = min target ((lbn + 1) * bb) - (lbn * bb) in
    let want =
      if small && lbn = last then Geom.frags_of_bytes st.State.geom want_bytes
      else fpb st
    in
    if want > have then begin
      let new_size = min target ((lbn + 1) * bb) in
      grow_block st ip ~lbn ~have ~want ~old_size:!size_before ~new_size;
      size_before := new_size;
      allocated := true
    end
  done;
  ip.State.din.Types.size <- target;
  ip.State.din.Types.mtime <- Su_sim.Engine.now st.State.engine;
  Inode.update st ip;
  (* the write fit inside already-allocated fragments: no alloc hook
     saw the new size, so let the scheme capture the attribute change
     (the journal re-logs the dinode; ordered schemes need nothing) *)
  if not !allocated then
    Inode.with_ibuf st ip.State.inum (fun ibuf ->
        st.State.scheme.Intf.attr_update ~ibuf ~inum:ip.State.inum)

let grow_dir_block st ip =
  let lbn = Geom.blocks_of_bytes st.State.geom ip.State.din.Types.size in
  let addr = Alloc.alloc_block st ~cg_hint:(cg_hint st ip) in
  let deps = st.State.scheme.Intf.reuse_frag_deps [ (addr, fpb st) ] in
  let data =
    Bcache.getblk st.State.cache ~lbn:addr ~nfrags:(fpb st) ~init:(fun () ->
        Buf.Cmeta (Types.Dir (Types.fresh_dir_block st.State.geom)))
  in
  add_wdeps data deps;
  Bcache.bdwrite st.State.cache data;
  let old_size = ip.State.din.Types.size in
  let new_size = (lbn + 1) * bb st in
  let commit () =
    with_ptr st ip lbn ~alloc:true (fun owner loc get set ->
        let old_ptr = get () in
        ip.State.din.Types.size <- new_size;
        set addr;
        Inode.update st ip;
        st.State.scheme.Intf.block_alloc
          {
            Intf.inum = ip.State.inum;
            owner;
            loc;
            data;
            new_ptr = addr;
            old_ptr;
            new_size;
            old_size;
            freed = [];
            free_moved = (fun () -> ());
            (* directory blocks are always initialised on disk first *)
            init_required = true;
          })
  in
  (data, commit)

let read_all st ip =
  let size = ip.State.din.Types.size in
  let nread = ref 0 in
  let last = last_lbn st ~size in
  for lbn = 0 to last do
    let len = extent_len st ~size ~lbn in
    let addr = ptr_at st ip lbn in
    if addr <> 0 && len > 0 then begin
      let buf = Bcache.bread st.State.cache ~lbn:addr ~nfrags:len in
      State.charge st (float_of_int len *. Costs.data_per_frag);
      nread := !nread + len;
      Bcache.release st.State.cache buf
    end
  done;
  !nread

(* --- truncation / release --------------------------------------------- *)

let gather_runs st ip =
  let size = ip.State.din.Types.size in
  let runs = ref [] and bufs = ref [] in
  let add_run r = runs := r :: !runs in
  let note_buf addr = bufs := addr :: !bufs in
  let din = ip.State.din in
  Array.iteri
    (fun i ptr ->
      if ptr <> 0 then begin
        let len = extent_len st ~size ~lbn:i in
        let len = if len = 0 then fpb st else len in
        add_run (ptr, len);
        note_buf ptr
      end)
    din.Types.db;
  let drain_indirect addr =
    let buf = read_indirect st addr in
    let arr =
      match buf.Buf.content with
      | Buf.Cmeta (Types.Indirect a) -> Array.copy a
      | Buf.Cmeta _ | Buf.Cdata _ -> [||]
    in
    Bcache.release st.State.cache buf;
    Array.iter
      (fun ptr ->
        if ptr <> 0 then begin
          add_run (ptr, fpb st);
          note_buf ptr
        end)
      arr;
    arr
  in
  if din.Types.ib <> 0 then begin
    ignore (drain_indirect din.Types.ib);
    add_run (din.Types.ib, fpb st);
    note_buf din.Types.ib
  end;
  if din.Types.ib2 <> 0 then begin
    let b2 = read_indirect st din.Types.ib2 in
    let arr2 =
      match b2.Buf.content with
      | Buf.Cmeta (Types.Indirect a) -> Array.copy a
      | Buf.Cmeta _ | Buf.Cdata _ -> [||]
    in
    Bcache.release st.State.cache b2;
    Array.iter
      (fun l1 ->
        if l1 <> 0 then begin
          ignore (drain_indirect l1);
          add_run (l1, fpb st);
          note_buf l1
        end)
      arr2;
    add_run (din.Types.ib2, fpb st);
    note_buf din.Types.ib2
  end;
  (!runs, !bufs)

let truncate_release st ip ~free_inode =
  let runs, buf_addrs = gather_runs st ip in
  let din = ip.State.din in
  Array.fill din.Types.db 0 (Array.length din.Types.db) 0;
  din.Types.ib <- 0;
  din.Types.ib2 <- 0;
  din.Types.size <- 0;
  if free_inode then begin
    din.Types.ftype <- Types.F_free;
    din.Types.nlink <- 0
  end;
  Inode.update st ip;
  let inum = ip.State.inum in
  if runs <> [] || free_inode then
    Inode.with_ibuf st inum (fun ibuf ->
        st.State.scheme.Intf.block_dealloc ~ibuf ~inum ~runs
          ~inode_freed:free_inode
          ~do_free:(fun () ->
            List.iter (fun r -> Alloc.free_run st r) runs;
            if free_inode then Alloc.free_inode st inum));
  (* drop the cached buffers of the freed extents *)
  List.iter
    (fun addr ->
      match Bcache.lookup st.State.cache addr with
      | Some b -> Bcache.invalidate st.State.cache b
      | None -> ())
    buf_addrs
