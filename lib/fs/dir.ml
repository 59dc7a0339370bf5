open Su_fstypes
open Su_cache
module Intf = Su_core.Scheme_intf

let nblocks st (dip : State.incore) =
  Geom.blocks_of_bytes st.State.geom dip.State.din.Types.size

let with_dir_block st dip i f =
  let addr = File.ptr_at st dip i in
  if addr = 0 then failwith "Dir: directory hole";
  let buf = Bcache.bread st.State.cache ~lbn:addr ~nfrags:(State.block_frags st) in
  Fun.protect
    ~finally:(fun () -> Bcache.release st.State.cache buf)
    (fun () ->
      match buf.Buf.content with
      | Buf.Cmeta (Types.Dir entries) -> f buf entries
      | Buf.Cmeta _ | Buf.Cdata _ -> failwith "Dir: bad directory block")

(* Lazily index the directory on its first lookup or insert (callers
   hold the directory inode's lock, so the build cannot race a
   mutation). The build is the full scan it replaces and is charged as
   one: every block is read and every slot examined once. *)
let ensure_index st (dip : State.incore) =
  match st.State.dirx with
  | None -> None
  | Some dx ->
    let inum = dip.State.inum in
    if not (Dir_index.known dx inum) then begin
      let nb = nblocks st dip in
      let cost = Costs.namei_entry in
      Dir_index.build dx inum ~nblocks:nb;
      for i = 0 to nb - 1 do
        with_dir_block st dip i (fun _ entries ->
            State.charge st (float_of_int (Array.length entries) *. cost);
            Array.iteri
              (fun slot -> function
                | Some e -> Dir_index.note_insert dx inum ~blk:i ~slot e.Types.name
                | None -> ())
              entries)
      done
    end;
    Some dx

(* Scan charging per entry examined; stops at the first match. The
   callback also receives the block index so mutators can maintain the
   index. *)
let find_scan st dip name f =
  let nb = nblocks st dip in
  let cost = Costs.namei_entry in
  let rec go i =
    if i >= nb then None
    else
      let found =
        with_dir_block st dip i (fun buf entries ->
            let n = Array.length entries in
            let rec scan j =
              if j >= n then begin
                State.charge st (float_of_int n *. cost);
                None
              end
              else
                match entries.(j) with
                | Some e when e.Types.name = name ->
                  State.charge st (float_of_int (j + 1) *. cost);
                  Some (f buf entries ~blk:i j e)
                | Some _ | None -> scan (j + 1)
            in
            scan 0)
      in
      match found with Some r -> Some r | None -> go (i + 1)
  in
  go 0

(* With the index on, a lookup is a hash probe plus one entry
   verification in the target block (the dirhash cost model: two
   entry-compares on a hit, one on a miss) and touches a single
   directory block instead of scanning from block 0. *)
let find st dip name f =
  match ensure_index st dip with
  | None -> find_scan st dip name f
  | Some dx -> (
    let cost = Costs.namei_entry in
    match Dir_index.lookup dx dip.State.inum name with
    | None ->
      State.charge st cost;
      None
    | Some (blk, slot) ->
      State.charge st (2.0 *. cost);
      with_dir_block st dip blk (fun buf entries ->
          match entries.(slot) with
          | Some e when e.Types.name = name -> Some (f buf entries ~blk slot e)
          | Some _ | None -> failwith "Dir: lookup index out of sync"))

let lookup st dip name = find st dip name (fun _ _ ~blk:_ _ e -> e.Types.inum)

let do_link_add st ~dir ~slot ~inum =
  Inode.with_ibuf st inum (fun ibuf ->
      st.State.scheme.Intf.link_add ~dir ~slot ~ibuf ~inum)

let insert_prepared ?(link_dep = true) st ~dir ~slot name inum =
  Bcache.prepare_modify st.State.cache dir;
  (match dir.Buf.content with
   | Buf.Cmeta (Types.Dir entries) ->
     entries.(slot) <- Some { Types.name; inum }
   | Buf.Cmeta _ | Buf.Cdata _ -> failwith "Dir: bad directory block");
  State.charge st Costs.dirent_update;
  Bcache.bdwrite st.State.cache dir;
  if link_dep then do_link_add st ~dir ~slot ~inum

(* Append a fresh directory block and insert into its slot 0. *)
let add_in_new_block st dip name inum =
  let buf, commit = File.grow_dir_block st dip in
  Fun.protect
    ~finally:(fun () -> Bcache.release st.State.cache buf)
    (fun () ->
      Bcache.prepare_modify st.State.cache buf;
      (match buf.Buf.content with
       | Buf.Cmeta (Types.Dir entries) ->
         entries.(0) <- Some { Types.name; inum }
       | Buf.Cmeta _ | Buf.Cdata _ -> failwith "Dir: bad directory block");
      State.charge st Costs.dirent_update;
      Bcache.bdwrite st.State.cache buf;
      commit ();
      do_link_add st ~dir:buf ~slot:0 ~inum)

let add_in_slot st buf entries ~slot name inum =
  Bcache.prepare_modify st.State.cache buf;
  entries.(slot) <- Some { Types.name; inum };
  State.charge st Costs.dirent_update;
  Bcache.bdwrite st.State.cache buf;
  do_link_add st ~dir:buf ~slot ~inum

let add_entry st dip name inum =
  let cost = Costs.namei_entry in
  match ensure_index st dip with
  | Some dx -> (
    (* the free-slot map sends us straight to a block with room; one
       probe charged, then the in-block slot search is part of the
       dirent update *)
    let dinum = dip.State.inum in
    State.charge st cost;
    match Dir_index.first_free_block dx dinum with
    | Some blk ->
      with_dir_block st dip blk (fun buf entries ->
          match Types.dir_free_slot entries with
          | Some slot ->
            add_in_slot st buf entries ~slot name inum;
            Dir_index.note_insert dx dinum ~blk ~slot name
          | None -> failwith "Dir: free-slot index out of sync")
    | None ->
      let blk = nblocks st dip in
      add_in_new_block st dip name inum;
      Dir_index.note_grow dx dinum;
      Dir_index.note_insert dx dinum ~blk ~slot:0 name)
  | None -> (
    let nb = nblocks st dip in
    (* find a free slot, charging for the scan *)
    let rec place i =
      if i >= nb then None
      else
        let r =
          with_dir_block st dip i (fun buf entries ->
              State.charge st (float_of_int (Array.length entries) *. cost);
              match Types.dir_free_slot entries with
              | Some slot ->
                add_in_slot st buf entries ~slot name inum;
                Some ()
              | None -> None)
        in
        match r with Some () -> Some () | None -> place (i + 1)
    in
    match place 0 with
    | Some () -> ()
    | None -> add_in_new_block st dip name inum)

let change_entry st dip name new_inum ~decrement =
  let changed =
    (* re-points the entry in place: name and slot are unchanged, so
       the lookup index needs no update *)
    find st dip name (fun buf entries ~blk:_ slot e ->
        if e.Types.inum = new_inum then ()
        else begin
          Bcache.prepare_modify st.State.cache buf;
          entries.(slot) <- Some { Types.name; inum = new_inum };
          State.charge st Costs.dirent_update;
          Bcache.bdwrite st.State.cache buf;
          Inode.with_ibuf st new_inum (fun ibuf ->
              Inode.with_ibuf st e.Types.inum (fun old_ibuf ->
                  st.State.scheme.Intf.link_change ~dir:buf ~slot ~ibuf
                    ~inum:new_inum ~old_entry:e ~old_ibuf
                    ~decrement:(fun () -> decrement e.Types.inum)))
        end)
  in
  Option.is_some changed

let remove_entry st dip name ~decrement =
  let removed =
    find st dip name (fun buf entries ~blk slot e ->
        Bcache.prepare_modify st.State.cache buf;
        entries.(slot) <- None;
        (match st.State.dirx with
         | Some dx -> Dir_index.note_remove dx dip.State.inum ~blk name
         | None -> ());
        State.charge st Costs.dirent_update;
        Bcache.bdwrite st.State.cache buf;
        let inum = e.Types.inum in
        let parent_inum = dip.State.inum in
        Inode.with_ibuf st inum (fun ibuf ->
            Inode.with_ibuf st parent_inum (fun parent_ibuf ->
                st.State.scheme.Intf.link_remove ~dir:buf ~slot ~inum ~ibuf
                  ~parent_inum ~parent_ibuf
                  ~decrement:(fun () -> decrement inum))))
  in
  Option.is_some removed

let fold_entries st dip f acc =
  let nb = nblocks st dip in
  let acc = ref acc in
  for i = 0 to nb - 1 do
    with_dir_block st dip i (fun _ entries ->
        Array.iter
          (function Some e -> acc := f !acc e | None -> ())
          entries)
  done;
  !acc

let entry_capacity st dip = nblocks st dip * st.State.geom.Geom.dir_capacity

let list_names st dip =
  State.charge st
    (float_of_int (entry_capacity st dip) *. Costs.namei_entry);
  List.rev (fold_entries st dip (fun acc e -> e.Types.name :: acc) [])

let is_empty st dip =
  fold_entries st dip
    (fun ok e -> ok && (e.Types.name = "." || e.Types.name = ".."))
    true
