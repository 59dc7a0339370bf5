open Su_fstypes
open Su_cache

let ibuf_lbn st inum = Geom.inode_block_frag st.State.geom inum

let with_ibuf st inum f =
  let buf =
    Bcache.bread st.State.cache ~lbn:(ibuf_lbn st inum)
      ~nfrags:(State.block_frags st)
  in
  (* inode blocks are not materialised by mkfs: a never-written block
     reads back as garbage and stands for all-free dinodes *)
  (match buf.Buf.content with
   | Buf.Cdata _ ->
     buf.Buf.content <- Buf.Cmeta (Types.fresh_inode_block st.State.geom)
   | Buf.Cmeta _ -> ());
  Fun.protect
    ~finally:(fun () -> Bcache.release st.State.cache buf)
    (fun () -> f buf)

let slot_of st inum = Geom.inode_index_in_block st.State.geom inum

let iget st inum =
  match Hashtbl.find_opt st.State.icache inum with
  | Some ip ->
    ip.State.refs <- ip.State.refs + 1;
    ip
  | None ->
    let din =
      with_ibuf st inum (fun buf ->
          match buf.Buf.content with
          | Buf.Cmeta (Types.Inodes dinodes) ->
            Types.copy_dinode dinodes.(slot_of st inum)
          | Buf.Cmeta _ | Buf.Cdata _ -> failwith "Inode.iget: bad inode block")
    in
    (* the read blocked: another process may have installed the inode
       meanwhile — two in-core copies would race and lose updates *)
    (match Hashtbl.find_opt st.State.icache inum with
     | Some ip ->
       ip.State.refs <- ip.State.refs + 1;
       ip
     | None ->
       let ip =
         {
           State.inum;
           din;
           ilock = Su_sim.Sync.Mutex.create st.State.engine;
           refs = 1;
         }
       in
       Hashtbl.replace st.State.icache inum ip;
       ip)

let iput st ip =
  ip.State.refs <- ip.State.refs - 1;
  if ip.State.refs <= 0 then Hashtbl.remove st.State.icache ip.State.inum

let with_inode st inum f =
  let ip = iget st inum in
  Fun.protect
    ~finally:(fun () -> iput st ip)
    (fun () ->
      Su_sim.Sync.Mutex.with_lock ip.State.ilock (fun () -> f ip))

let update st ip =
  State.charge st Costs.inode_update;
  with_ibuf st ip.State.inum (fun buf ->
      Bcache.prepare_modify st.State.cache buf;
      (match buf.Buf.content with
       | Buf.Cmeta (Types.Inodes dinodes) ->
         dinodes.(slot_of st ip.State.inum) <- Types.copy_dinode ip.State.din
       | Buf.Cmeta _ | Buf.Cdata _ -> failwith "Inode.update: bad inode block");
      Bcache.bdwrite st.State.cache buf)

let allocate st ~ftype ~cg_hint ~spread =
  let inum = Alloc.alloc_inode st ~cg_hint ~spread in
  st.State.gen_counter <- st.State.gen_counter + 1;
  let din = Types.free_dinode st.State.geom in
  din.Types.ftype <- ftype;
  din.Types.nlink <- 0;
  din.Types.gen <- st.State.gen_counter;
  din.Types.mtime <- Su_sim.Engine.now st.State.engine;
  (* a stale in-core inode for a previous life of this number must not
     survive reallocation *)
  Hashtbl.remove st.State.icache inum;
  let ip =
    { State.inum; din; ilock = Su_sim.Sync.Mutex.create st.State.engine; refs = 1 }
  in
  Hashtbl.replace st.State.icache inum ip;
  update st ip;
  ip
