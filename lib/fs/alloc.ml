open Su_fstypes
open Su_cache

let with_cg st c f =
  let lbn = Geom.cg_header_frag st.State.geom c in
  let buf = Bcache.bread st.State.cache ~lbn ~nfrags:(State.block_frags st) in
  Fun.protect
    ~finally:(fun () -> Bcache.release st.State.cache buf)
    (fun () ->
      match buf.Buf.content with
      | Buf.Cmeta (Types.Cgroup cg) ->
        Bcache.prepare_modify st.State.cache buf;
        let r = f cg in
        Bcache.bdwrite st.State.cache buf;
        r
      | Buf.Cmeta _ | Buf.Cdata _ -> failwith "Alloc: bad cylinder-group block")

let with_lock st f =
  Su_sim.Sync.Mutex.with_lock st.State.alloc_mutex f

let used = '\001'
let free = '\000'

(* Search the group's data area for [count] contiguous free fragments
   starting at an offset where the run cannot cross a block boundary
   ([aligned] forces block alignment). Returns a group-relative
   offset. The search runs on the group's {!Freemap} bitset mirror —
   first fit in rotor order, the same offset the historical stepped
   byte scan returned (see {!Freemap.find_run}). *)
let find_run st c fm ~count ~aligned =
  let g = st.State.geom in
  let fpb = g.Geom.frags_per_block in
  let base = Geom.cg_base g c in
  let first, total = Geom.cg_data_area g c in
  Freemap.find_run fm ~base ~rel_first:(first - base) ~total ~fpb
    ~rotor:st.State.rotor.(c) ~count ~aligned

let claim cg fm off count =
  for i = 0 to count - 1 do
    Bytes.set cg.Types.frag_map (off + i) used
  done;
  Freemap.note_claim fm ~off ~count;
  cg.Types.nffree <- cg.Types.nffree - count

let alloc_in_group st c ~count ~aligned =
  let fm = st.State.freemaps.(c) in
  with_cg st c (fun cg ->
      if cg.Types.nffree < count then None
      else begin
        Freemap.ensure fm cg;
        match find_run st c fm ~count ~aligned with
        | None -> None
        | Some off ->
          claim cg fm off count;
          st.State.rotor.(c) <- off + count;
          Some (Geom.cg_base st.State.geom c + off)
      end)

let alloc_run st ~cg_hint ~count ~aligned =
  State.charge st Costs.alloc_op;
  with_lock st (fun () ->
      let ncg = Geom.cg_count st.State.geom in
      let rec try_group i =
        if i >= ncg then failwith "Alloc: file system full"
        else
          let c = (cg_hint + i) mod ncg in
          match alloc_in_group st c ~count ~aligned with
          | Some addr -> addr
          | None -> try_group (i + 1)
      in
      try_group 0)

let alloc_block st ~cg_hint =
  alloc_run st ~cg_hint ~count:(State.block_frags st) ~aligned:true

let alloc_frags st ~cg_hint ~count =
  if count <= 0 || count > State.block_frags st then
    invalid_arg "Alloc.alloc_frags: bad count";
  alloc_run st ~cg_hint ~count ~aligned:(count = State.block_frags st)

let try_extend st ~start ~have ~want =
  if want <= have then invalid_arg "Alloc.try_extend: not an extension";
  let g = st.State.geom in
  let fpb = g.Geom.frags_per_block in
  if (start mod fpb) + want > fpb then false
  else begin
    State.charge st Costs.alloc_op;
    with_lock st (fun () ->
        let c = Geom.cg_of_frag g start in
        let fm = st.State.freemaps.(c) in
        with_cg st c (fun cg ->
            Freemap.ensure fm cg;
            let base = Geom.cg_base g c in
            let off = start - base in
            let extra = want - have in
            let rec all_free i =
              i >= extra
              || (Bytes.get cg.Types.frag_map (off + have + i) = free
                  && all_free (i + 1))
            in
            if all_free 0 then begin
              for i = 0 to extra - 1 do
                Bytes.set cg.Types.frag_map (off + have + i) used
              done;
              Freemap.note_claim fm ~off:(off + have) ~count:extra;
              cg.Types.nffree <- cg.Types.nffree - extra;
              true
            end
            else false))
  end

let free_run st (start, len) =
  if len <= 0 then invalid_arg "Alloc.free_run: empty run";
  with_lock st (fun () ->
      let g = st.State.geom in
      let c = Geom.cg_of_frag g start in
      let fm = st.State.freemaps.(c) in
      with_cg st c (fun cg ->
          Freemap.ensure fm cg;
          let base = Geom.cg_base g c in
          for i = 0 to len - 1 do
            let off = start - base + i in
            if Bytes.get cg.Types.frag_map off = free then
              failwith "Alloc.free_run: double free"
            else Bytes.set cg.Types.frag_map off free
          done;
          Freemap.note_release fm ~off:(start - base) ~count:len;
          cg.Types.nffree <- cg.Types.nffree + len))

let alloc_inode st ~cg_hint ~spread =
  State.charge st Costs.alloc_op;
  with_lock st (fun () ->
      let g = st.State.geom in
      let ncg = Geom.cg_count g in
      let start =
        if spread then begin
          st.State.next_cg <- (st.State.next_cg + 1) mod ncg;
          st.State.next_cg
        end
        else cg_hint
      in
      let rec try_group i =
        if i >= ncg then failwith "Alloc: out of inodes"
        else
          let c = (start + i) mod ncg in
          let fm = st.State.freemaps.(c) in
          match
            with_cg st c (fun cg ->
                if cg.Types.nifree = 0 then None
                else begin
                  Freemap.ensure fm cg;
                  (* lowest-free-first, as the byte scan allocated *)
                  match Freemap.min_free_inode fm with
                  | -1 -> None
                  | j ->
                    Bytes.set cg.Types.inode_map j used;
                    Freemap.note_inode_claim fm j;
                    cg.Types.nifree <- cg.Types.nifree - 1;
                    Some (Geom.first_inum_of_cg g c + j)
                end)
          with
          | Some inum -> inum
          | None -> try_group (i + 1)
      in
      try_group 0)

let free_inode st inum =
  (* a freed directory's lookup index must die with it: the inum may
     be recycled for an unrelated directory *)
  (match st.State.dirx with
   | Some dx -> Dir_index.forget dx inum
   | None -> ());
  with_lock st (fun () ->
      let g = st.State.geom in
      let c = Geom.cg_of_inode g inum in
      let fm = st.State.freemaps.(c) in
      with_cg st c (fun cg ->
          Freemap.ensure fm cg;
          let j = inum - Geom.first_inum_of_cg g c in
          if Bytes.get cg.Types.inode_map j = free then
            failwith "Alloc.free_inode: double free"
          else begin
            Bytes.set cg.Types.inode_map j free;
            Freemap.note_inode_release fm j;
            cg.Types.nifree <- cg.Types.nifree + 1
          end))

let free_frags_total st =
  let total = ref 0 in
  for c = 0 to Geom.cg_count st.State.geom - 1 do
    with_cg st c (fun cg -> total := !total + cg.Types.nffree)
  done;
  !total
