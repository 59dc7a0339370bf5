type stamp =
  | Zeroed
  | Written of { inum : int; gen : int; flbn : int }

type ftype = F_free | F_reg | F_dir

type dinode = {
  mutable ftype : ftype;
  mutable nlink : int;
  mutable size : int;
  mutable gen : int;
  mutable db : int array;
  mutable ib : int;
  mutable ib2 : int;
  mutable mtime : float;
}

type dirent = { name : string; inum : int }

type cg = {
  frag_map : Bytes.t;
  inode_map : Bytes.t;
  mutable nffree : int;
  mutable nifree : int;
}

type superblock = {
  sb_magic : int;
  sb_nfrags : int;
  sb_ncg : int;
  mutable sb_clean : bool;
}

type meta =
  | Superblock of superblock
  | Cgroup of cg
  | Inodes of dinode array
  | Dir of dirent option array
  | Indirect of int array

type jrec =
  | J_dinode of { inum : int; din : dinode }
  | J_entry of { blk : int; slot : int; entry : dirent option }
  | J_dir_init of { blk : int }
  | J_ind_init of { blk : int }
  | J_ind_set of { blk : int; slot : int; ptr : int }

type cell =
  | Empty
  | Pad
  | Meta of meta
  | Frag of stamp
  | Jlog of { seq : int; recs : jrec list }
  | Rmap of (int * int) list
      (* bad-sector remap table, [(logical, spare)] in allocation
         order; lives in the reserved slot past the addressable media *)
  | Csum of int array
      (* per-fragment checksum region, one digest per media fragment;
         lives in the reserved slot past the media and the spares *)

let magic = 0x011954

(* --- structural digest (FNV-1a over a canonical serialization) ------ *)

(* 64-bit FNV-1a constants, truncated to OCaml's 63-bit native int.
   Multiplication wraps; the fold is deterministic on any 64-bit
   platform, which is all the checksum layer needs. *)
let fnv_offset = 0x25cbf29ce484222
let fnv_prime = 0x100000001b3

let d_byte h b = (h lxor (b land 0xff)) * fnv_prime

let d_int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := d_byte !h ((v asr (i * 8)) land 0xff)
  done;
  !h

let d_bool h b = d_byte h (if b then 1 else 0)

let d_float h f =
  let bits = Int64.bits_of_float f in
  let lo = Int64.to_int (Int64.logand bits 0xffffffffL) in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  d_int (d_int h lo) hi

let d_string h s =
  let h = ref (d_int h (String.length s)) in
  String.iter (fun c -> h := d_byte !h (Char.code c)) s;
  !h

(* Same fold as [d_string] over the same bytes — length, then each
   byte — but reading the buffer in place. [Bytes.to_string] here used
   to copy every cg frag/inode map (kilobytes per cell) on each
   structural digest, which is hot under [--checksums] and in
   golden-trace digesting. *)
let d_bytes h b =
  let n = Bytes.length b in
  let h = ref (d_int h n) in
  for i = 0 to n - 1 do
    h := d_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h
let d_int_array h a = Array.fold_left d_int (d_int h (Array.length a)) a

let d_stamp h = function
  | Zeroed -> d_byte h 1
  | Written { inum; gen; flbn } ->
    d_int (d_int (d_int (d_byte h 2) inum) gen) flbn

let d_ftype h t =
  d_byte h (match t with F_free -> 1 | F_reg -> 2 | F_dir -> 3)

let d_dinode h d =
  let h = d_ftype h d.ftype in
  let h = d_int h d.nlink in
  let h = d_int h d.size in
  let h = d_int h d.gen in
  let h = d_int_array h d.db in
  let h = d_int h d.ib in
  let h = d_int h d.ib2 in
  d_float h d.mtime

let d_dirent h = function
  | None -> d_byte h 0
  | Some e -> d_int (d_string (d_byte h 1) e.name) e.inum

let d_meta h = function
  | Superblock sb ->
    let h = d_byte h 1 in
    let h = d_int h sb.sb_magic in
    let h = d_int h sb.sb_nfrags in
    let h = d_int h sb.sb_ncg in
    d_bool h sb.sb_clean
  | Cgroup c ->
    let h = d_byte h 2 in
    let h = d_bytes h c.frag_map in
    let h = d_bytes h c.inode_map in
    let h = d_int h c.nffree in
    d_int h c.nifree
  | Inodes ds ->
    Array.fold_left d_dinode (d_int (d_byte h 3) (Array.length ds)) ds
  | Dir entries ->
    Array.fold_left d_dirent (d_int (d_byte h 4) (Array.length entries)) entries
  | Indirect ptrs -> d_int_array (d_byte h 5) ptrs

let d_jrec h = function
  | J_dinode { inum; din } -> d_dinode (d_int (d_byte h 1) inum) din
  | J_entry { blk; slot; entry } ->
    d_dirent (d_int (d_int (d_byte h 2) blk) slot) entry
  | J_dir_init { blk } -> d_int (d_byte h 3) blk
  | J_ind_init { blk } -> d_int (d_byte h 4) blk
  | J_ind_set { blk; slot; ptr } ->
    d_int (d_int (d_int (d_byte h 5) blk) slot) ptr

let cell_digest c =
  let h =
    match c with
    | Empty -> d_byte fnv_offset 1
    | Pad -> d_byte fnv_offset 2
    | Frag s -> d_stamp (d_byte fnv_offset 3) s
    | Meta m -> d_meta (d_byte fnv_offset 4) m
    | Jlog { seq; recs } ->
      List.fold_left d_jrec
        (d_int (d_int (d_byte fnv_offset 5) seq) (List.length recs))
        recs
    | Rmap entries ->
      List.fold_left
        (fun h (l, s) -> d_int (d_int h l) s)
        (d_int (d_byte fnv_offset 6) (List.length entries))
        entries
    | Csum a -> d_int_array (d_byte fnv_offset 7) a
  in
  h land max_int

let free_dinode (g : Geom.t) =
  {
    ftype = F_free;
    nlink = 0;
    size = 0;
    gen = 0;
    db = Array.make g.Geom.ndaddr 0;
    ib = 0;
    ib2 = 0;
    mtime = 0.0;
  }

(* One canonical all-free dinode, shared by every slot of every fresh
   inode block. The contract that makes the sharing sound: a dinode
   held inside an [Inodes] array is never mutated in place — writers
   replace the slot ([dinodes.(i) <- copy_dinode d]) and every repair
   or rollback path copies the block first ([copy_meta]/[copy_dinode]
   unshare). Before this, each fresh block allocated
   [inodes_per_block] records and [db] arrays that existed only to
   read back as "free": on a large mkfs that is millions of dead
   arrays before first use. *)
let canonical_free_dinode =
  {
    ftype = F_free;
    nlink = 0;
    size = 0;
    gen = 0;
    db = Array.make 12 0;
    ib = 0;
    ib2 = 0;
    mtime = 0.0;
  }

let fresh_inode_block g =
  let d =
    if g.Geom.ndaddr = Array.length canonical_free_dinode.db then
      canonical_free_dinode
    else free_dinode g
  in
  Inodes (Array.make g.Geom.inodes_per_block d)

let fresh_dir_block (g : Geom.t) : dirent option array =
  Array.make g.Geom.dir_capacity None

let fresh_indirect (g : Geom.t) = Array.make g.Geom.nindir 0

let fresh_cg (g : Geom.t) =
  {
    frag_map = Bytes.make g.Geom.cg_frags '\000';
    inode_map = Bytes.make g.Geom.inodes_per_cg '\000';
    nffree = 0;
    nifree = 0;
  }

let copy_dinode d = { d with db = Array.copy d.db }

(* [{ sb with ... }] would also build a fresh record, but reads as a
   no-op; spell the copy out so every [copy_*] helper visibly
   allocates new mutable structure. *)
let copy_superblock sb =
  {
    sb_magic = sb.sb_magic;
    sb_nfrags = sb.sb_nfrags;
    sb_ncg = sb.sb_ncg;
    sb_clean = sb.sb_clean;
  }

let copy_cg c =
  {
    frag_map = Bytes.copy c.frag_map;
    inode_map = Bytes.copy c.inode_map;
    nffree = c.nffree;
    nifree = c.nifree;
  }

let copy_meta = function
  | Superblock sb -> Superblock (copy_superblock sb)
  | Cgroup c -> Cgroup (copy_cg c)
  | Inodes ds -> Inodes (Array.map copy_dinode ds)
  | Dir entries -> Dir (Array.copy entries)
  | Indirect ptrs -> Indirect (Array.copy ptrs)

let snapshot_meta = function
  | Inodes ds -> Inodes (Array.copy ds)
  | (Superblock _ | Cgroup _ | Dir _ | Indirect _) as m -> copy_meta m

let copy_jrec = function
  | J_dinode { inum; din } -> J_dinode { inum; din = copy_dinode din }
  | J_entry _ | J_dir_init _ | J_ind_init _ | J_ind_set _ as r -> r

let copy_cell = function
  | Empty -> Empty
  | Pad -> Pad
  | Meta m -> Meta (copy_meta m)
  | Frag s -> Frag s
  | Jlog { seq; recs } -> Jlog { seq; recs = List.map copy_jrec recs }
  | Rmap entries -> Rmap entries
  | Csum a -> Csum (Array.copy a)

let copy_image image =
  let img = Array.copy image in
  for i = 0 to Array.length img - 1 do
    match img.(i) with
    | (Meta _ | Jlog _ | Csum _) as c -> img.(i) <- copy_cell c
    | Empty | Pad | Frag _ | Rmap _ -> ()
  done;
  img

let dir_entry_count entries =
  Array.fold_left (fun n e -> match e with Some _ -> n + 1 | None -> n) 0 entries

let dir_find entries name =
  let n = Array.length entries in
  let rec go i =
    if i >= n then None
    else
      match entries.(i) with
      | Some e when e.name = name -> Some (i, e)
      | Some _ | None -> go (i + 1)
  in
  go 0

let dir_free_slot entries =
  let n = Array.length entries in
  let rec go i =
    if i >= n then None
    else match entries.(i) with None -> Some i | Some _ -> go (i + 1)
  in
  go 0

let image_dinode (g : Geom.t) image inum =
  if not (Geom.valid_inum g inum) then None
  else
    match image.(Geom.inode_block_frag g inum) with
    | Meta (Inodes dinodes) ->
      let d = dinodes.(Geom.inode_index_in_block g inum) in
      if d.ftype = F_free then None else Some d
    | Empty | Pad | Frag _ | Meta _ | Jlog _ | Rmap _ | Csum _ ->
      (* an inode block never written reads back all-free *)
      None

let image_csum (g : Geom.t) image =
  let rec go i =
    if i < g.Geom.nfrags then None
    else match image.(i) with Csum ca -> Some (i, ca) | _ -> go (i - 1)
  in
  go (Array.length image - 1)

let stamp_matches s ~inum ~gen =
  match s with
  | Zeroed -> true
  | Written w -> w.inum = inum && w.gen = gen

let pp_stamp ppf = function
  | Zeroed -> Format.fprintf ppf "zeroed"
  | Written w -> Format.fprintf ppf "w(ino=%d,gen=%d,flbn=%d)" w.inum w.gen w.flbn

let pp_cell ppf = function
  | Empty -> Format.pp_print_string ppf "empty"
  | Pad -> Format.pp_print_string ppf "pad"
  | Frag s -> Format.fprintf ppf "frag[%a]" pp_stamp s
  | Meta (Superblock _) -> Format.pp_print_string ppf "superblock"
  | Meta (Cgroup _) -> Format.pp_print_string ppf "cgroup"
  | Meta (Inodes _) -> Format.pp_print_string ppf "inodes"
  | Meta (Dir _) -> Format.pp_print_string ppf "dir"
  | Meta (Indirect _) -> Format.pp_print_string ppf "indirect"
  | Jlog { seq; recs } ->
    Format.fprintf ppf "jlog[seq=%d,%d recs]" seq (List.length recs)
  | Rmap entries -> Format.fprintf ppf "rmap[%d entries]" (List.length entries)
  | Csum a -> Format.fprintf ppf "csum[%d frags]" (Array.length a)
