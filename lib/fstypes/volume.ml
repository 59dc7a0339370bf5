(* Compact slab-backed disk image. See volume.mli and HACKING.md
   "Volume representation" for the layout contract; the invariants the
   whole refactor rests on are

     read (set t i c) == c           (structural equality, all cells)
     digest t i = Types.cell_digest (read t i)   (bit-identical)

   so the representation swap is invisible to digests, golden traces
   and the crash/fault/corrupt sweeps. *)

(* --- tag plane --------------------------------------------------------- *)

(* One byte per cell says what the payload word [aux] means. *)
let tag_empty = 0
let tag_pad = 1
let tag_frag0 = 2 (* Frag Zeroed, no payload *)
let tag_fragw = 3 (* Frag (Written _) packed into aux *)
let tag_ino = 4 (* aux = inode-slab arena index *)
let tag_dir = 5 (* aux = dir-slab arena index *)
let tag_ind = 6 (* aux = indirect-slab arena index *)
let tag_box = 7 (* aux = boxed-cell arena index *)
let tag_mounted = 8 (* the cell is [base.(i)] of the mounted array *)

(* Packed [Written] stamp: inum:21 | gen:19 | flbn:20 = 60 bits, safely
   inside OCaml's 63-bit int. Covers 2M inodes, 512k generations and
   1 GB files; anything larger boxes. *)
let inum_bits = 21
let gen_bits = 19
let flbn_bits = 20
let fits bits v = v >= 0 && v < 1 lsl bits

let u32_ok v = v >= 0 && v <= 0xffffffff

(* [Array.for_all u32_ok a] without the closure [Array.for_all]
   allocates per call: this runs once per dinode on every inode-block
   write. *)
let rec u32s_ok a i = i >= Array.length a || (u32_ok a.(i) && u32s_ok a (i + 1))

(* --- growable arenas --------------------------------------------------- *)

type 'a arena = {
  mutable items : 'a array;
  mutable used : int; (* high-water mark *)
  mutable freel : int list; (* released slots below the mark *)
  dummy : 'a; (* fills released slots so the GC drops the payload *)
}

let arena dummy = { items = [||]; used = 0; freel = []; dummy }

let arena_alloc a v =
  match a.freel with
  | i :: tl ->
    a.freel <- tl;
    a.items.(i) <- v;
    i
  | [] ->
    if a.used = Array.length a.items then begin
      let items = Array.make (max 8 (2 * a.used)) a.dummy in
      Array.blit a.items 0 items 0 a.used;
      a.items <- items
    end;
    let i = a.used in
    a.items.(i) <- v;
    a.used <- i + 1;
    i

let arena_release a i =
  a.items.(i) <- a.dummy;
  a.freel <- i :: a.freel

let arena_map f a =
  { items = Array.map f a.items; used = a.used; freel = a.freel; dummy = a.dummy }

let arena_live a = a.used - List.length a.freel

(* --- slab encodings ---------------------------------------------------- *)

let get_u32 b o = Int32.to_int (Bytes.get_int32_le b o) land 0xffffffff
let set_u32 b o v = Bytes.set_int32_le b o (Int32.of_int v)

(* Inode slab: [u32 ipb][u32 ndaddr], then [ipb] records of
   [36 + 4*ndaddr] bytes — i64 size, i64 mtime bits, u32 ftype code /
   nlink / gen / ib / ib2, u32 db[ndaddr]. *)

let ino_stride nd = 36 + (4 * nd)

let ino_ndaddr ds = if Array.length ds = 0 then 0 else Array.length ds.(0).Types.db

let ino_bytes ds = 8 + (Array.length ds * ino_stride (ino_ndaddr ds))

let ftype_code = function Types.F_free -> 1 | Types.F_reg -> 2 | Types.F_dir -> 3

let dinode_conforms nd (d : Types.dinode) =
  Array.length d.Types.db = nd
  && u32_ok d.Types.nlink && u32_ok d.Types.gen && u32_ok d.Types.ib
  && u32_ok d.Types.ib2 && d.Types.size >= 0
  && u32s_ok d.Types.db 0

let ino_conforms ds =
  let nd = ino_ndaddr ds in
  Array.for_all (dinode_conforms nd) ds

let encode_ino b ds =
  let nd = ino_ndaddr ds in
  let stride = ino_stride nd in
  set_u32 b 0 (Array.length ds);
  set_u32 b 4 nd;
  Array.iteri
    (fun s (d : Types.dinode) ->
      let off = 8 + (s * stride) in
      Bytes.set_int64_le b off (Int64.of_int d.Types.size);
      Bytes.set_int64_le b (off + 8) (Int64.bits_of_float d.Types.mtime);
      set_u32 b (off + 16) (ftype_code d.Types.ftype);
      set_u32 b (off + 20) d.Types.nlink;
      set_u32 b (off + 24) d.Types.gen;
      set_u32 b (off + 28) d.Types.ib;
      set_u32 b (off + 32) d.Types.ib2;
      for k = 0 to nd - 1 do
        set_u32 b (off + 36 + (4 * k)) d.Types.db.(k)
      done)
    ds

let decode_dinode b nd slot =
  let off = 8 + (slot * ino_stride nd) in
  {
    Types.ftype =
      (match get_u32 b (off + 16) with
       | 1 -> Types.F_free
       | 2 -> Types.F_reg
       | _ -> Types.F_dir);
    nlink = get_u32 b (off + 20);
    size = Int64.to_int (Bytes.get_int64_le b off);
    gen = get_u32 b (off + 24);
    db = Array.init nd (fun k -> get_u32 b (off + 36 + (4 * k)));
    ib = get_u32 b (off + 28);
    ib2 = get_u32 b (off + 32);
    mtime = Int64.float_of_bits (Bytes.get_int64_le b (off + 8));
  }

let decode_ino b =
  let ipb = get_u32 b 0 in
  let nd = get_u32 b 4 in
  Types.Inodes (Array.init ipb (fun s -> decode_dinode b nd s))

(* Dir slab: parallel arrays, one slot per directory slot. [None] is
   the [none_inum] sentinel; names are shared immutable strings. *)

type dirslab = { dnames : string array; dinums : int array }

let none_inum = min_int
let no_dirslab = { dnames = [||]; dinums = [||] }

let dir_conforms entries =
  Array.for_all
    (function None -> true | Some e -> e.Types.inum <> none_inum)
    entries

let encode_dir slab entries =
  Array.iteri
    (fun k e ->
      match e with
      | None ->
        slab.dnames.(k) <- "";
        slab.dinums.(k) <- none_inum
      | Some e ->
        slab.dnames.(k) <- e.Types.name;
        slab.dinums.(k) <- e.Types.inum)
    entries

let decode_dir slab =
  Types.Dir
    (Array.init (Array.length slab.dinums) (fun k ->
         if slab.dinums.(k) = none_inum then None
         else Some { Types.name = slab.dnames.(k); inum = slab.dinums.(k) }))

(* Indirect slab: u32 per block pointer. *)

let encode_ind b ptrs = Array.iteri (fun k p -> set_u32 b (4 * k) p) ptrs

let decode_ind b =
  Types.Indirect (Array.init (Bytes.length b / 4) (fun k -> get_u32 b (4 * k)))

(* --- the volume -------------------------------------------------------- *)

module A1 = Bigarray.Array1

(* The payload plane lives outside the OCaml heap, like fsck's tables:
   a word per cell the GC would otherwise scan on every major cycle.
   It is never cleared: a word is read only under a tag that wrote it. *)
type plane = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type t = {
  n : int;
  tags : Bytes.t;
  aux : plane;
  ino : Bytes.t arena;
  dir : dirslab arena;
  ind : Bytes.t arena;
  box : Types.cell arena;
  mutable base : Types.cell array;
      (* the array [mount] read through: a [tag_mounted] cell is
         [base.(i)], never copied in *)
}

type stats = {
  cells : int;
  inode_slabs : int;
  dir_slabs : int;
  indirect_slabs : int;
  boxed : int;
  slab_bytes : int;
  offheap_bytes : int;
}

let create n =
  if n < 0 then invalid_arg "Volume.create: negative size";
  {
    n;
    tags = Bytes.make n '\000';
    aux = A1.create Bigarray.int Bigarray.c_layout n;
    ino = arena Bytes.empty;
    dir = arena no_dirslab;
    ind = arena Bytes.empty;
    box = arena Types.Empty;
    base = [||];
  }

let length t = t.n

let check t i who =
  if i < 0 || i >= t.n then invalid_arg ("Volume." ^ who ^ ": address out of range")

let release t i =
  match Bytes.get_uint8 t.tags i with
  | 4 -> arena_release t.ino (A1.get t.aux i)
  | 5 -> arena_release t.dir (A1.get t.aux i)
  | 6 -> arena_release t.ind (A1.get t.aux i)
  | 7 -> arena_release t.box (A1.get t.aux i)
  | _ -> ()

(* The encode-or-box decision. A boxed cell is stored as given. *)
let set t i cell =
  check t i "set";
  let old = Bytes.get_uint8 t.tags i in
  let box c =
    if old = tag_box then t.box.items.(A1.get t.aux i) <- c
    else begin
      release t i;
      A1.set t.aux i (arena_alloc t.box c);
      Bytes.set_uint8 t.tags i tag_box
    end
  in
  match cell with
  | Types.Empty ->
    release t i;
    Bytes.set_uint8 t.tags i tag_empty
  | Types.Pad ->
    release t i;
    Bytes.set_uint8 t.tags i tag_pad
  | Types.Frag Types.Zeroed ->
    release t i;
    Bytes.set_uint8 t.tags i tag_frag0
  | Types.Frag (Types.Written { inum; gen; flbn })
    when fits inum_bits inum && fits gen_bits gen && fits flbn_bits flbn ->
    release t i;
    A1.set t.aux i ((inum lsl (gen_bits + flbn_bits)) lor (gen lsl flbn_bits) lor flbn);
    Bytes.set_uint8 t.tags i tag_fragw
  | Types.Meta (Types.Inodes ds) when ino_conforms ds ->
    let need = ino_bytes ds in
    if old = tag_ino && Bytes.length t.ino.items.(A1.get t.aux i) = need then
      encode_ino t.ino.items.(A1.get t.aux i) ds
    else begin
      release t i;
      let b = Bytes.create need in
      encode_ino b ds;
      A1.set t.aux i (arena_alloc t.ino b);
      Bytes.set_uint8 t.tags i tag_ino
    end
  | Types.Meta (Types.Dir entries) when dir_conforms entries ->
    let len = Array.length entries in
    if old = tag_dir && Array.length t.dir.items.(A1.get t.aux i).dinums = len then
      encode_dir t.dir.items.(A1.get t.aux i) entries
    else begin
      release t i;
      let slab = { dnames = Array.make len ""; dinums = Array.make len none_inum } in
      encode_dir slab entries;
      A1.set t.aux i (arena_alloc t.dir slab);
      Bytes.set_uint8 t.tags i tag_dir
    end
  | Types.Meta (Types.Indirect ptrs) when u32s_ok ptrs 0 ->
    let need = 4 * Array.length ptrs in
    if old = tag_ind && Bytes.length t.ind.items.(A1.get t.aux i) = need then
      encode_ind t.ind.items.(A1.get t.aux i) ptrs
    else begin
      release t i;
      let b = Bytes.create need in
      encode_ind b ptrs;
      A1.set t.aux i (arena_alloc t.ind b);
      Bytes.set_uint8 t.tags i tag_ind
    end
  | Types.Frag (Types.Written _)
  | Types.Meta (Types.Superblock _ | Types.Cgroup _ | Types.Inodes _
               | Types.Dir _ | Types.Indirect _)
  | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
    box cell

(* Tags are 0 .. 8, so a word of eight tags with neither bit 2 nor
   bit 3 set in any byte holds no slab, boxed or mounted cell. *)
let mount t base =
  let len = Array.length base in
  if len > t.n then invalid_arg "Volume.mount: array larger than the volume";
  if t.base != [||] then invalid_arg "Volume.mount: already mounted";
  let k = ref 0 in
  while !k + 8 <= len do
    if Int64.logand (Bytes.get_int64_ne t.tags !k) 0x0c0c0c0c0c0c0c0cL <> 0L
    then
      for i = !k to !k + 7 do
        release t i
      done;
    k := !k + 8
  done;
  for i = !k to len - 1 do
    release t i
  done;
  Bytes.fill t.tags 0 len (Char.chr tag_mounted);
  t.base <- base

(* Written cells are few: words of eight mounted tags are skipped. *)
let all_mounted = 0x0808080808080808L

let iter_written t f =
  let k = ref 0 in
  while !k + 8 <= t.n do
    if Bytes.get_int64_ne t.tags !k <> all_mounted then
      for i = !k to !k + 7 do
        if Bytes.get_uint8 t.tags i <> tag_mounted then f i
      done;
    k := !k + 8
  done;
  for i = !k to t.n - 1 do
    if Bytes.get_uint8 t.tags i <> tag_mounted then f i
  done

let unpack_written a =
  Types.Written
    {
      inum = a lsr (gen_bits + flbn_bits);
      gen = (a lsr flbn_bits) land ((1 lsl gen_bits) - 1);
      flbn = a land ((1 lsl flbn_bits) - 1);
    }

(* A boxed or mounted cell, copied as {!read} and {!peek} promise:
   immutable kinds are shared, and [peek] copies only the slab-class
   kinds, which a decode would have returned fresh. *)
let held_cell c ~live =
  match c with
  | Types.Empty | Types.Pad | Types.Frag _ | Types.Rmap _ -> c
  | Types.Meta (Types.Inodes _ | Types.Dir _ | Types.Indirect _) ->
    Types.copy_cell c
  | Types.Meta (Types.Superblock _ | Types.Cgroup _) | Types.Jlog _
  | Types.Csum _ ->
    if live then c else Types.copy_cell c

let get t i ~live =
  match Bytes.get_uint8 t.tags i with
  | 0 -> Types.Empty
  | 1 -> Types.Pad
  | 2 -> Types.Frag Types.Zeroed
  | 3 -> Types.Frag (unpack_written (A1.get t.aux i))
  | 4 -> Types.Meta (decode_ino t.ino.items.(A1.get t.aux i))
  | 5 -> Types.Meta (decode_dir t.dir.items.(A1.get t.aux i))
  | 6 -> Types.Meta (decode_ind t.ind.items.(A1.get t.aux i))
  | 7 -> held_cell t.box.items.(A1.get t.aux i) ~live
  | _ -> held_cell t.base.(i) ~live

let read t i =
  check t i "read";
  get t i ~live:false

let peek t i =
  check t i "peek";
  get t i ~live:true

let is_compact t i =
  check t i "is_compact";
  Bytes.get_uint8 t.tags i < tag_box

(* --- digests off the slabs --------------------------------------------- *)

(* Each arm reproduces exactly the [Types.cell_digest] fold of the
   decoded cell; the unit and qcheck suites pin the equality. *)

let digest_ino b =
  let ipb = get_u32 b 0 in
  let nd = get_u32 b 4 in
  let stride = ino_stride nd in
  let h = Types.d_byte (Types.d_byte Types.fnv_offset 4) 3 in
  let h = ref (Types.d_int h ipb) in
  for s = 0 to ipb - 1 do
    let off = 8 + (s * stride) in
    h := Types.d_byte !h (get_u32 b (off + 16)); (* d_ftype: the stored code *)
    h := Types.d_int !h (get_u32 b (off + 20)); (* nlink *)
    h := Types.d_int !h (Int64.to_int (Bytes.get_int64_le b off)); (* size *)
    h := Types.d_int !h (get_u32 b (off + 24)); (* gen *)
    h := Types.d_int !h nd; (* d_int_array length prefix *)
    for k = 0 to nd - 1 do
      h := Types.d_int !h (get_u32 b (off + 36 + (4 * k)))
    done;
    h := Types.d_int !h (get_u32 b (off + 28)); (* ib *)
    h := Types.d_int !h (get_u32 b (off + 32)); (* ib2 *)
    let bits = Bytes.get_int64_le b (off + 8) in (* d_float over mtime *)
    h := Types.d_int !h (Int64.to_int (Int64.logand bits 0xffffffffL));
    h := Types.d_int !h (Int64.to_int (Int64.shift_right_logical bits 32))
  done;
  !h land max_int

let digest_dir slab =
  let len = Array.length slab.dinums in
  let h = Types.d_byte (Types.d_byte Types.fnv_offset 4) 4 in
  let h = ref (Types.d_int h len) in
  for k = 0 to len - 1 do
    if slab.dinums.(k) = none_inum then h := Types.d_byte !h 0
    else
      h := Types.d_int (Types.d_string (Types.d_byte !h 1) slab.dnames.(k))
             slab.dinums.(k)
  done;
  !h land max_int

let digest_ind b =
  let len = Bytes.length b / 4 in
  let h = Types.d_byte (Types.d_byte Types.fnv_offset 4) 5 in
  let h = ref (Types.d_int h len) in
  for k = 0 to len - 1 do
    h := Types.d_int !h (get_u32 b (4 * k))
  done;
  !h land max_int

let digest t i =
  check t i "digest";
  match Bytes.get_uint8 t.tags i with
  | 0 -> Types.d_byte Types.fnv_offset 1 land max_int
  | 1 -> Types.d_byte Types.fnv_offset 2 land max_int
  | 2 -> Types.d_byte (Types.d_byte Types.fnv_offset 3) 1 land max_int
  | 3 ->
    let h = Types.d_byte (Types.d_byte Types.fnv_offset 3) 2 in
    let a = A1.get t.aux i in
    Types.d_int
      (Types.d_int
         (Types.d_int h (a lsr (gen_bits + flbn_bits)))
         ((a lsr flbn_bits) land ((1 lsl gen_bits) - 1)))
      (a land ((1 lsl flbn_bits) - 1))
    land max_int
  | 4 -> digest_ino t.ino.items.(A1.get t.aux i)
  | 5 -> digest_dir t.dir.items.(A1.get t.aux i)
  | 6 -> digest_ind t.ind.items.(A1.get t.aux i)
  | 7 -> Types.cell_digest t.box.items.(A1.get t.aux i)
  | _ -> Types.cell_digest t.base.(i)

(* --- snapshots --------------------------------------------------------- *)

let copy t =
  let aux = A1.create Bigarray.int Bigarray.c_layout t.n in
  A1.blit t.aux aux;
  {
    n = t.n;
    tags = Bytes.copy t.tags;
    aux;
    ino = arena_map Bytes.copy t.ino;
    dir =
      arena_map
        (fun s -> { dnames = Array.copy s.dnames; dinums = Array.copy s.dinums })
        t.dir;
    ind = arena_map Bytes.copy t.ind;
    box = arena_map Types.copy_cell t.box;
    base = t.base;
  }

(* Only non-empty cells are decoded, so the cost follows what the
   volume holds, not its size. *)
let snapshot t =
  let cells = Array.make t.n Types.Empty in
  for i = 0 to t.n - 1 do
    if Bytes.get_uint8 t.tags i <> tag_empty then cells.(i) <- get t i ~live:false
  done;
  cells

let stats t =
  let slab_bytes a =
    let s = ref 0 in
    for i = 0 to a.used - 1 do
      s := !s + Bytes.length a.items.(i)
    done;
    !s
  in
  {
    cells = t.n;
    inode_slabs = arena_live t.ino;
    dir_slabs = arena_live t.dir;
    indirect_slabs = arena_live t.ind;
    boxed = arena_live t.box;
    slab_bytes = slab_bytes t.ino + slab_bytes t.ind + Bytes.length t.tags;
    offheap_bytes = A1.size_in_bytes t.aux;
  }

(* --- (lbn, slot) accessors --------------------------------------------- *)

(* The cell behind a boxed or mounted tag. *)
let held t i =
  if Bytes.get_uint8 t.tags i = tag_box then t.box.items.(A1.get t.aux i)
  else t.base.(i)

let inode_at t ~lbn ~slot =
  check t lbn "inode_at";
  match Bytes.get_uint8 t.tags lbn with
  | 4 ->
    let b = t.ino.items.(A1.get t.aux lbn) in
    let ipb = get_u32 b 0 in
    if slot < 0 || slot >= ipb then invalid_arg "Volume.inode_at: bad slot";
    decode_dinode b (get_u32 b 4) slot
  | 7 | 8 -> (
    match held t lbn with
    | Types.Meta (Types.Inodes ds) ->
      if slot < 0 || slot >= Array.length ds then
        invalid_arg "Volume.inode_at: bad slot";
      Types.copy_dinode ds.(slot)
    | _ -> failwith "Volume.inode_at: not an inode block")
  | _ -> failwith "Volume.inode_at: not an inode block"

let dirent_at t ~lbn ~slot =
  check t lbn "dirent_at";
  match Bytes.get_uint8 t.tags lbn with
  | 5 ->
    let s = t.dir.items.(A1.get t.aux lbn) in
    if slot < 0 || slot >= Array.length s.dinums then
      invalid_arg "Volume.dirent_at: bad slot";
    if s.dinums.(slot) = none_inum then None
    else Some { Types.name = s.dnames.(slot); inum = s.dinums.(slot) }
  | 7 | 8 -> (
    match held t lbn with
    | Types.Meta (Types.Dir entries) ->
      if slot < 0 || slot >= Array.length entries then
        invalid_arg "Volume.dirent_at: bad slot";
      entries.(slot)
    | _ -> failwith "Volume.dirent_at: not a directory block")
  | _ -> failwith "Volume.dirent_at: not a directory block"

let indirect_at t ~lbn ~slot =
  check t lbn "indirect_at";
  match Bytes.get_uint8 t.tags lbn with
  | 6 ->
    let b = t.ind.items.(A1.get t.aux lbn) in
    if slot < 0 || slot >= Bytes.length b / 4 then
      invalid_arg "Volume.indirect_at: bad slot";
    get_u32 b (4 * slot)
  | 7 | 8 -> (
    match held t lbn with
    | Types.Meta (Types.Indirect ptrs) ->
      if slot < 0 || slot >= Array.length ptrs then
        invalid_arg "Volume.indirect_at: bad slot";
      ptrs.(slot)
    | _ -> failwith "Volume.indirect_at: not an indirect block")
  | _ -> failwith "Volume.indirect_at: not an indirect block"
