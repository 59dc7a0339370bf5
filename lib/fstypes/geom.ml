type t = {
  nfrags : int;
  frag_bytes : int;
  frags_per_block : int;
  cg_frags : int;
  inodes_per_cg : int;
  inodes_per_block : int;
  dir_capacity : int;
  ndaddr : int;
  nindir : int;
}

let root_inum = 2

let v ?(mb = 1024) ?(cg_mb = 16) ?(inodes_per_cg = 2048) () =
  let frag_bytes = 1024 in
  let frags_per_block = 8 in
  let nfrags = mb * 1024 in
  let cg_frags = cg_mb * 1024 in
  if nfrags mod cg_frags <> 0 then
    invalid_arg "Geom.v: disk size must be a multiple of the group size";
  let inodes_per_block = 64 in
  if inodes_per_cg mod inodes_per_block <> 0 then
    invalid_arg "Geom.v: inodes_per_cg must pack whole inode blocks";
  {
    nfrags;
    frag_bytes;
    frags_per_block;
    cg_frags;
    inodes_per_cg;
    inodes_per_block;
    dir_capacity = 128;
    ndaddr = 12;
    nindir = 2048;
  }

let default = v ()
let small = v ~mb:64 ~cg_mb:16 ~inodes_per_cg:1024 ()

let block_bytes g = g.frag_bytes * g.frags_per_block
let cg_count g = g.nfrags / g.cg_frags
let total_inodes g = cg_count g * g.inodes_per_cg

let cg_of_frag g frag = frag / g.cg_frags
let cg_base g c = c * g.cg_frags

(* Each group: [superblock copy][header (bitmaps)][inode blocks][data].
   The primary superblock is the copy in group 0. *)
let cg_sb_frag g c = cg_base g c
let cg_header_frag g c = cg_base g c + g.frags_per_block

let inode_frags g = g.inodes_per_cg / g.inodes_per_block * g.frags_per_block

let cg_inode_area g c = (cg_base g c + (2 * g.frags_per_block), inode_frags g)

let cg_frags_end g c = cg_base g c + g.cg_frags

let cg_data_area g c =
  let first = cg_base g c + (2 * g.frags_per_block) + inode_frags g in
  (first, cg_frags_end g c - first)

let cg_of_inode g inum = (inum - root_inum) / g.inodes_per_cg

let first_inum_of_cg g c = root_inum + (c * g.inodes_per_cg)

(* [inode_block_frag] and [data_frag_in_cg] run for every inode read
   and every claimed fragment: they compute the areas inline instead of
   building [cg_inode_area]'s and [cg_data_area]'s pairs. *)
let inode_block_frag g inum =
  let c = cg_of_inode g inum in
  let idx = inum - first_inum_of_cg g c in
  let blk = idx / g.inodes_per_block in
  cg_base g c + (2 * g.frags_per_block) + (blk * g.frags_per_block)

let inode_index_in_block g inum =
  (inum - root_inum) mod g.inodes_per_cg mod g.inodes_per_block

let valid_inum g inum = inum >= root_inum && inum < root_inum + total_inodes g

let data_frag_in_cg g frag =
  frag > 0 && frag < g.nfrags
  &&
  let c = cg_of_frag g frag in
  frag >= cg_base g c + (2 * g.frags_per_block) + inode_frags g

let frags_of_bytes g bytes =
  if bytes <= 0 then 0 else ((bytes - 1) / g.frag_bytes) + 1

let blocks_of_bytes g bytes =
  if bytes <= 0 then 0 else ((bytes - 1) / block_bytes g) + 1
