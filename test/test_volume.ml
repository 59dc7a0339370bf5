(* Equivalence suite for the compact slab-backed volume image: the
   volume must be observationally identical to the legacy
   [Types.cell array] image under writes, reads, copies, snapshots and
   digests — cell for cell, bit for bit. *)
open Su_fstypes
module Rng = Su_util.Rng

let gs = Geom.small

(* --- random cells, including out-of-range values that must take the
   boxed fallback ------------------------------------------------------- *)

let rand_name rng =
  String.init (1 + Rng.int rng 12) (fun _ -> Char.chr (97 + Rng.int rng 26))

let rand_dinode rng =
  let wild bound = if Rng.int rng 20 = 0 then (1 lsl 40) + 7 else Rng.int rng bound in
  let d = Types.free_dinode gs in
  let d = { d with Types.db = Array.copy d.Types.db } in
  d.Types.ftype <-
    (match Rng.int rng 3 with 0 -> Types.F_free | 1 -> Types.F_reg | _ -> Types.F_dir);
  d.Types.nlink <- wild 16;
  d.Types.size <- Rng.int rng 1_000_000;
  d.Types.gen <- wild 1_000;
  d.Types.ib <- wild 100_000;
  d.Types.ib2 <- wild 100_000;
  d.Types.mtime <- float_of_int (Rng.int rng 10_000) /. 7.0;
  for k = 0 to Array.length d.Types.db - 1 do
    d.Types.db.(k) <- wild 100_000
  done;
  (* occasionally a ragged db array (nonconforming shape) *)
  if Rng.int rng 30 = 0 then d.Types.db <- Array.make 3 1;
  d

let rand_cell rng =
  match Rng.int rng 13 with
  | 0 -> Types.Empty
  | 1 -> Types.Pad
  | 2 -> Types.Frag Types.Zeroed
  | 3 ->
    (* sometimes past the 21/19/20-bit packing, forcing the boxed path *)
    Types.Frag
      (Types.Written
         { inum = Rng.int rng 3_000_000;
           gen = Rng.int rng 700_000;
           flbn = Rng.int rng 1_500_000 })
  | 4 | 5 ->
    Types.Meta (Types.Inodes (Array.init (1 + Rng.int rng 8) (fun _ -> rand_dinode rng)))
  | 6 ->
    Types.Meta
      (Types.Dir
         (Array.init (1 + Rng.int rng 16) (fun _ ->
              if Rng.int rng 2 = 0 then None
              else Some { Types.name = rand_name rng; inum = Rng.int rng 5_000 })))
  | 7 ->
    Types.Meta
      (Types.Indirect
         (Array.init (1 + Rng.int rng 32) (fun _ ->
              if Rng.int rng 25 = 0 then 1 lsl 36 else Rng.int rng 1_000_000)))
  | 8 ->
    Types.Meta
      (Types.Superblock
         { Types.sb_magic = Types.magic; sb_nfrags = Rng.int rng 100_000;
           sb_ncg = 1 + Rng.int rng 64; sb_clean = Rng.int rng 2 = 0 })
  | 9 ->
    let c = Types.fresh_cg gs in
    Bytes.set c.Types.frag_map (Rng.int rng (Bytes.length c.Types.frag_map)) '\001';
    c.Types.nffree <- Rng.int rng 1_000;
    c.Types.nifree <- Rng.int rng 1_000;
    Types.Meta (Types.Cgroup c)
  | 10 ->
    Types.Jlog
      { seq = Rng.int rng 1_000;
        recs =
          [ Types.J_dir_init { blk = Rng.int rng 100 };
            Types.J_dinode { inum = Rng.int rng 100; din = rand_dinode rng } ] }
  | 11 -> Types.Rmap [ (Rng.int rng 100, 1_000 + Rng.int rng 100) ]
  | _ -> Types.Csum (Array.init (1 + Rng.int rng 8) (fun _ -> Rng.int rng max_int))

(* --- the equivalence property ------------------------------------------ *)

(* The reference semantics is the legacy cell-array image:
   [image.(i) <- cell] at install/write (modelled with a private copy,
   as every disk write path hands the image a private payload),
   [copy_cell image.(i)] on read, [Array.map copy_cell] on snapshot,
   [cell_digest image.(i)] on digest. *)
let prop_volume_equals_cells =
  QCheck.Test.make ~name:"volume == legacy cell image under random ops"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* not a whole number of words: the tag scan's ragged tail *)
      let n = 27 in
      let vol = Volume.create n in
      let ref_ = Array.make n Types.Empty in
      let written = Array.make n false in
      (* the written cells are those no longer read through the mount *)
      Volume.mount vol (Array.make n Types.Empty);
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to 150 do
        let i = Rng.int rng n in
        match Rng.int rng 6 with
        | 0 | 1 ->
          let c = rand_cell rng in
          Volume.set vol i c;
          ref_.(i) <- Types.copy_cell c;
          written.(i) <- true
        | 2 -> check (Volume.read vol i = ref_.(i))
        | 3 -> check (Volume.digest vol i = Types.cell_digest ref_.(i))
        | 4 ->
          check (Volume.snapshot vol = Array.map Types.copy_cell ref_);
          let marked = ref [] in
          Volume.iter_written vol (fun j -> marked := j :: !marked);
          check
            (List.rev !marked
            = List.filter (fun j -> written.(j)) (List.init n Fun.id))
        | _ ->
          (* a copy is equal, and mutating it never reaches the original *)
          let c = Volume.copy vol in
          check (Volume.snapshot c = Array.map Types.copy_cell ref_);
          Volume.set c i Types.Pad;
          check (Volume.read vol i = ref_.(i))
      done;
      !ok)

(* A mounted array reads exactly like the same cells installed one by
   one as private copies (what mounting did before it read through), under
   any mix of later stores, and only the stored cells — plus those past
   the array's end — stop reading through. *)
let prop_mounted_equals_installed =
  QCheck.Test.make ~name:"mounted volume == per-cell install under random stores"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 27 in
      let len = if Rng.int rng 3 = 0 then Rng.int rng n else n in
      let base = Array.init len (fun _ -> rand_cell rng) in
      let pristine = Array.map Types.copy_cell base in
      let vol = Volume.create n and ref_ = Volume.create n in
      (* whatever the volume held before is replaced, up to [len] *)
      for i = 0 to n - 1 do
        let c = rand_cell rng in
        Volume.set vol i (Types.copy_cell c);
        Volume.set ref_ i c
      done;
      Volume.mount vol base;
      Array.iteri (fun i c -> Volume.set ref_ i (Types.copy_cell c)) base;
      let stored = Array.init n (fun i -> i >= len) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let agree i =
        check (Volume.read vol i = Volume.read ref_ i);
        check (Volume.peek vol i = Volume.peek ref_ i);
        check (Volume.digest vol i = Volume.digest ref_ i)
      in
      for _ = 1 to 60 do
        let i = Rng.int rng n in
        match Rng.int rng 5 with
        | 0 | 1 ->
          let c = rand_cell rng in
          Volume.set vol i (Types.copy_cell c);
          Volume.set ref_ i c;
          stored.(i) <- true
        | 2 ->
          (* a peeked slab kind is a private copy *)
          (match Volume.peek vol i with
           | Types.Meta (Types.Inodes ds) when Array.length ds > 0 ->
             ds.(0) <- Types.free_dinode gs;
             ds.(0).Types.nlink <- 4242
           | Types.Meta (Types.Dir es) when Array.length es > 0 ->
             es.(0) <- Some { Types.name = "mutated"; inum = 1 }
           | Types.Meta (Types.Indirect ps) when Array.length ps > 0 ->
             ps.(0) <- 31337
           | _ -> ());
          agree i
        | 3 -> agree i
        | _ ->
          check (Volume.snapshot vol = Volume.snapshot ref_);
          let written = ref [] in
          Volume.iter_written vol (fun j -> written := j :: !written);
          check
            (List.rev !written
            = List.filter (fun j -> stored.(j)) (List.init n Fun.id))
      done;
      for i = 0 to n - 1 do
        agree i
      done;
      (* nothing reached the mounted array *)
      !ok && base = pristine)

(* Digest equality pinned per kind, including the fallback paths. *)
let test_digest_every_kind () =
  let rng = Rng.create 42 in
  for _ = 1 to 500 do
    let c = rand_cell rng in
    let v = Volume.create 1 in
    Volume.set v 0 c;
    Alcotest.(check int)
      (Format.asprintf "digest of %a" Types.pp_cell c)
      (Types.cell_digest c) (Volume.digest v 0);
    Alcotest.(check bool) "roundtrip" true (Volume.read v 0 = c)
  done

let test_compact_kinds () =
  let v = Volume.create 8 in
  Volume.set v 0 (Types.Frag (Types.Written { inum = 3; gen = 1; flbn = 0 }));
  Volume.set v 1 (Types.Meta (Types.fresh_inode_block gs));
  Volume.set v 2 (Types.Meta (Types.Dir (Types.fresh_dir_block gs)));
  Volume.set v 3 (Types.Meta (Types.Indirect (Types.fresh_indirect gs)));
  Volume.set v 4 (Types.Meta (Types.Cgroup (Types.fresh_cg gs)));
  (* a stamp past the packed field widths must still store (boxed) *)
  let big = Types.Frag (Types.Written { inum = 1 lsl 30; gen = 2; flbn = 1 }) in
  Volume.set v 5 big;
  Alcotest.(check bool) "written packed" true (Volume.is_compact v 0);
  Alcotest.(check bool) "inodes slabbed" true (Volume.is_compact v 1);
  Alcotest.(check bool) "dir slabbed" true (Volume.is_compact v 2);
  Alcotest.(check bool) "indirect slabbed" true (Volume.is_compact v 3);
  Alcotest.(check bool) "cgroup boxed" false (Volume.is_compact v 4);
  Alcotest.(check bool) "oversized stamp boxed" false (Volume.is_compact v 5);
  Alcotest.(check bool) "oversized stamp exact" true (Volume.read v 5 = big);
  let s = Volume.stats v in
  Alcotest.(check int) "one inode slab" 1 s.Volume.inode_slabs;
  Alcotest.(check int) "one dir slab" 1 s.Volume.dir_slabs;
  Alcotest.(check int) "one indirect slab" 1 s.Volume.indirect_slabs;
  Alcotest.(check int) "two boxed" 2 s.Volume.boxed;
  (* overwriting with a different kind releases the old slab *)
  Volume.set v 1 Types.Empty;
  Alcotest.(check int) "inode slab released" 0 (Volume.stats v).Volume.inode_slabs

(* Boxed cells keep the live-aliasing the legacy image had: the stored
   Csum cell IS the array the disk mutates. *)
let test_boxed_aliasing () =
  let v = Volume.create 1 in
  let ca = Array.make 4 0 in
  Volume.set v 0 (Types.Csum ca);
  ca.(2) <- 99;
  (match Volume.peek v 0 with
   | Types.Csum a -> Alcotest.(check int) "peek sees live array" 99 a.(2)
   | _ -> Alcotest.fail "wrong cell");
  (match Volume.read v 0 with
   | Types.Csum a ->
     a.(2) <- 0;
     Alcotest.(check int) "read is a private copy" 99 ca.(2)
   | _ -> Alcotest.fail "wrong cell")

(* Mutating a decoded cell never writes back through the slab. *)
let test_decode_isolated () =
  let v = Volume.create 1 in
  let ds =
    match Types.fresh_inode_block gs with
    | Types.Inodes ds -> ds
    | _ -> assert false
  in
  Volume.set v 0 (Types.Meta (Types.Inodes ds)) ;
  let before = Volume.digest v 0 in
  (match Volume.peek v 0 with
   | Types.Meta (Types.Inodes got) ->
     got.(0).Types.nlink <- 77;
     got.(0).Types.db.(0) <- 1234
   | _ -> Alcotest.fail "wrong cell");
  Alcotest.(check int) "image digest unchanged" before (Volume.digest v 0);
  (* and mutating the cell we stored doesn't reach the volume either *)
  ds.(1) <- Types.free_dinode gs;
  ds.(1).Types.gen <- 9;
  Alcotest.(check int) "encode is a copy" before (Volume.digest v 0)

let test_slot_accessors () =
  let rng = Rng.create 7 in
  let ds = Array.init gs.Geom.inodes_per_block (fun _ -> rand_dinode rng) in
  (* keep them conforming so the block slabs *)
  Array.iter
    (fun d ->
      if Array.length d.Types.db <> gs.Geom.ndaddr then
        d.Types.db <- Array.make gs.Geom.ndaddr 0;
      d.Types.nlink <- abs d.Types.nlink land 0xffff;
      d.Types.gen <- d.Types.gen land 0xffff;
      d.Types.ib <- d.Types.ib land 0xffff;
      d.Types.ib2 <- d.Types.ib2 land 0xffff;
      Array.iteri (fun k v -> d.Types.db.(k) <- v land 0xffff) d.Types.db)
    ds;
  let entries = Types.fresh_dir_block gs in
  entries.(3) <- Some { Types.name = "hello"; inum = 44 };
  let ptrs = Array.init gs.Geom.nindir (fun k -> k * 3) in
  let v = Volume.create 3 in
  Volume.set v 0 (Types.Meta (Types.Inodes ds));
  Volume.set v 1 (Types.Meta (Types.Dir entries));
  Volume.set v 2 (Types.Meta (Types.Indirect ptrs));
  Alcotest.(check bool) "inode slab" true (Volume.is_compact v 0);
  for s = 0 to Array.length ds - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "inode_at %d" s)
      true
      (Volume.inode_at v ~lbn:0 ~slot:s = ds.(s))
  done;
  Alcotest.(check bool) "dirent_at present" true
    (Volume.dirent_at v ~lbn:1 ~slot:3 = entries.(3));
  Alcotest.(check bool) "dirent_at empty" true
    (Volume.dirent_at v ~lbn:1 ~slot:0 = None);
  Alcotest.(check int) "indirect_at" 30 (Volume.indirect_at v ~lbn:2 ~slot:10)

(* --- regression: a read-only walk over Disk.peek must leave the image
   digests intact even if the caller mutates what it got back
   (the hazard the old "no copy, do not mutate" contract left open) --- *)

let test_peek_mutation_harmless () =
  let e = Su_sim.Engine.create () in
  let d =
    Su_disk.Disk.create ~engine:e ~params:Su_disk.Disk_params.hp_c2447
      ~nfrags:1024 ()
  in
  Su_disk.Disk.install d 16 (Types.Meta (Types.fresh_inode_block gs));
  let entries = Types.fresh_dir_block gs in
  entries.(0) <- Some { Types.name = "x"; inum = 9 };
  Su_disk.Disk.install d 24 (Types.Meta (Types.Dir entries));
  Su_disk.Disk.install d 32 (Types.Meta (Types.Indirect (Types.fresh_indirect gs)));
  Su_disk.Disk.install d 40 (Types.Frag (Types.Written { inum = 9; gen = 1; flbn = 0 }));
  let digests = Array.init 1024 (fun i -> Su_disk.Disk.frag_digest d i) in
  (* a hostile read-only walk: mutate everything peek returns *)
  for i = 0 to 1023 do
    match Su_disk.Disk.peek d i with
    | Types.Meta (Types.Inodes ds) ->
      Array.iter
        (fun di ->
          di.Types.nlink <- 999;
          di.Types.db.(0) <- 31337)
        ds
    | Types.Meta (Types.Dir es) -> Array.fill es 0 (Array.length es) None
    | Types.Meta (Types.Indirect ps) -> Array.fill ps 0 (Array.length ps) 5
    | _ -> ()
  done;
  for i = 0 to 1023 do
    Alcotest.(check int)
      (Printf.sprintf "digest %d unchanged" i)
      digests.(i)
      (Su_disk.Disk.frag_digest d i)
  done;
  (* frag_digest itself must agree with digesting the decoded cell *)
  for i = 0 to 1023 do
    Alcotest.(check int)
      (Printf.sprintf "frag_digest %d consistent" i)
      (Types.cell_digest (Su_disk.Disk.peek d i))
      (Su_disk.Disk.frag_digest d i)
  done

(* --- Delta apply/undo driven by a volume-backed disk ------------------- *)

(* The delta observer's pre/post extents are decoded copies of volume
   state. Applying every delta forward onto the initial snapshot must
   land on the final image; undoing them all must restore the initial
   one — pinning that observer extents never share structure with the
   live volume. *)
let prop_delta_roundtrip_on_volume =
  QCheck.Test.make ~name:"delta apply/undo round-trips the volume image"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = Su_sim.Engine.create () in
      let d =
        Su_disk.Disk.create ~engine:e ~params:Su_disk.Disk_params.hp_c2447
          ~nfrags:512 ()
      in
      let log = ref [] in
      Su_disk.Disk.set_delta_observer d (fun ~lbn ~pre ~post ->
          log := Su_check.Delta.v ~lbn ~pre ~post :: !log);
      let initial = Su_disk.Disk.image_snapshot d in
      for _ = 1 to 30 do
        let lbn = Rng.int rng 500 in
        let nfrags = 1 + Rng.int rng 4 in
        let payload = Array.init nfrags (fun _ -> rand_cell rng) in
        Su_disk.Disk.submit d ~lbn ~nfrags ~op:Su_disk.Disk.Write
          ~payload:(Some payload)
          ~on_done:(fun _ _ -> ());
        Su_sim.Engine.run e
      done;
      let final = Su_disk.Disk.image_snapshot d in
      let deltas = Array.of_list (List.rev !log) in
      let img = Array.map Types.copy_cell initial in
      Array.iter (fun dl -> Su_check.Delta.apply img dl) deltas;
      let forward_ok = img = final in
      for k = Array.length deltas - 1 downto 0 do
        Su_check.Delta.undo img deltas.(k)
      done;
      forward_ok && img = initial)

(* [Disk.install_image] against the install loop it replaced: every
   cell but [Empty] media cells installed as a private copy, and a
   [Csum] cell (inside the media, at the region's slot or past it)
   loaded over the live region instead. Equal images, digests and
   checksum regions after the mount and after later installs, and
   [take_image] hands back the mounted array equal to the snapshot. *)
let prop_install_image_equals_installs =
  QCheck.Test.make ~name:"install_image == per-cell install, take_image == snapshot"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let media = 40 in
      let disk () =
        Su_disk.Disk.create ~engine:(Su_sim.Engine.create ())
          ~params:Su_disk.Disk_params.hp_c2447 ~nfrags:media ~checksums:true
          ~spare_frags:(if seed mod 2 = 0 then 4 else 0) ()
      in
      let d = disk () and r = disk () in
      let total = Array.length (Su_disk.Disk.image_snapshot d) in
      let len = if Rng.int rng 4 = 0 then media + Rng.int rng (total - media) else total in
      let cell () =
        match Rng.int rng 8 with
        | 0 -> Types.Empty
        | 1 -> Types.Csum (Array.init media (fun _ -> Rng.int rng max_int))
        | _ -> rand_cell rng
      in
      let cells = Array.init len (fun _ -> cell ()) in
      let pristine = Array.map Types.copy_cell cells in
      (* the live region, which a later install may unseat from its slot *)
      let live =
        match Su_disk.Disk.peek r (total - 1) with
        | Types.Csum ca -> ca
        | _ -> assert false
      in
      Array.iteri
        (fun i c ->
          match c with
          | Types.Empty when i < media -> ()
          | Types.Csum src ->
            Array.blit src 0 live 0 (min (Array.length src) (Array.length live))
          | _ -> Su_disk.Disk.install r i (Types.copy_cell c))
        cells;
      Su_disk.Disk.install_image d cells;
      let same () =
        Su_disk.Disk.image_snapshot d = Su_disk.Disk.image_snapshot r
        && List.for_all
             (fun i ->
               Su_disk.Disk.frag_digest d i = Su_disk.Disk.frag_digest r i
               && Su_disk.Disk.expected_digest d i
                  = Su_disk.Disk.expected_digest r i)
             (List.init total Fun.id)
      in
      let mounted_ok = same () in
      for _ = 1 to 20 do
        let i = Rng.int rng total in
        let c = rand_cell rng in
        Su_disk.Disk.install d i (Types.copy_cell c);
        Su_disk.Disk.install r i c
      done;
      let stored_ok = same () in
      let full = Su_disk.Disk.image_snapshot r in
      let taken = Su_disk.Disk.take_image d in
      let untouched =
        (* the array came back, or (shorter than the device) a copy *)
        if len = total then taken == cells else cells = pristine
      in
      mounted_ok && stored_ok && taken = full && untouched)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_volume_equals_cells;
    QCheck_alcotest.to_alcotest prop_mounted_equals_installed;
    QCheck_alcotest.to_alcotest prop_install_image_equals_installs;
    Alcotest.test_case "digest equality, every kind" `Quick test_digest_every_kind;
    Alcotest.test_case "compact kinds + arena release" `Quick test_compact_kinds;
    Alcotest.test_case "boxed cells keep live aliasing" `Quick test_boxed_aliasing;
    Alcotest.test_case "decoded cells are isolated" `Quick test_decode_isolated;
    Alcotest.test_case "(lbn, slot) accessors" `Quick test_slot_accessors;
    Alcotest.test_case "peek mutation cannot corrupt" `Quick
      test_peek_mutation_harmless;
    QCheck_alcotest.to_alcotest prop_delta_roundtrip_on_volume;
  ]
