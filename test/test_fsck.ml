(* fsck must actually detect each class of corruption: build a clean
   image, seed one specific inconsistency, and check the verdict. *)
open Su_sim
open Su_fstypes
open Su_fs

let clean_world () =
  let cfg =
    { (Fs.config ~scheme:Fs.No_order ()) with
      Fs.geom = Geom.small;
      cache_mb = 8 }
  in
  let w = Fs.make cfg in
  let _p =
    Proc.spawn w.Fs.engine ~name:"setup" (fun () ->
        let st = w.Fs.st in
        Fsops.mkdir st "/d";
        Fsops.create st "/d/a";
        Fsops.append st "/d/a" ~bytes:4096;
        Fsops.create st "/d/b";
        Fsops.append st "/d/b" ~bytes:12288;
        Fsops.sync st;
        Fs.stop w)
  in
  Engine.run w.Fs.engine;
  (w, Su_disk.Disk.image_snapshot w.Fs.disk)

let geom = Geom.small

let check ?(exposure = true) image =
  Fsck.check ~geom ~image ~check_exposure:exposure

let find_dir_entries image name =
  (* locate the directory block containing [name]; return (frag, entries) *)
  let found = ref None in
  Array.iteri
    (fun frag cell ->
      match cell with
      | Types.Meta (Types.Dir entries) ->
        if
          Array.exists
            (function Some e -> e.Types.name = name | None -> false)
            entries
        then found := Some (frag, entries)
      | _ -> ())
    image;
  match !found with
  | Some x -> x
  | None -> Alcotest.failf "no directory block with entry %s" name

let dinode_of image inum =
  match image.(Geom.inode_block_frag geom inum) with
  | Types.Meta (Types.Inodes dinodes) ->
    dinodes.(Geom.inode_index_in_block geom inum)
  | _ -> Alcotest.fail "inode block unreadable"

let entry_inum entries name =
  match Types.dir_find entries name with
  | Some (_, e) -> e.Types.inum
  | None -> Alcotest.failf "entry %s missing" name

(* the inode an entry names, wherever its directory block is *)
let inum_of image name = entry_inum (snd (find_dir_entries image name)) name

let violations = Alcotest.testable Fsck.pp_violation ( = )

let check_violations msg expected r =
  Alcotest.(check (list violations)) msg expected r.Fsck.violations

let test_clean_baseline () =
  let _w, image = clean_world () in
  let r = check image in
  Alcotest.(check bool) "clean" true (Fsck.ok r);
  Alcotest.(check int) "two files" 2 r.Fsck.files;
  Alcotest.(check int) "two dirs" 2 r.Fsck.dirs;
  Alcotest.(check int) "no leaked frags" 0 r.Fsck.leaked_frags;
  Alcotest.(check int) "no leaked inodes" 0 r.Fsck.leaked_inodes;
  Alcotest.(check int) "no stale-free" 0 r.Fsck.stale_free;
  Alcotest.(check int) "no nlink high" 0 r.Fsck.nlink_high

let test_detects_dangling_entry () =
  let _w, image = clean_world () in
  let id = inum_of image "d" in
  let inum = inum_of image "a" in
  (* free the inode behind the entry *)
  let d = dinode_of image inum in
  d.Types.ftype <- Types.F_free;
  let r = check image in
  check_violations "dangling entry"
    [ Fsck.Dangling_entry { dir = id; name = "a"; inum } ] r;
  (* its inode and 4 KB of data are still marked in use *)
  Alcotest.(check int) "leaked inode" 1 r.Fsck.leaked_inodes;
  Alcotest.(check int) "leaked frags" 4 r.Fsck.leaked_frags

let test_detects_cross_allocation () =
  let _w, image = clean_world () in
  let ia = inum_of image "a" and ib = inum_of image "b" in
  let da = dinode_of image ia and db_ = dinode_of image ib in
  (* make b's first (full) block start at a's 4-fragment block *)
  let a0 = da.Types.db.(0) in
  db_.Types.db.(0) <- a0;
  let r = check ~exposure:false image in
  (* a is named first, so it owns the fragments; a data extent is
     claimed twice (for the extent, then by the stamp check), so each
     shared fragment is reported twice *)
  let shared =
    List.init 4 (fun i -> Fsck.Cross_allocated { frag = a0 + i; owners = (ia, ib) })
  in
  check_violations "cross allocation" (shared @ shared) r

let test_detects_nlink_low () =
  let _w, image = clean_world () in
  let ia = inum_of image "a" in
  (dinode_of image ia).Types.nlink <- 0;
  let r = check image in
  check_violations "nlink low" [ Fsck.Nlink_low { inum = ia; nlink = 0; refs = 1 } ] r

let test_detects_referenced_free_frag () =
  let _w, image = clean_world () in
  let ia = inum_of image "a" in
  let frag0 = (dinode_of image ia).Types.db.(0) in
  (* clear the fragment's bits in its group's map *)
  let c = Geom.cg_of_frag geom frag0 in
  (match image.(Geom.cg_header_frag geom c) with
   | Types.Meta (Types.Cgroup cg) ->
     let base = Geom.cg_base geom c in
     for i = 0 to 3 do
       Bytes.set cg.Types.frag_map (frag0 - base + i) '\000'
     done
   | _ -> Alcotest.fail "no cg header");
  let r = check image in
  Alcotest.(check bool) "stale-free is repairable" true (Fsck.ok r);
  Alcotest.(check int) "stale-free counted" 4 r.Fsck.stale_free;
  Alcotest.(check int) "nothing leaked" 0 r.Fsck.leaked_frags

let test_detects_exposure () =
  let _w, image = clean_world () in
  let ia = inum_of image "a" in
  let frag0 = (dinode_of image ia).Types.db.(0) in
  (* overwrite a data fragment with another file's stamp *)
  image.(frag0) <- Types.Frag (Types.Written { inum = 999; gen = 7; flbn = 0 });
  let r = check ~exposure:true image in
  check_violations "exposure" [ Fsck.Exposure { inum = ia; flbn = 0; frag = frag0 } ] r;
  (* and ignored when initialisation is not promised *)
  let r = check ~exposure:false image in
  Alcotest.(check bool) "exposure not checked" true (Fsck.ok r)

let test_detects_leaks () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  (* drop the entry: inode and blocks leak (repairable, not violations) *)
  (match Types.dir_find entries "a" with
   | Some (slot, _) -> entries.(slot) <- None
   | None -> ());
  let r = check image in
  Alcotest.(check bool) "leaks are not violations" true (Fsck.ok r);
  Alcotest.(check int) "leaked inode counted" 1 r.Fsck.leaked_inodes;
  Alcotest.(check int) "leaked frags counted" 4 r.Fsck.leaked_frags;
  Alcotest.(check int) "one file left" 1 r.Fsck.files

let test_detects_bad_pointer () =
  let _w, image = clean_world () in
  let ia = inum_of image "a" in
  (* point a's data at a group header: outside every data area *)
  let hdr = Geom.cg_header_frag geom 1 in
  (dinode_of image ia).Types.db.(0) <- hdr;
  let r = check ~exposure:false image in
  let bad = List.init 4 (fun i -> Fsck.Bad_pointer { inum = ia; lbn = -1; ptr = hdr + i }) in
  check_violations "bad pointer (extent, then stamp check)" (bad @ bad) r;
  Alcotest.(check int) "a's old block leaks" 4 r.Fsck.leaked_frags

let bad_dir inum reason = Fsck.Bad_dir { inum; reason }

let test_detects_bad_dir () =
  let root = Geom.root_inum in
  (* a block pointer to something that is not a directory block: a
     free block at the end of the last group's data area *)
  let _w, image = clean_world () in
  let id = inum_of image "d" in
  let ptr = geom.Geom.nfrags - geom.Geom.frags_per_block in
  (dinode_of image id).Types.db.(0) <- ptr;
  let r = check ~exposure:false image in
  check_violations "unreadable block" [ bad_dir id (Fsck.Unreadable_block { ptr }) ] r;
  Alcotest.(check string) "unreadable block text"
    (Printf.sprintf "directory %d: unreadable block at %d" id ptr)
    (Format.asprintf "%a" Fsck.pp_violation (List.hd r.Fsck.violations));
  (* ".." missing *)
  let _w, image = clean_world () in
  let id = inum_of image "d" in
  let d_block = (dinode_of image id).Types.db.(0) in
  (match image.(d_block) with
   | Types.Meta (Types.Dir entries) -> (
     match Types.dir_find entries ".." with
     | Some (slot, _) -> entries.(slot) <- None
     | None -> Alcotest.fail "no \"..\"")
   | _ -> Alcotest.fail "d's block unreadable");
  let r = check image in
  check_violations "missing dots" [ bad_dir id Fsck.Missing_dots ] r;
  Alcotest.(check int) "root has one reference fewer" 1 r.Fsck.nlink_high;
  (* "." naming the root: the root gains a reference *)
  let _w, image = clean_world () in
  let id = inum_of image "d" in
  let d_block = (dinode_of image id).Types.db.(0) in
  (match image.(d_block) with
   | Types.Meta (Types.Dir entries) -> (
     match Types.dir_find entries "." with
     | Some (slot, _) -> entries.(slot) <- Some { Types.name = "."; inum = root }
     | None -> Alcotest.fail "no \".\"")
   | _ -> Alcotest.fail "d's block unreadable");
  let r = check image in
  let root_nlink = (dinode_of image root).Types.nlink in
  check_violations "bad dot"
    [
      bad_dir id Fsck.Bad_dot;
      Fsck.Nlink_low { inum = root; nlink = root_nlink; refs = root_nlink + 1 };
    ]
    r;
  (* a free root *)
  let _w, image = clean_world () in
  (dinode_of image root).Types.ftype <- Types.F_free;
  let r = check image in
  check_violations "free root" [ bad_dir root Fsck.Dir_inode_free ] r;
  Alcotest.(check int) "nothing reachable" 0 (r.Fsck.files + r.Fsck.dirs);
  Alcotest.(check int) "every inode leaks" 4 r.Fsck.leaked_inodes

let test_detects_unreadable_cg_header () =
  let _w, image = clean_world () in
  image.(Geom.cg_header_frag geom 1) <- Types.Empty;
  let r = check image in
  check_violations "cg header" [ bad_dir (-1) Fsck.Unreadable_cg_header ] r;
  Alcotest.(check string) "text unchanged"
    "directory -1: unreadable cylinder-group header"
    (Format.asprintf "%a" Fsck.pp_violation (List.hd r.Fsck.violations))

let test_nlink_high_repairable () =
  let _w, image = clean_world () in
  let ia = inum_of image "a" in
  (dinode_of image ia).Types.nlink <- 5;
  let r = check image in
  Alcotest.(check bool) "no violation" true (Fsck.ok r);
  Alcotest.(check int) "counted as repairable" 1 r.Fsck.nlink_high

(* Repair's first round is its initial report; a repair that changed
   nothing hands that same report back instead of checking again. *)
let test_repair_reuses_initial_check () =
  let _w, image = clean_world () in
  let o = Fsck.repair ~geom ~image ~check_exposure:true () in
  Alcotest.(check bool) "clean image: final is initial" true
    (o.Fsck.final == o.Fsck.initial);
  Alcotest.(check bool) "and clean" true (Fsck.ok o.Fsck.final);
  let _w, image = clean_world () in
  let ia = inum_of image "a" in
  (dinode_of image ia).Types.nlink <- 0;
  let o = Fsck.repair ~geom ~image ~check_exposure:true () in
  check_violations "initial is the pre-repair check"
    [ Fsck.Nlink_low { inum = ia; nlink = 0; refs = 1 } ]
    o.Fsck.initial;
  Alcotest.(check bool) "a repair that wrote re-checks" true
    (o.Fsck.final != o.Fsck.initial && Fsck.ok o.Fsck.final)

(* The last inode number owning the last data fragment: the tables'
   far ends, through check, cross-allocation and the map rebuild. *)
let test_table_extremes () =
  let _w, image = clean_world () in
  let top = Geom.root_inum + Geom.total_inodes geom - 1 in
  let last = geom.Geom.nfrags - 1 in
  let blk = last - geom.Geom.frags_per_block + 1 in
  let ia = inum_of image "a" in
  let file ~gen =
    let d = Types.free_dinode geom in
    d.Types.ftype <- Types.F_reg;
    d.Types.nlink <- 1;
    d.Types.gen <- gen;
    d.Types.size <- Geom.block_bytes geom;
    d.Types.db.(0) <- blk;
    d
  in
  let ib = Geom.inode_block_frag geom top in
  (match Types.fresh_inode_block geom with
   | Types.Inodes dinodes as m ->
     dinodes.(Geom.inode_index_in_block geom top) <- file ~gen:1;
     image.(ib) <- Types.Meta m
   | _ -> assert false);
  for f = blk to last do
    image.(f) <- Types.Frag (Types.Written { inum = top; gen = 1; flbn = f - blk })
  done;
  (* named from the root, so it is walked (and claims) before /d/a *)
  let _, root_entries = find_dir_entries image "d" in
  (match Types.dir_free_slot root_entries with
   | Some s -> root_entries.(s) <- Some { Types.name = "top"; inum = top }
   | None -> Alcotest.fail "directory full");
  let r = check image in
  check_violations "top inode owns the last block" [] r;
  Alcotest.(check int) "three files" 3 r.Fsck.files;
  Alcotest.(check int) "unmarked in the maps" 9 r.Fsck.stale_free;
  (* a also claims the last fragment: the owner table names [top] *)
  (dinode_of image ia).Types.db.(1) <- last;
  (dinode_of image ia).Types.size <- Geom.block_bytes geom + 1024;
  let r = check ~exposure:false image in
  let shared = Fsck.Cross_allocated { frag = last; owners = (top, ia) } in
  check_violations "last fragment first owned by the top inode" [ shared; shared ] r;
  (dinode_of image ia).Types.db.(1) <- 0;
  (dinode_of image ia).Types.size <- 4096;
  let o = Fsck.repair ~geom ~image ~check_exposure:true () in
  Alcotest.(check bool) "repaired clean" true (Fsck.ok o.Fsck.final);
  Alcotest.(check int) "maps now mark both" 0 o.Fsck.final.Fsck.stale_free;
  match image.(Geom.cg_header_frag geom (Geom.cg_count geom - 1)) with
  | Types.Meta (Types.Cgroup cg) ->
    Alcotest.(check char) "last inode marked" '\001'
      (Bytes.get cg.Types.inode_map (geom.Geom.inodes_per_cg - 1));
    Alcotest.(check char) "last fragment marked" '\001'
      (Bytes.get cg.Types.frag_map (geom.Geom.cg_frags - 1))
  | _ -> Alcotest.fail "last group header unreadable"

(* How repair built [final]: unwritten, converged (the last walk
   audited again, checked against a full check by the oracle) and
   unconverged (a fresh walk). *)
let test_repair_final_paths () =
  let paths = ref [] in
  Fsck.repair_final_oracle := Some (fun p -> paths := p :: !paths);
  Fun.protect
    ~finally:(fun () -> Fsck.repair_final_oracle := None)
    (fun () ->
      let repair image = Fsck.repair ~geom ~image ~check_exposure:true () in
      let _w, image = clean_world () in
      ignore (repair image);
      let _w, image = clean_world () in
      (dinode_of image (inum_of image "a")).Types.nlink <- 0;
      let o = repair image in
      Alcotest.(check bool) "converged" true o.Fsck.converged;
      (* an unreadable group header is structural, and no round can fix
         it: only the final map rebuild rewrites it *)
      let _w, image = clean_world () in
      image.(Geom.cg_header_frag geom 1) <- Types.Empty;
      let o = repair image in
      Alcotest.(check bool) "not converged" false o.Fsck.converged;
      Alcotest.(check bool) "a full check of the repaired image" true
        (o.Fsck.final = check image);
      Alcotest.(check bool) "paths" true
        (List.rev !paths = [ Fsck.Unwritten; Fsck.Reused_walk; Fsck.Full_check ]))

(* --- word-wise map audit and rebuild -----------------------------------

   The audit compares a group's fragment map with the walk's claims a
   word at a time and the rebuild copies claims whole; both are checked
   here against the per-fragment construction, on a geometry whose data
   areas are not a multiple of 8 long and whose later groups start off
   a word boundary. *)

let odd_geom =
  let cg_frags = Geom.small.Geom.cg_frags - 3 in
  { Geom.small with Geom.cg_frags; nfrags = 4 * cg_frags }

let group_header image g c =
  match image.(Geom.cg_header_frag g c) with
  | Types.Meta (Types.Cgroup cg) -> cg
  | _ -> Alcotest.fail "group header unreadable"

let dinode_of_g g image inum =
  match image.(Geom.inode_block_frag g inum) with
  | Types.Meta (Types.Inodes ds) -> ds.(Geom.inode_index_in_block g inum)
  | _ -> Alcotest.fail "inode block unreadable"

(* A freshly made file system with one-fragment files on the first and
   last byte of data-area words and across each group's ragged tail,
   marked in the maps: a consistent image, and the fragments the walk
   must claim. *)
let edge_image g =
  let cfg =
    { (Fs.config ~scheme:Fs.No_order ()) with Fs.geom = g; cache_mb = 4 }
  in
  let image = Su_disk.Disk.image_snapshot (Fs.make cfg).Fs.disk in
  let root_blk = (dinode_of_g g image Geom.root_inum).Types.db.(0) in
  let entries =
    match Types.copy_cell image.(root_blk) with
    | Types.Meta (Types.Dir e) as c ->
      image.(root_blk) <- c;
      e
    | _ -> Alcotest.fail "root directory unreadable"
  in
  for c = 0 to Geom.cg_count g - 1 do
    let first, count = Geom.cg_data_area g c in
    let last = first + count - 1 in
    let tail = count mod 8 in
    let cg = match Types.copy_cell image.(Geom.cg_header_frag g c) with
      | Types.Meta (Types.Cgroup cg) as cell ->
        image.(Geom.cg_header_frag g c) <- cell;
        cg
      | _ -> Alcotest.fail "group header unreadable"
    in
    List.iteri
      (fun k frag ->
        let inum = Geom.first_inum_of_cg g c + 1 + k in
        let d = Types.free_dinode g in
        d.Types.ftype <- Types.F_reg;
        d.Types.nlink <- 1;
        d.Types.gen <- 1;
        d.Types.size <- 1024;
        d.Types.db.(0) <- frag;
        let blk = Geom.inode_block_frag g inum in
        (match image.(blk) with
         | Types.Meta (Types.Inodes _) -> ()
         | _ -> image.(blk) <- Types.Meta (Types.fresh_inode_block g));
        (match Types.copy_cell image.(blk) with
         | Types.Meta (Types.Inodes ds) as cell ->
           ds.(Geom.inode_index_in_block g inum) <- d;
           image.(blk) <- cell
         | _ -> assert false);
        image.(frag) <- Types.Frag (Types.Written { inum; gen = 1; flbn = 0 });
        (match Types.dir_free_slot entries with
         | Some s ->
           entries.(s) <- Some { Types.name = Printf.sprintf "c%d.%d" c k; inum }
         | None -> Alcotest.fail "root directory full");
        Bytes.set cg.Types.frag_map (frag - Geom.cg_base g c) '\001';
        cg.Types.nffree <- cg.Types.nffree - 1;
        Bytes.set cg.Types.inode_map (inum - Geom.first_inum_of_cg g c) '\001';
        cg.Types.nifree <- cg.Types.nifree - 1)
      (List.sort_uniq compare
         [ first + 15; first + 16; last - tail - 8; last - tail; last ])
  done;
  image

(* The per-fragment header construction from a set of claims and live
   inodes. *)
let reference_header g c ~claimed ~live =
  let cg = Types.fresh_cg g in
  let base = Geom.cg_base g c in
  let first, count = Geom.cg_data_area g c in
  for off = 0 to first - base - 1 do
    Bytes.set cg.Types.frag_map off '\001'
  done;
  cg.Types.nffree <- count;
  for f = first to first + count - 1 do
    if claimed f then begin
      Bytes.set cg.Types.frag_map (f - base) '\001';
      cg.Types.nffree <- cg.Types.nffree - 1
    end
  done;
  cg.Types.nifree <- g.Geom.inodes_per_cg;
  for j = 0 to g.Geom.inodes_per_cg - 1 do
    if live (Geom.first_inum_of_cg g c + j) then begin
      Bytes.set cg.Types.inode_map j '\001';
      cg.Types.nifree <- cg.Types.nifree - 1
    end
  done;
  cg

let test_wordwise_maps () =
  List.iter
    (fun g ->
      let image = edge_image g in
      let r = Fsck.check ~geom:g ~image ~check_exposure:true in
      check_violations "consistent" [] r;
      Alcotest.(check (pair int int)) "no leak, no stale free" (0, 0)
        (r.Fsck.leaked_frags, r.Fsck.stale_free);
      (* the consistent maps are the claims *)
      let clean =
        Array.init (Geom.cg_count g) (fun c ->
            match Types.copy_cell image.(Geom.cg_header_frag g c) with
            | Types.Meta (Types.Cgroup cg) -> cg
            | _ -> assert false)
      in
      let claimed f =
        let c = Geom.cg_of_frag g f in
        Bytes.get clean.(c).Types.frag_map (f - Geom.cg_base g c) <> '\000'
      in
      let live inum =
        let c = Geom.cg_of_inode g inum in
        Bytes.get clean.(c).Types.inode_map (inum - Geom.first_inum_of_cg g c)
        <> '\000'
      in
      (* flip map bytes on word edges and in the tail: claimed ones to
         0 (stale free) or to another non-zero value (no finding),
         unclaimed ones to 1 or 0x81 (a leak) *)
      for c = 0 to Geom.cg_count g - 1 do
        let cg = match Types.copy_cell image.(Geom.cg_header_frag g c) with
          | Types.Meta (Types.Cgroup cg) as cell ->
            image.(Geom.cg_header_frag g c) <- cell;
            cg
          | _ -> assert false
        in
        let first, count = Geom.cg_data_area g c in
        let last = first + count - 1 and tail = count mod 8 in
        List.iteri
          (fun k f ->
            let v =
              match claimed f, k mod 2 with
              | true, 0 -> '\000'
              | true, _ -> if k mod 4 = 1 then '\002' else '\255'
              | false, 0 -> '\001'
              | false, _ -> '\129'
            in
            Bytes.set cg.Types.frag_map (f - Geom.cg_base g c) v)
          (List.sort_uniq compare
             [ first; first + 7; first + 8; first + 15; first + 16; first + 17;
               last - tail - 8; last - tail - 7; last - tail; last - 1; last ])
      done;
      let leaks = ref 0 and stale = ref 0 in
      for c = 0 to Geom.cg_count g - 1 do
        let cg = group_header image g c in
        let first, count = Geom.cg_data_area g c in
        for f = first to first + count - 1 do
          let marked =
            Bytes.get cg.Types.frag_map (f - Geom.cg_base g c) <> '\000'
          in
          if claimed f && not marked then incr stale
          else if marked && not (claimed f) then incr leaks
        done
      done;
      Alcotest.(check bool) "both findings seeded" true (!leaks > 0 && !stale > 0);
      let r = Fsck.check ~geom:g ~image ~check_exposure:true in
      Alcotest.(check (pair int int)) "word-wise audit = per-fragment count"
        (!leaks, !stale) (r.Fsck.leaked_frags, r.Fsck.stale_free);
      Fsck.rebuild_maps g image;
      for c = 0 to Geom.cg_count g - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "group %d header as built per fragment" c)
          true
          (group_header image g c = reference_header g c ~claimed ~live)
      done)
    [ odd_geom; geom ]

(* The explorer takes its pre-repair count from repair's first round:
   it must equal a standalone check of the same crash state. *)
let test_verify_state_pre_matches_check () =
  let schemes = Fs.all_schemes @ [ Fs.Journaled { group_commit = true } ] in
  let dirty = ref 0 in
  List.iter
    (fun scheme ->
      let cfg = Su_check.Explorer.sweep_cfg scheme in
      let check_exposure = Fs.check_exposure cfg in
      List.iter
        (fun wl ->
          let r = Su_check.Explorer.record ~cfg wl in
          let cur =
            Su_check.Delta.cursor ~initial:r.Su_check.Explorer.rec_initial
              ~log:r.Su_check.Explorer.rec_deltas
          in
          Array.iter
            (fun ((boundary, torn) as state) ->
              let image = Su_check.Explorer.materialize cur state in
              Fs.recover_image cfg image;
              let standalone = Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure in
              if not (Fsck.ok standalone) then incr dirty;
              let v =
                Su_check.Explorer.verify_state ~cfg ~boundary ~torn
                  (Su_check.Explorer.materialize cur state)
              in
              Alcotest.(check int)
                (Printf.sprintf "%s/%s k=%d pre-violations" (Fs.scheme_kind_name scheme)
                   wl.Su_check.Explorer.wl_name boundary)
                (List.length standalone.Fsck.violations)
                v.Su_check.Explorer.v_pre_violations)
            (Su_check.Explorer.crash_states ~max_boundaries:6 r))
        Su_check.Explorer.builtin_workloads)
    schemes;
  Alcotest.(check bool) "some states were dirty" true (!dirty > 0)

(* --- the per-domain spare tables -------------------------------------------

   [check], [repair] and [rebuild_maps] reuse one set of tables per
   domain. Back to back, in either order and across geometries, each
   call must report exactly what the same call reports with fresh
   tables — those of a newly spawned domain. *)

(* A world of [g] holding a few files, its image made dirty: a link
   count too low, a block shared by two files and a dangling entry. *)
let dirty_image g =
  let cfg = { (Fs.config ~scheme:Fs.No_order ()) with Fs.geom = g; cache_mb = 8 } in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine ~name:"setup" (fun () ->
         let st = w.Fs.st in
         Fsops.mkdir st "/d";
         List.iter
           (fun (name, bytes) ->
             Fsops.create st name;
             Fsops.append st name ~bytes)
           [ ("/d/a", 4096); ("/d/b", 12288); ("/d/c", 2048); ("/e", 9000) ];
         Fsops.sync st;
         Fs.stop w));
  Engine.run w.Fs.engine;
  let image = Su_disk.Disk.image_snapshot w.Fs.disk in
  let dinode name = dinode_of_g g image (inum_of image name) in
  (dinode "a").Types.nlink <- 0;
  (dinode "b").Types.db.(0) <- (dinode "a").Types.db.(0);
  let _, entries = find_dir_entries image "c" in
  (match Types.dir_free_slot entries with
   | Some s -> entries.(s) <- Some { Types.name = "ghost"; inum = 77 }
   | None -> Alcotest.fail "directory full");
  (g, image)

type fsck_result =
  | Checked of Fsck.report
  | Repaired of Fsck.repair_outcome * Types.cell array
  | Rebuilt of Types.cell array

let run_call (g, image) = function
  | `Check -> Checked (Fsck.check ~geom:g ~image ~check_exposure:true)
  | `Repair ->
    let image = Types.copy_image image in
    Repaired (Fsck.repair ~geom:g ~image ~check_exposure:true (), image)
  | `Rebuild ->
    let image = Types.copy_image image in
    Fsck.rebuild_maps g image;
    Rebuilt image

let fresh img call = Domain.join (Domain.spawn (fun () -> run_call img call))

let call_name = function
  | `Check -> "check"
  | `Repair -> "repair"
  | `Rebuild -> "rebuild_maps"

(* Every call on each image, the images taken in each listed order and
   the calls in the order given with them, equals the same call on
   fresh tables: those of a newly spawned domain. Then again with the
   oracle checking inside each repair, while the repair holds the
   domain's tables. *)
let check_reuse imgs orders =
  let expected =
    List.map
      (fun img -> (img, List.map (fun call -> (call, fresh img call)) [ `Check; `Repair; `Rebuild ]))
      imgs
  in
  let run_sequence ~label imgs calls =
    List.iter
      (fun img ->
        let want = List.assq img expected in
        List.iter
          (fun call ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s on %d fragments" label (call_name call)
                 (fst img).Geom.nfrags)
              true
              (run_call img call = List.assoc call want))
          calls)
      imgs
  in
  List.iter
    (fun (imgs, calls) ->
      run_sequence ~label:"reused" imgs calls;
      Fsck.repair_final_oracle := Some ignore;
      Fun.protect
        ~finally:(fun () -> Fsck.repair_final_oracle := None)
        (fun () -> run_sequence ~label:"oracle" imgs calls))
    orders;
  expected

let test_table_reuse () =
  let small = dirty_image Geom.small and big = dirty_image Geom.default in
  (match run_call small `Check with
   | Checked r -> Alcotest.(check bool) "the small image is dirty" false (Fsck.ok r)
   | _ -> assert false);
  let expected =
    check_reuse [ small; big ]
      [ ([ small; big ], [ `Check; `Repair; `Rebuild ]);
        ([ big; small ], [ `Rebuild; `Repair; `Check ]) ]
  in
  (* a check nested inside a repair (here from its write observer)
     takes tables of its own: both match their fresh results *)
  let g, image = small in
  let other = snd (dirty_image g) in
  (dinode_of_g g other (inum_of other "b")).Types.nlink <- 0;
  let nested = ref [] in
  let observer ~lbn:_ ~pre:_ ~post:_ =
    nested := Fsck.check ~geom:g ~image:other ~check_exposure:true :: !nested
  in
  let repaired = Types.copy_image image in
  let o = Fsck.repair ~observer ~geom:g ~image:repaired ~check_exposure:true () in
  Alcotest.(check bool) "the observer ran" true (!nested <> []);
  Alcotest.(check bool) "repair beside nested checks" true
    (Repaired (o, repaired) = List.assoc `Repair (List.assq small expected));
  Alcotest.(check bool) "nested checks" true
    (let want = fresh (g, other) `Check in
     List.for_all (fun r -> Checked r = want) !nested)

(* A default-geometry world of [dirs] directories holding two files
   each. Directories are placed round-robin over the groups, so a walk
   of a populated image reaches table pages across the whole volume. *)
let spread_image ~dirs =
  let g = Geom.default in
  let cfg = { (Fs.config ~scheme:Fs.No_order ()) with Fs.geom = g; cache_mb = 8 } in
  let w = Fs.make cfg in
  ignore
    (Proc.spawn w.Fs.engine ~name:"setup" (fun () ->
         let st = w.Fs.st in
         for d = 0 to dirs - 1 do
           let dir = Printf.sprintf "/d%d" d in
           Fsops.mkdir st dir;
           Fsops.create st (Printf.sprintf "%s/a%d" dir d);
           Fsops.append st (Printf.sprintf "%s/a%d" dir d) ~bytes:3072;
           Fsops.create st (Printf.sprintf "%s/b%d" dir d);
           Fsops.append st (Printf.sprintf "%s/b%d" dir d) ~bytes:10240
         done;
         Fsops.sync st;
         Fs.stop w));
  Engine.run w.Fs.engine;
  (g, Su_disk.Disk.image_snapshot w.Fs.disk)

(* fsck clears only the table pages its last walk marked. A populated
   image, dirty in every way the walk records and with pointers past
   the volume end and entries naming inode numbers that do not exist,
   is checked, repaired and rebuilt before and after a near-empty image
   of the same geometry: each call must still equal a fresh-table call,
   so whatever the populated walk left must be gone. *)
let test_page_reset () =
  let ((g, image) as populated) = spread_image ~dirs:40 in
  let dinode name = dinode_of_g g image (inum_of image name) in
  let groups =
    List.sort_uniq compare
      (List.init 40 (fun d -> Geom.cg_of_inode g (inum_of image (Printf.sprintf "a%d" d))))
  in
  Alcotest.(check bool) "files in many groups" true (List.length groups >= 32);
  (dinode "a3").Types.nlink <- 0;
  (dinode "b7").Types.db.(0) <- (dinode "a7").Types.db.(0);
  (dinode "b20").Types.db.(1) <- g.Geom.nfrags + 100;
  (dinode "a31").Types.db.(0) <- g.Geom.nfrags + 3;
  let _, entries = find_dir_entries image "a39" in
  List.iter
    (fun (name, inum) ->
      match Types.dir_free_slot entries with
      | Some s -> entries.(s) <- Some { Types.name; inum }
      | None -> Alcotest.fail "directory full")
    [ ("ghost", 77);
      ("past", Geom.root_inum + Geom.total_inodes g + 5);
      ("zero", 0);
      ("negative", -4) ];
  (match run_call populated `Check with
   | Checked r ->
     Alcotest.(check bool) "a bad pointer past the end" true
       (List.exists
          (function Fsck.Bad_pointer { ptr; _ } -> ptr >= g.Geom.nfrags | _ -> false)
          r.Fsck.violations);
     Alcotest.(check int) "dangling entries" 4
       (List.length
          (List.filter
             (function Fsck.Dangling_entry _ -> true | _ -> false)
             r.Fsck.violations))
   | _ -> assert false);
  let near_empty = spread_image ~dirs:1 in
  ignore
    (check_reuse [ populated; near_empty ]
       [ ([ populated; near_empty ], [ `Check; `Repair; `Rebuild ]);
         ([ near_empty; populated ], [ `Rebuild; `Repair; `Check ]);
         ([ populated; near_empty; populated ], [ `Repair ]) ])

let suite =
  [
    Alcotest.test_case "clean baseline" `Quick test_clean_baseline;
    Alcotest.test_case "detects dangling entry" `Quick test_detects_dangling_entry;
    Alcotest.test_case "detects cross allocation" `Quick
      test_detects_cross_allocation;
    Alcotest.test_case "detects nlink low" `Quick test_detects_nlink_low;
    Alcotest.test_case "stale-free frag repairable" `Quick
      test_detects_referenced_free_frag;
    Alcotest.test_case "detects exposure" `Quick test_detects_exposure;
    Alcotest.test_case "leaks are repairable" `Quick test_detects_leaks;
    Alcotest.test_case "detects bad dir" `Quick test_detects_bad_dir;
    Alcotest.test_case "nlink high repairable" `Quick test_nlink_high_repairable;
    Alcotest.test_case "detects bad pointer" `Quick test_detects_bad_pointer;
    Alcotest.test_case "detects unreadable cg header" `Quick
      test_detects_unreadable_cg_header;
    Alcotest.test_case "repair reuses its initial check" `Quick
      test_repair_reuses_initial_check;
    Alcotest.test_case "tables at their far ends" `Quick test_table_extremes;
    Alcotest.test_case "repair final report paths" `Quick test_repair_final_paths;
    Alcotest.test_case "word-wise map audit and rebuild" `Quick
      test_wordwise_maps;
    Alcotest.test_case "verify_state pre count matches check" `Slow
      test_verify_state_pre_matches_check;
    Alcotest.test_case "tables reused across calls and geometries" `Quick
      test_table_reuse;
    Alcotest.test_case "table reset clears what the last walk reached" `Quick
      test_page_reset;
  ]
