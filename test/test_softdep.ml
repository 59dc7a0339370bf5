(* Focused soft-updates dependency machinery tests (appendix cases). *)
open Su_sim
open Su_fs
open Su_fstypes

let mk () =
  let cfg =
    { (Fs.config ~scheme:Fs.Soft_updates ()) with
      Fs.geom = Geom.small;
      cache_mb = 8 }
  in
  Fs.make cfg

let in_world w f =
  let r = ref None in
  ignore
    (Proc.spawn w.Fs.engine (fun () ->
         r := Some (f ());
         Fs.stop w));
  Engine.run w.Fs.engine;
  Option.get !r

let on_disk_dinode w inum =
  match Su_disk.Disk.peek w.Fs.disk (Geom.inode_block_frag Geom.small inum) with
  | Types.Meta (Types.Inodes ds) ->
    Some ds.(Geom.inode_index_in_block Geom.small inum)
  | _ -> None

let test_fragment_extension_merge_rollback () =
  (* two allocdirects for the same slot merge, keeping the ORIGINAL
     on-disk old values: an early inode flush rolls all the way back *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.append st "/f" ~bytes:1024;
      Fsops.append st "/f" ~bytes:1024;
      (* extend in place or move: either way the pending allocdirect
         has old_ptr = 0, old_size = 0 *)
      let inum = Fsops.resolve st "/f" in
      Inode.with_ibuf st inum (fun ibuf ->
          ignore (Su_cache.Bcache.bawrite w.Fs.cache ibuf);
          Su_cache.Bcache.wait_write w.Fs.cache ibuf);
      (match on_disk_dinode w inum with
       | Some d ->
         Alcotest.(check int) "pointer rolled back" 0 d.Types.db.(0);
         Alcotest.(check int) "size rolled back" 0 d.Types.size
       | None -> Alcotest.fail "inode block missing");
      Fsops.sync st;
      (match on_disk_dinode w inum with
       | Some d ->
         Alcotest.(check bool) "pointer settled" true (d.Types.db.(0) <> 0);
         Alcotest.(check int) "size settled" 2048 d.Types.size
       | None -> Alcotest.fail "inode block missing"))

let test_copy_on_undo () =
  (* the payload shares the buffer's dinodes and copies a slot only to
     roll it back: the buffer's own dinodes are never touched *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.create st "/g";
      Fsops.append st "/f" ~bytes:1024;
      let inum = Fsops.resolve st "/f" in
      let slot = Geom.inode_index_in_block Geom.small inum in
      Inode.with_ibuf st inum (fun ibuf ->
          let live =
            match ibuf.Su_cache.Buf.content with
            | Su_cache.Buf.Cmeta (Types.Inodes ds) -> ds
            | _ -> Alcotest.fail "inode buffer missing"
          in
          let cells, keep_dirty =
            (Su_cache.Bcache.hooks w.Fs.cache).Su_cache.Bcache.pre_write ibuf
          in
          Alcotest.(check bool) "rolled back, kept dirty" true keep_dirty;
          let sent =
            match cells.(0) with
            | Types.Meta (Types.Inodes ds) -> ds
            | _ -> Alcotest.fail "payload is not an inode block"
          in
          Alcotest.(check bool) "rolled slot is a fresh dinode" true
            (sent.(slot) != live.(slot));
          Alcotest.(check int) "payload: old pointer" 0 sent.(slot).Types.db.(0);
          Alcotest.(check int) "payload: old size" 0 sent.(slot).Types.size;
          Alcotest.(check bool) "buffer: new pointer" true
            (live.(slot).Types.db.(0) <> 0);
          Alcotest.(check int) "buffer: new size" 1024 live.(slot).Types.size;
          Array.iteri
            (fun i d ->
              if i <> slot then
                Alcotest.(check bool)
                  (Printf.sprintf "slot %d shared" i)
                  true (d == live.(i)))
            sent;
          ignore (Su_cache.Bcache.bawrite w.Fs.cache ibuf);
          Su_cache.Bcache.wait_write w.Fs.cache ibuf);
      Fsops.sync st;
      match on_disk_dinode w inum with
      | Some d -> Alcotest.(check int) "size settled" 1024 d.Types.size
      | None -> Alcotest.fail "inode block missing")

let test_rollback_after_data_written () =
  (* once the data reaches the disk, the inode flush carries the real
     pointer (no rollback) *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.append st "/f" ~bytes:4096;
      let inum = Fsops.resolve st "/f" in
      let ip = Inode.iget st inum in
      let data_lbn = File.ptr_at st ip 0 in
      Inode.iput st ip;
      (* flush the data block first *)
      (match Su_cache.Bcache.lookup w.Fs.cache data_lbn with
       | Some db ->
         ignore (Su_cache.Bcache.bawrite w.Fs.cache db);
         Su_cache.Bcache.wait_write w.Fs.cache db
       | None -> Alcotest.fail "data buffer missing");
      Inode.with_ibuf st inum (fun ibuf ->
          ignore (Su_cache.Bcache.bawrite w.Fs.cache ibuf);
          Su_cache.Bcache.wait_write w.Fs.cache ibuf);
      match on_disk_dinode w inum with
      | Some d ->
        Alcotest.(check int) "pointer written" data_lbn d.Types.db.(0);
        Alcotest.(check int) "size written" 4096 d.Types.size
      | None -> Alcotest.fail "inode block missing")

let test_deferred_free_not_reusable () =
  (* rule 2: a freed extent is not allocatable until the reset pointer
     is on disk, even under allocation pressure in the same group *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/a";
      Fsops.append st "/a" ~bytes:8192;
      Fsops.sync st;
      let inum = Fsops.resolve st "/a" in
      let ip = Inode.iget st inum in
      let old_lbn = File.ptr_at st ip 0 in
      Inode.iput st ip;
      Fsops.unlink st "/a";
      (* before any flush: allocate heavily in the same group; nothing
         may land on the just-freed extent *)
      let hits = ref 0 in
      for i = 1 to 40 do
        let p = Printf.sprintf "/b%d" i in
        Fsops.create st p;
        Fsops.append st p ~bytes:8192;
        let bi = Fsops.resolve st p in
        let bip = Inode.iget st bi in
        if File.ptr_at st bip 0 = old_lbn then incr hits;
        Inode.iput st bip
      done;
      Alcotest.(check int) "freed extent not reused early" 0 !hits;
      (* after a full sync the extent is genuinely free again *)
      Fsops.sync st;
      Fsops.create st "/c";
      Fsops.append st "/c" ~bytes:8192;
      ignore (Fsops.resolve st "/c"))

let test_dir_init_before_link () =
  (* a new directory's block must be initialised on disk before the
     parent's entry: flush the parent dir block early and check the
     entry is rolled back while the child block is absent *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.mkdir st "/sub";
      let root_blk = fst (Geom.cg_data_area Geom.small 0) in
      (match Su_cache.Bcache.lookup w.Fs.cache root_blk with
       | Some b ->
         ignore (Su_cache.Bcache.bawrite w.Fs.cache b);
         Su_cache.Bcache.wait_write w.Fs.cache b
       | None -> Alcotest.fail "root block not cached");
      (match Su_disk.Disk.peek w.Fs.disk root_blk with
       | Types.Meta (Types.Dir entries) ->
         Alcotest.(check bool) "entry rolled back" true
           (Types.dir_find entries "sub" = None)
       | _ -> Alcotest.fail "root block unreadable");
      Fsops.sync st;
      match Su_disk.Disk.peek w.Fs.disk root_blk with
      | Types.Meta (Types.Dir entries) ->
        (match Types.dir_find entries "sub" with
         | Some (_, e) ->
           (* and by now the child's block and inode are stable *)
           (match on_disk_dinode w e.Types.inum with
            | Some d ->
              Alcotest.(check bool) "child dir on disk" true
                (d.Types.ftype = Types.F_dir);
              (match Su_disk.Disk.peek w.Fs.disk d.Types.db.(0) with
               | Types.Meta (Types.Dir es) ->
                 Alcotest.(check bool) "dots present" true
                   (Types.dir_find es "." <> None && Types.dir_find es ".." <> None)
               | _ -> Alcotest.fail "child block unreadable")
            | None -> Alcotest.fail "child inode missing")
         | None -> Alcotest.fail "entry missing after sync")
      | _ -> Alcotest.fail "root block unreadable")

let test_rmdir_deferred_parent_decrement () =
  (* the ".."-driven parent link-count decrement settles through the
     workitem queue even though the child's block is freed unwritten *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.mkdir st "/p";
      Fsops.mkdir st "/p/q";
      Fsops.sync st;
      Alcotest.(check int) "parent nlink 3" 3 (Fsops.stat st "/p").Fsops.st_nlink;
      Fsops.rmdir st "/p/q";
      Fsops.sync st;
      Alcotest.(check int) "parent nlink back to 2" 2
        (Fsops.stat st "/p").Fsops.st_nlink;
      let r =
        Fsck.check ~geom:Geom.small
          ~image:(Su_disk.Disk.image_snapshot w.Fs.disk)
          ~check_exposure:true
      in
      Alcotest.(check bool) "clean" true (Fsck.ok r))

(* --- deallocation purge, driven through the scheme hooks ------------ *)

(* Synthetic extents in the last group's data area, which an empty
   volume never allocates: dependencies are attached to them directly
   through the scheme, so the tests control exactly which records sit
   inside and outside the freed runs. *)
let fpb = Geom.small.Geom.frags_per_block
let far = fst (Geom.cg_data_area Geom.small (Geom.cg_count Geom.small - 1))
let blk i = far + (i * fpb)

let live w = (Option.get w.Fs.st.State.softdep_stats).Su_core.Softdep.live_deps
let workitems w =
  (Option.get w.Fs.st.State.softdep_stats).Su_core.Softdep.workitems

let data_buf w i =
  Su_cache.Bcache.getblk w.Fs.cache ~lbn:(blk i) ~nfrags:fpb ~init:(fun () ->
      Su_cache.Buf.Cdata (Array.make fpb None))

let meta_buf w i meta =
  Su_cache.Bcache.getblk w.Fs.cache ~lbn:(blk i) ~nfrags:fpb ~init:(fun () ->
      Su_cache.Buf.Cmeta meta)

let ind_buf w i = meta_buf w i (Types.Indirect (Array.make 16 0))

(* a pending data-init allocation; [freed] is non-empty so the record
   carries a free_moved action, which is enqueued (and counted as a
   workitem) when an allocindirect's data reaches the disk *)
let attach w ~inum ~owner ~loc ~data =
  w.Fs.st.State.scheme.Su_core.Scheme_intf.block_alloc
    {
      Su_core.Scheme_intf.inum;
      owner;
      loc;
      data;
      new_ptr = data.Su_cache.Buf.key;
      old_ptr = 0;
      new_size = 0;
      old_size = 0;
      freed = [ (data.Su_cache.Buf.key, 1) ];
      free_moved = (fun () -> ());
      init_required = true;
    }

let dealloc w ~inum ~ibuf runs =
  w.Fs.st.State.scheme.Su_core.Scheme_intf.block_dealloc ~ibuf ~inum ~runs
    ~inode_freed:true ~do_free:(fun () -> ())

let write_out w b =
  ignore (Su_cache.Bcache.bawrite w.Fs.cache b);
  Su_cache.Bcache.wait_write w.Fs.cache b

let test_purge_only_freed_runs () =
  (* file A is freed as two non-adjacent runs, blocks 0-1 and block 3;
     inode B's dependencies sit in the gap (block 2) and past the runs
     (blocks 5-6) *)
  let w = mk () in
  in_world w (fun () ->
      let a = 100 and b = 101 in
      let a_direct = data_buf w 0 and a_data = data_buf w 1 in
      let b_direct = data_buf w 2 and a_ind = ind_buf w 3 in
      let a_out = data_buf w 4 and b_data = data_buf w 5 in
      let b_ind = ind_buf w 6 in
      (* stands in for the inode block: inode-owned pointers are
         tracked by inode number *)
      let ibuf = data_buf w 7 in
      attach w ~inum:a ~owner:a_ind ~loc:(Su_core.Scheme_intf.P_ind 0)
        ~data:a_data;
      attach w ~inum:a ~owner:ibuf ~loc:(Su_core.Scheme_intf.P_direct 0)
        ~data:a_direct;
      attach w ~inum:b ~owner:ibuf ~loc:(Su_core.Scheme_intf.P_direct 0)
        ~data:b_direct;
      (* A's indirect block also guards data outside the runs, so the
         indirdep survives the data-init purge and goes because its own
         block is freed *)
      attach w ~inum:a ~owner:a_ind ~loc:(Su_core.Scheme_intf.P_ind 1)
        ~data:a_out;
      attach w ~inum:b ~owner:b_ind ~loc:(Su_core.Scheme_intf.P_ind 0)
        ~data:b_data;
      let before = live w in
      dealloc w ~inum:a ~ibuf [ (blk 0, 2 * fpb); (blk 3, fpb) ];
      (* matched: A's inodedep (its only allocdirect lay in the runs)
         and A's indirdep; the freework then opens a fresh inodedep for
         A *)
      Alcotest.(check int) "live deps drop by the matched count"
        (before - 2 + 1) (live w);
      Alcotest.(check bool) "freed indirect unpinned" false
        a_ind.Su_cache.Buf.sticky;
      Alcotest.(check bool) "outside indirect still pinned" true
        b_ind.Su_cache.Buf.sticky;
      (* a purged data-init guard no longer fires when its data lands *)
      let wi = workitems w in
      write_out w a_data;
      Alcotest.(check int) "purged guard gone" wi (workitems w);
      (* guards outside the runs are intact: B's allocindirect retires
         B's indirdep, A's outside guard still enqueues its action *)
      write_out w a_out;
      Alcotest.(check int) "outside guard of A kept" (wi + 1) (workitems w);
      let l = live w in
      write_out w b_data;
      Alcotest.(check int) "outside guard of B kept" (wi + 2) (workitems w);
      Alcotest.(check int) "B's indirdep retires on its own" (l - 1) (live w);
      Alcotest.(check bool) "B's indirect unpinned" false
        b_ind.Su_cache.Buf.sticky)

let test_dealloc_without_runs () =
  (* freeing an inode with no blocks touches no dependency table *)
  let w = mk () in
  in_world w (fun () ->
      let c = 100 and e = 101 in
      let dir =
        meta_buf w 0 (Types.Dir (Array.make Geom.small.Geom.dir_capacity None))
      in
      let ibuf = data_buf w 1 and e_data = data_buf w 2 in
      let e_ind = ind_buf w 3 and e_direct = data_buf w 4 in
      w.Fs.st.State.scheme.Su_core.Scheme_intf.link_add ~dir ~slot:0 ~ibuf
        ~inum:e;
      attach w ~inum:e ~owner:e_ind ~loc:(Su_core.Scheme_intf.P_ind 0)
        ~data:e_data;
      attach w ~inum:e ~owner:ibuf ~loc:(Su_core.Scheme_intf.P_direct 0)
        ~data:e_direct;
      let before = live w in
      dealloc w ~inum:c ~ibuf [];
      (* only the freework's inodedep for C is new *)
      Alcotest.(check int) "nothing purged" (before + 1) (live w);
      Alcotest.(check bool) "indirect still pinned" true
        e_ind.Su_cache.Buf.sticky;
      let wi = workitems w in
      write_out w e_data;
      Alcotest.(check int) "data-init guard kept" (wi + 1) (workitems w);
      Alcotest.(check int) "indirdep kept until its data lands" before (live w))

let test_rmdir_multiblock_purge () =
  (* entries removed from a multi-block directory leave pending
     dirrems in every block; releasing the directory frees the blocks
     unwritten, so the purge hands every deferred decrement to the
     freework *)
  let w = mk () in
  in_world w (fun () ->
      let st = w.Fs.st in
      let n = 300 in
      Fsops.mkdir st "/d";
      for i = 0 to n - 1 do
        Fsops.create st (Printf.sprintf "/d/f%d" i)
      done;
      Fsops.sync st;
      Alcotest.(check int) "three directory blocks"
        (3 * Geom.block_bytes Geom.small)
        (Fsops.stat st "/d").Fsops.st_size;
      let inums =
        List.init n (fun i -> Fsops.resolve st (Printf.sprintf "/d/f%d" i))
      in
      List.iteri
        (fun i _ -> Fsops.unlink st (Printf.sprintf "/d/f%d" i))
        inums;
      let nlink inum =
        let ip = Inode.iget st inum in
        let l = ip.State.din.Types.nlink in
        Inode.iput st ip;
        l
      in
      Alcotest.(check int) "every decrement still deferred" n
        (List.length (List.filter (fun i -> nlink i = 1) inums));
      Fsops.rmdir st "/d";
      (* write only the root's block: the rmdir's decrement becomes a
         workitem, and running it frees /d's blocks still unwritten *)
      let root_blk = fst (Geom.cg_data_area Geom.small 0) in
      write_out w (Option.get (Su_cache.Bcache.lookup w.Fs.cache root_blk));
      List.iter (fun item -> item ()) (Su_cache.Bcache.take_workitems w.Fs.cache);
      Alcotest.(check bool) "directory released" false (Fsops.exists st "/d");
      Fsops.sync st;
      Alcotest.(check int) "every decrement ran" n
        (List.length (List.filter (fun i -> nlink i = 0) inums));
      let stats = Option.get st.State.softdep_stats in
      Alcotest.(check int) "no dependency left" 0 stats.Su_core.Softdep.live_deps;
      (* pinned: the same completion actions run, in the same number *)
      Alcotest.(check int) "workitems" 602 stats.Su_core.Softdep.workitems;
      Alcotest.(check int) "records" 908 stats.Su_core.Softdep.created;
      let r =
        Fsck.check ~geom:Geom.small
          ~image:(Su_disk.Disk.image_snapshot w.Fs.disk)
          ~check_exposure:true
      in
      Alcotest.(check bool) "clean" true (Fsck.ok r))

let suite =
  [
    Alcotest.test_case "fragment extension merge rollback" `Quick
      test_fragment_extension_merge_rollback;
    Alcotest.test_case "no rollback after data written" `Quick
      test_rollback_after_data_written;
    Alcotest.test_case "copy on undo" `Quick test_copy_on_undo;
    Alcotest.test_case "deferred free not reusable" `Quick
      test_deferred_free_not_reusable;
    Alcotest.test_case "dir init before link" `Quick test_dir_init_before_link;
    Alcotest.test_case "rmdir deferred parent decrement" `Quick
      test_rmdir_deferred_parent_decrement;
    Alcotest.test_case "purge only freed runs" `Quick
      test_purge_only_freed_runs;
    Alcotest.test_case "dealloc without runs" `Quick test_dealloc_without_runs;
    Alcotest.test_case "rmdir multi-block purge" `Quick
      test_rmdir_multiblock_purge;
  ]
