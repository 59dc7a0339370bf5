(* Scheme-level behaviour: each ordering scheme must turn the four
   structural changes into its own persistence discipline. These tests
   observe the driver/disk traffic produced by single operations. *)
open Su_sim
open Su_fs
open Su_fstypes

let mk scheme =
  let cfg =
    { (Fs.config ~scheme ()) with
      Fs.geom = Geom.small;
      cache_mb = 8;
      keep_trace_records = true }
  in
  Fs.make cfg

let in_world w f =
  let r = ref None in
  ignore
    (Proc.spawn w.Fs.engine ~name:"t" (fun () ->
         r := Some (f ());
         Fs.stop w));
  Engine.run w.Fs.engine;
  Option.get !r

let writes w = Su_driver.Trace.writes (Su_driver.Driver.trace w.Fs.driver)
let records w = Su_driver.Trace.records (Su_driver.Driver.trace w.Fs.driver)

(* --- conventional ------------------------------------------------------ *)

let test_conventional_create_syncs () =
  let w = mk Fs.Conventional in
  in_world w (fun () ->
      let st = w.Fs.st in
      let before = writes w in
      Fsops.create st "/f";
      (* inode block and directory block are written synchronously
         before the call returns *)
      Alcotest.(check bool) "two sync writes" true (writes w - before >= 2));
  let sync_writes =
    List.filter
      (fun (r : Su_driver.Trace.record) ->
        r.Su_driver.Trace.r_sync && r.Su_driver.Trace.r_kind = Su_driver.Request.Write)
      (records w)
  in
  Alcotest.(check bool) "marked synchronous" true (List.length sync_writes >= 2)

let test_conventional_remove_order () =
  (* on the disk, the directory block (entry gone) must be written
     before the inode block (cleared dinode) *)
  let w = mk Fs.Conventional in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.append st "/f" ~bytes:1024;
      Fsops.sync st;
      Su_driver.Driver.reset_trace w.Fs.driver;
      Fsops.unlink st "/f");
  let g = Geom.small in
  let root_dir_block = fst (Geom.cg_data_area g 0) in
  let inode_block = Geom.inode_block_frag g 3 in
  let order =
    List.filter_map
      (fun (r : Su_driver.Trace.record) ->
        if r.Su_driver.Trace.r_kind = Su_driver.Request.Write then
          Some r.Su_driver.Trace.r_lbn
        else None)
      (records w)
  in
  let rec index i = function
    | [] -> -1
    | x :: rest -> if x = i then 0 else 1 + index i rest
  in
  let di = index root_dir_block order and ii = index inode_block order in
  Alcotest.(check bool) "dir write happened" true (di >= 0);
  Alcotest.(check bool) "inode write happened" true (ii >= 0);
  Alcotest.(check bool) "dir before inode" true (di < ii)

(* --- scheduler flag ----------------------------------------------------- *)

let test_flag_create_async_flagged () =
  let w = mk Fs.Scheduler_flag in
  let elapsed =
    in_world w (fun () ->
        let st = w.Fs.st in
        let t0 = Engine.now w.Fs.engine in
        Fsops.create st "/f";
        Engine.now w.Fs.engine -. t0)
  in
  (* the create does not wait for the disk: only CPU time passes *)
  Alcotest.(check bool) "no disk wait" true (elapsed < 0.05);
  let flagged =
    (* flags are not in the trace; infer from the request count: the
       inode write was issued immediately *)
    writes w
  in
  Alcotest.(check bool) "writes issued" true (flagged >= 1)

let test_flag_ordering_on_disk () =
  (* crash right after the create traffic: if the directory entry made
     it to disk, the inode must have too (Part semantics) *)
  let w = mk Fs.Scheduler_flag in
  ignore
    (Proc.spawn w.Fs.engine ~name:"t" (fun () ->
         let st = w.Fs.st in
         for i = 1 to 30 do
           Fsops.create st (Printf.sprintf "/f%d" i)
         done));
  (* crash at several points; at each, fsck must hold *)
  List.iter
    (fun t ->
      Engine.run ~until:t w.Fs.engine;
      let image = Su_disk.Disk.image_snapshot w.Fs.disk in
      let r = Fsck.check ~geom:Geom.small ~image ~check_exposure:false in
      Alcotest.(check bool)
        (Printf.sprintf "consistent at %.2f" t)
        true (Fsck.ok r))
    [ 0.01; 0.05; 0.1; 0.3; 1.0; 2.0 ]

(* --- scheduler chains ---------------------------------------------------- *)

let test_chains_deps_attached () =
  let w = mk (Fs.Scheduler_chains { barrier_dealloc = false }) in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      (* the directory buffer carries a dependency on the inode write *)
      let g = Geom.small in
      let root_dir_block = fst (Geom.cg_data_area g 0) in
      match Su_cache.Bcache.lookup w.Fs.cache root_dir_block with
      | Some b ->
        Alcotest.(check bool) "dir has wdeps" true (b.Su_cache.Buf.wdeps <> [])
      | None -> Alcotest.fail "root dir block not cached")

let test_chains_reuse_deps () =
  let w = mk (Fs.Scheduler_chains { barrier_dealloc = false }) in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/a";
      Fsops.append st "/a" ~bytes:8192;
      Fsops.unlink st "/a";
      (* the freed fragments are immediately reusable, but the scheme
         remembers which request must complete first *)
      let scheme = st.State.scheme in
      let deps = ref [] in
      (* probe: ask for reuse deps over the whole data area *)
      let g = Geom.small in
      let dfirst, dcount = Geom.cg_data_area g 0 in
      deps := scheme.Su_core.Scheme_intf.reuse_frag_deps [ (dfirst, min dcount 512) ];
      Alcotest.(check bool) "pending reuse dependency" true (!deps <> []))

(* --- soft updates -------------------------------------------------------- *)

let soft_world () =
  let w = mk Fs.Soft_updates in
  (w, Option.get w.Fs.st.State.softdep_stats)

let test_soft_create_no_sync_wait () =
  let w, _ = soft_world () in
  let elapsed =
    in_world w (fun () ->
        let st = w.Fs.st in
        let t0 = Engine.now w.Fs.engine in
        for i = 1 to 10 do
          Fsops.create st (Printf.sprintf "/f%d" i)
        done;
        Engine.now w.Fs.engine -. t0)
  in
  Alcotest.(check bool) "creates at memory speed" true (elapsed < 0.2);
  (* nothing needs to be written synchronously *)
  Alcotest.(check int) "no writes yet" 0 (writes w)

let test_soft_rollback_on_early_flush () =
  (* force the directory block out before the inode: the written copy
     must have the new entry rolled back *)
  let w, stats = soft_world () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      let g = Geom.small in
      let root_dir_block = fst (Geom.cg_data_area g 0) in
      let b = Option.get (Su_cache.Bcache.lookup w.Fs.cache root_dir_block) in
      ignore (Su_cache.Bcache.bawrite w.Fs.cache b);
      Su_cache.Bcache.wait_write w.Fs.cache b;
      (* on disk: entry absent; in memory: entry present *)
      (match Su_disk.Disk.peek w.Fs.disk root_dir_block with
       | Types.Meta (Types.Dir entries) ->
         Alcotest.(check bool) "entry rolled back on disk" true
           (Types.dir_find entries "f" = None)
       | _ -> Alcotest.fail "dir block unreadable");
      Alcotest.(check bool) "buffer still dirty" true b.Su_cache.Buf.dirty;
      Alcotest.(check bool) "rollback counted" true
        (stats.Su_core.Softdep.rollbacks >= 1);
      (* now write the inode block, then the directory again: the
         entry must appear *)
      Fsops.sync st;
      (match Su_disk.Disk.peek w.Fs.disk root_dir_block with
       | Types.Meta (Types.Dir entries) ->
         Alcotest.(check bool) "entry on disk after sync" true
           (Types.dir_find entries "f" <> None)
       | _ -> Alcotest.fail "dir block unreadable"))

let test_soft_deferred_free () =
  (* freed blocks must not be reusable until the reset pointers are on
     disk: allocation totals only recover after a sync *)
  let w, _ = soft_world () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.append st "/f" ~bytes:16384;
      Fsops.sync st;
      let free_before = Alloc.free_frags_total st in
      Fsops.unlink st "/f";
      let free_mid = Alloc.free_frags_total st in
      Alcotest.(check bool) "not freed immediately" true (free_mid <= free_before);
      Fsops.sync st;
      let free_after = Alloc.free_frags_total st in
      Alcotest.(check bool) "freed after dependencies settle" true
        (free_after >= free_before + 16))

let test_soft_indirect_safe_copy () =
  (* a file spanning the indirect block: flushing the indirect block
     early writes the safe copy (no pointers to uninitialised data) *)
  let w, _ = soft_world () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/big";
      Fsops.append st "/big" ~bytes:(14 * 8192);
      let inum = Fsops.resolve st "/big" in
      let ip = Inode.iget st inum in
      let ib = ip.State.din.Types.ib in
      Alcotest.(check bool) "indirect allocated" true (ib <> 0);
      let b = Option.get (Su_cache.Bcache.lookup w.Fs.cache ib) in
      Alcotest.(check bool) "pinned while pending" true b.Su_cache.Buf.sticky;
      ignore (Su_cache.Bcache.bawrite w.Fs.cache b);
      Su_cache.Bcache.wait_write w.Fs.cache b;
      (match Su_disk.Disk.peek w.Fs.disk ib with
       | Types.Meta (Types.Indirect arr) ->
         (* data blocks are not yet on disk: safe copy has no pointers *)
         Alcotest.(check int) "safe copy written" 0 arr.(0)
       | _ -> Alcotest.fail "indirect unreadable");
      Fsops.sync st;
      (match Su_disk.Disk.peek w.Fs.disk ib with
       | Types.Meta (Types.Indirect arr) ->
         Alcotest.(check bool) "pointers after sync" true (arr.(0) <> 0)
       | _ -> Alcotest.fail "indirect unreadable");
      Alcotest.(check bool) "unpinned when settled" true
        (not b.Su_cache.Buf.sticky);
      Inode.iput st ip)

let test_soft_deferred_decrement () =
  (* unlink defers the link-count decrement until the directory write
     completes (via the syncer workitem queue) *)
  let w, _ = soft_world () in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.link st ~src:"/f" ~dst:"/g";
      Fsops.sync st;
      Alcotest.(check int) "nlink 2" 2 (Fsops.stat st "/f").Fsops.st_nlink;
      Fsops.unlink st "/g";
      (* before the directory block reaches the disk, the in-core link
         count is untouched *)
      Alcotest.(check int) "decrement deferred" 2
        (Fsops.stat st "/f").Fsops.st_nlink;
      Fsops.sync st;
      Alcotest.(check int) "decrement applied" 1
        (Fsops.stat st "/f").Fsops.st_nlink)

let test_soft_workitems_flow () =
  let w, stats = soft_world () in
  in_world w (fun () ->
      let st = w.Fs.st in
      for i = 1 to 5 do
        let p = Printf.sprintf "/f%d" i in
        Fsops.create st p;
        Fsops.append st p ~bytes:4096
      done;
      for i = 1 to 5 do
        Fsops.unlink st (Printf.sprintf "/f%d" i)
      done;
      Fsops.sync st;
      Alcotest.(check bool) "workitems processed" true
        (stats.Su_core.Softdep.workitems > 0);
      Alcotest.(check bool) "records created" true
        (stats.Su_core.Softdep.created > 10))

(* --- no order ------------------------------------------------------------ *)

let test_no_order_never_blocks () =
  let w = mk Fs.No_order in
  let elapsed =
    in_world w (fun () ->
        let st = w.Fs.st in
        let t0 = Engine.now w.Fs.engine in
        for i = 1 to 20 do
          let p = Printf.sprintf "/f%d" i in
          Fsops.create st p;
          Fsops.append st p ~bytes:2048;
          Fsops.unlink st p
        done;
        Engine.now w.Fs.engine -. t0)
  in
  Alcotest.(check int) "no writes at all" 0 (writes w);
  Alcotest.(check bool) "memory speed" true (elapsed < 0.5)

(* --- write payloads -------------------------------------------------------- *)

(* The paper's five schemes plus journaling, each with and without the
   block-copy enhancement (-CB). *)
let payload_worlds =
  List.concat_map
    (fun scheme -> [ (scheme, false); (scheme, true) ])
    (Fs.all_schemes @ [ Fs.Journaled { group_commit = false } ])

(* A write payload is the disk's private snapshot of the buffer at
   issue: whatever the cache does to the buffer afterwards (in place,
   under -CB, while the write is still in flight) must never reach it.
   Record every payload with its per-cell digests, run a small copy and
   remove, then digest the payloads again. *)
let test_payloads_never_change () =
  List.iter
    (fun (scheme, cb) ->
      let name =
        Printf.sprintf "%s%s" (Fs.scheme_kind_name scheme)
          (if cb then "-cb" else "")
      in
      let w =
        Fs.make
          { (Fs.config ~scheme ()) with
            Fs.geom = Geom.small;
            cache_mb = 1;
            cb }
      in
      let hooks = Su_cache.Bcache.hooks w.Fs.cache in
      let inner = hooks.Su_cache.Bcache.pre_write in
      let issued = ref [] in
      hooks.Su_cache.Bcache.pre_write <-
        (fun b ->
          let ((cells, _) as r) = inner b in
          issued := (cells, Array.map Types.cell_digest cells) :: !issued;
          r);
      in_world w (fun () ->
          let st = w.Fs.st in
          let tree =
            Su_workload.Tree.spec ~seed:3 ~files:40 ~total_bytes:(400 * 1024) ()
          in
          Fsops.mkdir st "/src";
          Fsops.mkdir st "/dst";
          Su_workload.Tree.populate st ~base:"/src" tree;
          Fsops.sync st;
          Su_workload.Tree.copy st ~src:"/src" ~dst:"/dst";
          Su_workload.Tree.remove st "/src";
          Fsops.sync st);
      let inode_payloads =
        List.length
          (List.filter
             (fun (cells, _) ->
               match cells.(0) with
               | Types.Meta (Types.Inodes _) -> true
               | _ -> false)
             !issued)
      in
      Alcotest.(check bool) (name ^ ": inode blocks written") true
        (inode_payloads > 0);
      let changed =
        List.length
          (List.filter
             (fun (cells, digests) -> Array.map Types.cell_digest cells <> digests)
             !issued)
      in
      Alcotest.(check int) (name ^ ": payloads changed after issue") 0 changed)
    payload_worlds

(* -CB: an inode-block write is in flight when a slot of the block is
   updated. The disk gets the dinode as it was at issue; the buffer
   keeps the new one. *)
let test_cb_inode_update_in_flight () =
  let w =
    Fs.make
      { (Fs.config ~scheme:Fs.Conventional ()) with
        Fs.geom = Geom.small;
        cache_mb = 8;
        cb = true }
  in
  in_world w (fun () ->
      let st = w.Fs.st in
      Fsops.create st "/f";
      Fsops.sync st;
      let inum = Fsops.resolve st "/f" in
      let slot = Geom.inode_index_in_block Geom.small inum in
      let blk = Geom.inode_block_frag Geom.small inum in
      let ip = Inode.iget st inum in
      let nlink = ip.State.din.Types.nlink in
      Inode.with_ibuf st inum (fun ibuf ->
          ignore (Su_cache.Bcache.bawrite w.Fs.cache ibuf);
          ip.State.din.Types.nlink <- nlink + 5;
          Inode.update st ip;
          Alcotest.(check bool) "updated while in flight" true
            (ibuf.Su_cache.Buf.io_count > 0);
          Su_cache.Bcache.wait_write w.Fs.cache ibuf;
          (match Su_disk.Disk.peek w.Fs.disk blk with
           | Types.Meta (Types.Inodes ds) ->
             Alcotest.(check int) "disk holds the issue-time dinode" nlink
               ds.(slot).Types.nlink
           | _ -> Alcotest.fail "inode block missing");
          match ibuf.Su_cache.Buf.content with
          | Su_cache.Buf.Cmeta (Types.Inodes ds) ->
            Alcotest.(check int) "buffer holds the new dinode" (nlink + 5)
              ds.(slot).Types.nlink
          | _ -> Alcotest.fail "inode buffer lost");
      ip.State.din.Types.nlink <- nlink;
      Inode.update st ip;
      Inode.iput st ip)

let suite =
  [
    Alcotest.test_case "conventional create syncs" `Quick
      test_conventional_create_syncs;
    Alcotest.test_case "conventional remove order" `Quick
      test_conventional_remove_order;
    Alcotest.test_case "flag create async" `Quick test_flag_create_async_flagged;
    Alcotest.test_case "flag ordering on disk" `Quick test_flag_ordering_on_disk;
    Alcotest.test_case "chains deps attached" `Quick test_chains_deps_attached;
    Alcotest.test_case "chains reuse deps" `Quick test_chains_reuse_deps;
    Alcotest.test_case "soft create no wait" `Quick test_soft_create_no_sync_wait;
    Alcotest.test_case "soft rollback on early flush" `Quick
      test_soft_rollback_on_early_flush;
    Alcotest.test_case "soft deferred free" `Quick test_soft_deferred_free;
    Alcotest.test_case "soft indirect safe copy" `Quick
      test_soft_indirect_safe_copy;
    Alcotest.test_case "soft deferred decrement" `Quick
      test_soft_deferred_decrement;
    Alcotest.test_case "soft workitems flow" `Quick test_soft_workitems_flow;
    Alcotest.test_case "no order never blocks" `Quick test_no_order_never_blocks;
    Alcotest.test_case "payloads never change after issue" `Quick
      test_payloads_never_change;
    Alcotest.test_case "cb inode update in flight" `Quick
      test_cb_inode_update_in_flight;
  ]
