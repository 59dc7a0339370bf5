(* Tests for the buffer cache and syncer daemon. *)
open Su_sim
open Su_fstypes
open Su_cache

type world = {
  e : Engine.t;
  disk : Su_disk.Disk.t;
  drv : Su_driver.Driver.t;
  bc : Bcache.t;
}

let mk ?(cb = false) ?(capacity = 1024) () =
  let e = Engine.create () in
  let disk =
    Su_disk.Disk.create ~engine:e ~params:Su_disk.Disk_params.hp_c2447
      ~nfrags:65536 ()
  in
  let drv = Su_driver.Driver.create ~engine:e ~disk Su_driver.Driver.default_config in
  let bc =
    Bcache.create ~engine:e ~driver:drv
      { Bcache.capacity_frags = capacity; cb; copy_cost = (fun _ -> ());
        sink = None }
  in
  { e; disk; drv; bc }

let data_content n stamp = Buf.Cdata (Array.make n (Some stamp))

let stampw inum = Types.Written { inum; gen = 1; flbn = 0 }

let in_proc w f =
  let result = ref None in
  let _p = Proc.spawn w.e (fun () -> result := Some (f ())) in
  Engine.run w.e;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "process did not finish"

let test_getblk_and_lookup () =
  let w = mk () in
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:100 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 1))
      in
      Alcotest.(check bool) "cached" true
        (match Bcache.lookup w.bc 100 with Some b' -> b' == b | None -> false);
      Alcotest.(check int) "used frags" 4 (Bcache.used_frags w.bc);
      Bcache.release w.bc b)

let test_write_read_roundtrip () =
  let w = mk () in
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:200 ~nfrags:2 ~init:(fun () ->
            data_content 2 (stampw 5))
      in
      Bcache.bwrite_sync w.bc b;
      Bcache.release w.bc b;
      Bcache.invalidate w.bc b;
      (* read back from disk *)
      let b2 = Bcache.bread w.bc ~lbn:200 ~nfrags:2 in
      (match b2.Buf.content with
       | Buf.Cdata d ->
         Alcotest.(check bool) "stamp back" true (d.(0) = Some (stampw 5))
       | Buf.Cmeta _ -> Alcotest.fail "expected data");
      Bcache.release w.bc b2)

let test_bread_caches () =
  let w = mk () in
  in_proc w (fun () ->
      Su_disk.Disk.install w.disk 300 (Types.Frag Types.Zeroed);
      let b1 = Bcache.bread w.bc ~lbn:300 ~nfrags:1 in
      let before = Su_disk.Disk.requests_serviced w.disk in
      let b2 = Bcache.bread w.bc ~lbn:300 ~nfrags:1 in
      Alcotest.(check int) "no second disk read" before
        (Su_disk.Disk.requests_serviced w.disk);
      Alcotest.(check bool) "same buffer" true (b1 == b2);
      Bcache.release w.bc b1;
      Bcache.release w.bc b2)

let test_delayed_write_stays_dirty () =
  let w = mk () in
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:400 ~nfrags:1 ~init:(fun () ->
            data_content 1 (stampw 9))
      in
      Bcache.bdwrite w.bc b;
      Alcotest.(check int) "one dirty" 1 (Bcache.dirty_count w.bc);
      Alcotest.(check bool) "disk untouched" true
        (Su_disk.Disk.peek w.disk 400 = Types.Empty);
      Bcache.release w.bc b)

let test_syncer_flushes () =
  let w = mk () in
  let syn = Syncer.start ~engine:w.e ~cache:w.bc ~interval:1.0 ~passes:2 () in
  ignore
    (Proc.spawn w.e (fun () ->
         let b =
           Bcache.getblk w.bc ~lbn:500 ~nfrags:1 ~init:(fun () ->
               data_content 1 (stampw 3))
         in
         Bcache.bdwrite w.bc b;
         Bcache.release w.bc b));
  Engine.run ~until:10.0 w.e;
  Syncer.stop syn;
  Alcotest.(check bool) "flushed by syncer" true
    (Su_disk.Disk.peek w.disk 500 <> Types.Empty);
  Alcotest.(check int) "clean now" 0 (Bcache.dirty_count w.bc);
  Alcotest.(check bool) "syncer wrote it" true (Syncer.writes_issued syn >= 1)

let test_write_lock_blocks_updater () =
  let w = mk ~cb:false () in
  let modified_at = ref 0.0 and completed_at = ref 0.0 in
  ignore
    (Proc.spawn w.e (fun () ->
         let b =
           Bcache.getblk w.bc ~lbn:600 ~nfrags:1 ~init:(fun () ->
               data_content 1 (stampw 1))
         in
         ignore
           (Bcache.bawrite
              ~notify:(fun _ -> completed_at := Engine.now w.e)
              w.bc b);
         (* now try to modify: must wait for the write to finish *)
         Bcache.prepare_modify w.bc b;
         modified_at := Engine.now w.e;
         Bcache.release w.bc b));
  Engine.run w.e;
  Alcotest.(check bool) "write completed" true (!completed_at > 0.0);
  Alcotest.(check bool) "updater waited" true (!modified_at >= !completed_at)

let test_cb_does_not_block_updater () =
  let w = mk ~cb:true () in
  let modified_at = ref infinity and completed_at = ref 0.0 in
  ignore
    (Proc.spawn w.e (fun () ->
         let b =
           Bcache.getblk w.bc ~lbn:700 ~nfrags:1 ~init:(fun () ->
               data_content 1 (stampw 1))
         in
         ignore
           (Bcache.bawrite
              ~notify:(fun _ -> completed_at := Engine.now w.e)
              w.bc b);
         Bcache.prepare_modify w.bc b;
         modified_at := Engine.now w.e;
         Bcache.release w.bc b));
  Engine.run w.e;
  Alcotest.(check bool) "updater did not wait" true (!modified_at < !completed_at)

let test_snapshot_payload () =
  (* with -CB, mutating the buffer right after issue must not change
     what lands on disk *)
  let w = mk ~cb:true () in
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:800 ~nfrags:1 ~init:(fun () ->
            data_content 1 (stampw 1))
      in
      let iv : unit Proc.Ivar.t = Proc.Ivar.create w.e in
      ignore (Bcache.bawrite ~notify:(fun _ -> Proc.Ivar.fill iv ()) w.bc b);
      (match b.Buf.content with
       | Buf.Cdata d -> d.(0) <- Some (stampw 99)
       | Buf.Cmeta _ -> ());
      Proc.Ivar.read iv;
      (match Su_disk.Disk.peek w.disk 800 with
       | Types.Frag (Types.Written ww) ->
         Alcotest.(check int) "snapshot written" 1 ww.inum
       | _ -> Alcotest.fail "unexpected cell");
      Bcache.release w.bc b)

let test_cgroup_payload_unaliased () =
  (* the volume stores a cylinder-group cell boxed, by reference: the
     payload it was handed must not alias the buffer, or mutating the
     buffer's maps in place after the write would rewrite the disk *)
  let w = mk () in
  let g = Geom.small in
  let lbn = Geom.cg_header_frag g 0 in
  in_proc w (fun () ->
      let cg = Types.fresh_cg g in
      Bytes.set cg.Types.frag_map 3 '\001';
      let b =
        Bcache.getblk w.bc ~lbn ~nfrags:g.Geom.frags_per_block ~init:(fun () ->
            Buf.Cmeta (Types.Cgroup cg))
      in
      Bcache.bwrite_sync w.bc b;
      Bytes.set cg.Types.frag_map 3 '\000';
      Bytes.set cg.Types.frag_map 4 '\001';
      Bcache.release w.bc b);
  match (Su_disk.Disk.image_snapshot w.disk).(lbn) with
  | Types.Meta (Types.Cgroup c) ->
    Alcotest.(check string) "written bytes on disk" "\001\000"
      (Bytes.sub_string c.Types.frag_map 3 2)
  | _ -> Alcotest.fail "cylinder group missing"

let test_eviction_lru () =
  let w = mk ~capacity:8 () in
  in_proc w (fun () ->
      let mk_buf lbn =
        let b =
          Bcache.getblk w.bc ~lbn ~nfrags:4 ~init:(fun () ->
              data_content 4 (stampw lbn))
        in
        Bcache.release w.bc b
      in
      mk_buf 0;
      mk_buf 100;
      (* cache full (8 frags); next alloc must evict lbn 0 (LRU) *)
      mk_buf 200;
      Alcotest.(check bool) "lru evicted" true (Bcache.lookup w.bc 0 = None);
      Alcotest.(check bool) "recent kept" true (Bcache.lookup w.bc 100 <> None))

let test_eviction_writes_dirty () =
  let w = mk ~capacity:8 () in
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:0 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 7))
      in
      Bcache.bdwrite w.bc b;
      Bcache.release w.bc b;
      let b2 =
        Bcache.getblk w.bc ~lbn:100 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 8))
      in
      Bcache.bdwrite w.bc b2;
      Bcache.release w.bc b2;
      (* both dirty: forces eviction of dirty LRU lbn 0, written first *)
      let b3 =
        Bcache.getblk w.bc ~lbn:200 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 9))
      in
      Bcache.release w.bc b3;
      Alcotest.(check bool) "dirty victim reached disk" true
        (Su_disk.Disk.peek w.disk 0 <> Types.Empty))

let test_sticky_not_evicted () =
  let w = mk ~capacity:8 () in
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:0 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 7))
      in
      b.Buf.sticky <- true;
      Bcache.release w.bc b;
      let b2 =
        Bcache.getblk w.bc ~lbn:100 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 8))
      in
      Bcache.release w.bc b2;
      let b3 =
        Bcache.getblk w.bc ~lbn:200 ~nfrags:4 ~init:(fun () ->
            data_content 4 (stampw 9))
      in
      Bcache.release w.bc b3;
      Alcotest.(check bool) "sticky survived" true (Bcache.lookup w.bc 0 <> None);
      Alcotest.(check bool) "non-sticky evicted" true (Bcache.lookup w.bc 100 = None))

let test_lru_lists_track_state () =
  let w = mk ~capacity:1024 () in
  in_proc w (fun () ->
      let get lbn =
        let b =
          Bcache.getblk w.bc ~lbn ~nfrags:1 ~init:(fun () ->
              data_content 1 (stampw lbn))
        in
        Bcache.release w.bc b;
        b
      in
      let b10 = get 10 in
      let b20 = get 20 in
      let b30 = get 30 in
      ignore b30;
      Alcotest.(check (list int)) "clean in use order" [ 10; 20; 30 ]
        (Bcache.lru_keys w.bc ~dirty:false);
      Alcotest.(check (list int)) "dirty empty" []
        (Bcache.lru_keys w.bc ~dirty:true);
      (* re-using a buffer moves it to the most-recent end *)
      ignore (get 10);
      Alcotest.(check (list int)) "touched moved last" [ 20; 30; 10 ]
        (Bcache.lru_keys w.bc ~dirty:false);
      (* dirtying keeps a buffer's recency position *)
      Bcache.bdwrite w.bc b20;
      Bcache.bdwrite w.bc b10;
      Alcotest.(check (list int)) "clean remainder" [ 30 ]
        (Bcache.lru_keys w.bc ~dirty:false);
      Alcotest.(check (list int)) "dirty keeps recency order" [ 20; 10 ]
        (Bcache.lru_keys w.bc ~dirty:true);
      (* so does cleaning it by a flush *)
      Bcache.sync_all w.bc;
      Alcotest.(check (list int)) "dirty empty again" []
        (Bcache.lru_keys w.bc ~dirty:true);
      Alcotest.(check (list int)) "clean merged by recency" [ 20; 30; 10 ]
        (Bcache.lru_keys w.bc ~dirty:false);
      (* invalidation detaches from the list *)
      Bcache.invalidate w.bc b20;
      Alcotest.(check (list int)) "invalidated gone" [ 30; 10 ]
        (Bcache.lru_keys w.bc ~dirty:false))

let test_pick_victim_skips_busy () =
  let w = mk ~capacity:1024 () in
  in_proc w (fun () ->
      let get lbn =
        let b =
          Bcache.getblk w.bc ~lbn ~nfrags:1 ~init:(fun () ->
              data_content 1 (stampw lbn))
        in
        Bcache.release w.bc b;
        b
      in
      let b1 = get 10 in
      let b2 = get 20 in
      let b3 = get 30 in
      let b4 = get 40 in
      let victim () =
        match Bcache.pick_victim w.bc with
        | Some b -> b.Buf.key
        | None -> -1
      in
      Alcotest.(check int) "lru victim first" 10 (victim ());
      b1.Buf.refcount <- 1;
      Alcotest.(check int) "referenced skipped" 20 (victim ());
      b2.Buf.sticky <- true;
      Alcotest.(check int) "sticky skipped" 30 (victim ());
      (* clean buffers are preferred over older dirty ones *)
      Bcache.bdwrite w.bc b3;
      Alcotest.(check int) "clean preferred over older dirty" 40 (victim ());
      Bcache.bdwrite w.bc b4;
      Alcotest.(check int) "lru dirty fallback" 30 (victim ());
      (* an in-flight write pins the buffer *)
      b3.Buf.io_count <- 1;
      Alcotest.(check int) "in-flight skipped" 40 (victim ());
      b4.Buf.io_count <- 1;
      Alcotest.(check int) "nothing evictable" (-1) (victim ());
      b3.Buf.io_count <- 0;
      b4.Buf.io_count <- 0;
      b1.Buf.refcount <- 0;
      Bcache.sync_all w.bc)

let test_sync_all () =
  let w = mk () in
  in_proc w (fun () ->
      for i = 0 to 9 do
        let b =
          Bcache.getblk w.bc ~lbn:(i * 8) ~nfrags:8 ~init:(fun () ->
              data_content 8 (stampw i))
        in
        Bcache.bdwrite w.bc b;
        Bcache.release w.bc b
      done;
      Bcache.sync_all w.bc;
      Alcotest.(check int) "all clean" 0 (Bcache.dirty_count w.bc);
      for i = 0 to 9 do
        Alcotest.(check bool) "on disk" true
          (Su_disk.Disk.peek w.disk (i * 8) <> Types.Empty)
      done)

let test_workitems_run_by_syncer () =
  let w = mk () in
  let syn = Syncer.start ~engine:w.e ~cache:w.bc () in
  let ran = ref false in
  Bcache.add_workitem w.bc (fun () -> ran := true);
  Engine.run ~until:2.5 w.e;
  Syncer.stop syn;
  Alcotest.(check bool) "workitem ran" true !ran;
  Alcotest.(check int) "counted" 1 (Syncer.workitems_run syn)

let test_pre_write_hook_rollback () =
  (* a pre_write hook that redacts the payload and keeps the buffer
     dirty, as soft updates does *)
  let w = mk () in
  let hooks = Bcache.hooks w.bc in
  hooks.Bcache.pre_write <-
    (fun _b -> ([| Types.Frag Types.Zeroed |], true));
  in_proc w (fun () ->
      let b =
        Bcache.getblk w.bc ~lbn:900 ~nfrags:1 ~init:(fun () ->
            data_content 1 (stampw 5))
      in
      Bcache.bdwrite w.bc b;
      ignore (Bcache.bawrite w.bc b);
      Bcache.wait_write w.bc b;
      Alcotest.(check bool) "rolled back on disk" true
        (Su_disk.Disk.peek w.disk 900 = Types.Frag Types.Zeroed);
      Alcotest.(check bool) "still dirty" true b.Buf.dirty;
      Bcache.release w.bc b)

let test_copy_memory_pressure () =
  (* with -CB, in-flight snapshots consume memory: once they exceed
     the budget, further writers must wait for completions *)
  let w = mk ~cb:true ~capacity:16 () in
  let issued = ref 0 in
  ignore
    (Proc.spawn w.e (fun () ->
         (* 4 extents of 8 frags: the third bawrite exceeds the 16-frag
            budget and must wait for a completion *)
         for i = 0 to 3 do
           let b =
             Bcache.getblk w.bc ~lbn:(i * 1000) ~nfrags:8 ~init:(fun () ->
                 data_content 8 (stampw i))
           in
           Bcache.bdwrite w.bc b;
           ignore (Bcache.bawrite w.bc b);
           incr issued;
           Bcache.release w.bc b
         done));
  Engine.run ~until:0.0001 w.e;
  Alcotest.(check int) "third writer throttled" 2 !issued;
  Engine.run w.e;
  Alcotest.(check int) "all eventually issued" 4 !issued

(* --- syncer sweep against the sorted-array walk ------------------------ *)

(* The sweep as it ran before the cache kept an ordered key set: sort
   every cached key, binary-search the cursor, step [slice] entries
   round the array. Kept here as the oracle for [Syncer.sweep]. *)
type oracle = {
  mutable o_cursor : int;
  mutable o_marked : int list;
  mutable o_writes : int;
}

let oracle_sweep bc ~passes o =
  let due = o.o_marked in
  o.o_marked <- [];
  List.iter
    (fun key ->
      match Bcache.lookup bc key with
      | Some b when b.Buf.dirty && b.Buf.io_count = 0 && b.Buf.syncer_marked ->
        b.Buf.syncer_marked <- false;
        o.o_writes <- o.o_writes + 1;
        ignore (Bcache.bawrite bc b)
      | Some b -> b.Buf.syncer_marked <- false
      | None -> ())
    due;
  let keys =
    Array.of_list (List.map (fun (b : Buf.t) -> b.Buf.key) (Bcache.all_bufs bc))
  in
  Array.sort compare keys;
  let n = Array.length keys in
  if n > 0 then begin
    let slice = max 1 ((n + passes - 1) / passes) in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if keys.(mid) >= o.o_cursor then find lo mid else find (mid + 1) hi
    in
    let i = find 0 n in
    let start = if i >= n then 0 else i in
    for off = 0 to slice - 1 do
      let key = keys.((start + off) mod n) in
      match Bcache.lookup bc key with
      | Some b when b.Buf.dirty && b.Buf.io_count = 0 ->
        b.Buf.syncer_marked <- true;
        o.o_marked <- key :: o.o_marked
      | Some _ | None -> ()
    done;
    o.o_cursor <- keys.((start + slice - 1) mod n) + 1
  end

type sweep_op = Fill of int | Drop of int | Dirty of int | Complete | Tick

let sweep_op_to_string = function
  | Fill k -> Printf.sprintf "fill %d" k
  | Drop k -> Printf.sprintf "drop %d" k
  | Dirty k -> Printf.sprintf "dirty %d" k
  | Complete -> "complete"
  | Tick -> "tick"

(* Replay [ops] on two identical caches, one swept by the syncer and one
   by the oracle; per tick, the marked keys (in order), the cursor and
   the writes issued so far, from each side. *)
let sweep_traces ~passes ops =
  let apply w sweep op =
    match op with
    | Fill k ->
      Bcache.release w.bc
        (Bcache.getblk w.bc ~lbn:k ~nfrags:1 ~init:(fun () ->
             data_content 1 (stampw k)))
    | Drop k -> Option.iter (Bcache.invalidate w.bc) (Bcache.lookup w.bc k)
    | Dirty k -> Option.iter (Bcache.bdwrite w.bc) (Bcache.lookup w.bc k)
    | Complete -> Engine.run w.e
    | Tick -> sweep ()
  in
  let ws = mk () and wo = mk () in
  let syn = Syncer.create ~engine:ws.e ~cache:ws.bc ~passes () in
  let o = { o_cursor = 0; o_marked = []; o_writes = 0 } in
  List.fold_left
    (fun (got, want) op ->
      apply ws (fun () -> Syncer.sweep syn) op;
      apply wo (fun () -> oracle_sweep wo.bc ~passes o) op;
      if op <> Tick then (got, want)
      else
        ( (Syncer.marked syn, Syncer.cursor syn, Syncer.writes_issued syn) :: got,
          (o.o_marked, o.o_cursor, o.o_writes) :: want ))
    ([], []) ops

let tick_t = Alcotest.(list (triple (list int) int int))

let test_sweep_edge_cases () =
  let check name ~passes ops =
    let got, want = sweep_traces ~passes ops in
    Alcotest.check tick_t name want got;
    got
  in
  ignore (check "empty cache" ~passes:30 [ Tick; Tick ]);
  ignore
    (check "one key" ~passes:30
       [ Fill 7; Dirty 7; Tick; Tick; Complete; Dirty 7; Tick ]);
  let keys = [ 10; 20; 30; 40; 50 ] in
  let fill = List.concat_map (fun k -> [ Fill k; Dirty k ]) keys in
  (match check "slice = n" ~passes:1 (fill @ [ Tick ]) with
   | [ (marked, cursor, _) ] ->
     Alcotest.(check (list int)) "every key marked" [ 50; 40; 30; 20; 10 ] marked;
     Alcotest.(check int) "cursor past the last" 51 cursor
   | _ -> Alcotest.fail "one tick expected");
  (* two keys per tick: the third tick visits the largest key and wraps
     to the smallest, which the second tick wrote (so it is clean) *)
  (match check "wrap" ~passes:3 (fill @ [ Tick; Tick; Tick ]) with
   | (marked, cursor, _) :: _ ->
     Alcotest.(check (list int)) "wrapped slice" [ 50 ] marked;
     Alcotest.(check int) "cursor after the wrap" 11 cursor
   | [] -> Alcotest.fail "ticks expected");
  (* the first tick leaves the cursor at 31; dropping 40 and 50 puts it
     past the largest key, so the second tick wraps to the new key 5 *)
  (match
     check "cursor past the largest key" ~passes:2
       (fill @ [ Tick; Drop 40; Drop 50; Fill 5; Dirty 5; Tick ])
   with
   | [ (marked, cursor, writes); (_, first_cursor, _) ] ->
     Alcotest.(check int) "first tick's cursor" 31 first_cursor;
     Alcotest.(check (list int)) "wrapped to the smallest" [ 5 ] marked;
     Alcotest.(check int) "cursor after the wrap" 11 cursor;
     Alcotest.(check int) "marked survivors written" 3 writes
   | _ -> Alcotest.fail "two ticks expected");
  ignore
    (check "keys removed between ticks" ~passes:2
       (fill @ [ Tick; Drop 10; Drop 50; Tick; Drop 30; Tick; Complete; Tick ]))

let sweep_op_gen =
  QCheck.Gen.(
    let key = map (fun i -> if i = 23 then 60_000 else i * 40) (int_bound 23) in
    frequency
      [
        (3, map (fun k -> Fill k) key);
        (1, map (fun k -> Drop k) key);
        (2, map (fun k -> Dirty k) key);
        (1, return Complete);
        (2, return Tick);
      ])

let prop_sweep_matches_sorted_walk =
  QCheck.Test.make ~name:"syncer sweep matches the sorted-array walk" ~count:300
    QCheck.(
      pair (oneofl [ 1; 2; 3; 7; 30 ])
        (make
           ~print:(fun ops -> String.concat "; " (List.map sweep_op_to_string ops))
           Gen.(list_size (int_bound 60) sweep_op_gen)))
    (fun (passes, ops) ->
      let got, want = sweep_traces ~passes ops in
      got = want)

(* --- one recency list against the clean/dirty pair --------------------- *)

(* The cache as it was with two recency lists: each kept in ascending
   stamp order, a touch moving a buffer to the tail of its own list, a
   dirtying or cleaning moving it to the other list at its stamp. *)
type two_lists = {
  mutable clean : (Buf.t * int) list;
  mutable dirty : (Buf.t * int) list;
  mutable clock : int;
}

let model_mem l b = List.exists (fun (b', _) -> b' == b) l
let model_drop l b = List.filter (fun (b', _) -> b' != b) l

let model_touch m b =
  m.clock <- m.clock + 1;
  if model_mem m.clean b then m.clean <- model_drop m.clean b @ [ (b, m.clock) ]
  else if model_mem m.dirty b then m.dirty <- model_drop m.dirty b @ [ (b, m.clock) ]

let model_set_dirty m b v =
  let src, dst = if v then (m.clean, m.dirty) else (m.dirty, m.clean) in
  match List.find_opt (fun (b', _) -> b' == b) src with
  | None -> ()
  | Some (_, s) ->
    let before, after = List.partition (fun (_, s') -> s' < s) dst in
    let dst = before @ ((b, s) :: after) in
    if v then (m.clean <- model_drop src b; m.dirty <- dst)
    else (m.dirty <- model_drop src b; m.clean <- dst)

let model_keys l = List.map (fun ((b : Buf.t), _) -> b.Buf.key) l

let model_victim m =
  let ev ((b : Buf.t), _) =
    b.Buf.refcount = 0 && b.Buf.io_count = 0 && not b.Buf.sticky
  in
  match List.find_opt ev m.clean with
  | Some (b, _) -> b.Buf.key
  | None -> (match List.find_opt ev m.dirty with Some (b, _) -> b.Buf.key | None -> -1)

type lru_op =
  | Get of int | Read of int | Hold of int | Let_go | Bdwrite of int
  | Bawrite of int | Settle | Sticky of int | Invalidate of int | Sync

let lru_op_to_string = function
  | Get k -> Printf.sprintf "get %d" k
  | Read k -> Printf.sprintf "read %d" k
  | Hold k -> Printf.sprintf "hold %d" k
  | Let_go -> "release"
  | Bdwrite k -> Printf.sprintf "bdwrite %d" k
  | Bawrite k -> Printf.sprintf "bawrite %d" k
  | Settle -> "settle"
  | Sticky k -> Printf.sprintf "sticky %d" k
  | Invalidate k -> Printf.sprintf "invalidate %d" k
  | Sync -> "sync_all"

(* Replay [ops] in one process against the cache and the model; false
   at the first disagreement on the victim, either key order or a
   sync_all write order. *)
let recency_agrees ops =
  let w = mk () in
  let m = { clean = []; dirty = []; clock = 0 } in
  let written = ref [] in
  let hooks = Bcache.hooks w.bc in
  let default_pre_write = hooks.Bcache.pre_write in
  hooks.Bcache.pre_write <-
    (fun b ->
      written := b.Buf.key :: !written;
      default_pre_write b);
  let held = Queue.create () in
  (* take a reference; a miss enters the clean list with a fresh stamp *)
  let acquire ~read k =
    let cached = Bcache.lookup w.bc k <> None in
    let b =
      if read then Bcache.bread w.bc ~lbn:k ~nfrags:1
      else
        Bcache.getblk w.bc ~lbn:k ~nfrags:1 ~init:(fun () ->
            data_content 1 (stampw k))
    in
    if cached then model_touch m b
    else begin
      m.clock <- m.clock + 1;
      m.clean <- m.clean @ [ (b, m.clock) ]
    end;
    b
  in
  let release b =
    Bcache.release w.bc b;
    model_touch m b
  in
  let get k =
    match Bcache.lookup w.bc k with
    | Some b -> b
    | None ->
      let b = acquire ~read:false k in
      release b;
      b
  in
  let agrees () =
    model_victim m
    = (match Bcache.pick_victim w.bc with Some b -> b.Buf.key | None -> -1)
    && model_keys m.clean = Bcache.lru_keys w.bc ~dirty:false
    && model_keys m.dirty = Bcache.lru_keys w.bc ~dirty:true
  in
  let step op =
    match op with
    | Get k ->
      release (acquire ~read:false k);
      true
    | Read k ->
      release (acquire ~read:true k);
      true
    | Hold k ->
      Queue.push (acquire ~read:false k) held;
      true
    | Let_go ->
      Option.iter release (Queue.take_opt held);
      true
    | Bdwrite k ->
      let b = get k in
      Bcache.bdwrite w.bc b;
      model_set_dirty m b true;
      true
    | Bawrite k ->
      let b = get k in
      ignore (Bcache.bawrite w.bc b);
      model_set_dirty m b false;
      true
    | Settle ->
      Proc.sleep w.e 1.0;
      true
    | Sticky k ->
      let b = get k in
      b.Buf.sticky <- not b.Buf.sticky;
      true
    | Invalidate k ->
      Option.iter
        (fun b ->
          Bcache.invalidate w.bc b;
          m.clean <- model_drop m.clean b;
          m.dirty <- model_drop m.dirty b)
        (Bcache.lookup w.bc k);
      true
    | Sync ->
      (* a round writes the idle dirty buffers in recency order; one
         already in flight is written by the next round *)
      let idle, busy =
        List.partition (fun ((b : Buf.t), _) -> b.Buf.io_count = 0) m.dirty
      in
      let want = model_keys idle @ model_keys busy in
      written := [];
      Bcache.sync_all w.bc;
      List.iter (fun (b, _) -> model_set_dirty m b false) m.dirty;
      List.rev !written = want
  in
  in_proc w (fun () -> List.for_all (fun op -> step op && agrees ()) ops)

let lru_op_gen =
  QCheck.Gen.(
    let key = map (fun i -> i * 8) (int_bound 11) in
    frequency
      [
        (3, map (fun k -> Get k) key);
        (1, map (fun k -> Read k) key);
        (1, map (fun k -> Hold k) key);
        (1, return Let_go);
        (3, map (fun k -> Bdwrite k) key);
        (2, map (fun k -> Bawrite k) key);
        (1, return Settle);
        (1, map (fun k -> Sticky k) key);
        (1, map (fun k -> Invalidate k) key);
        (1, return Sync);
      ])

let prop_recency_matches_two_lists =
  QCheck.Test.make ~name:"one recency list matches the clean/dirty pair"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lru_op_to_string ops))
       QCheck.Gen.(list_size (int_bound 80) lru_op_gen))
    recency_agrees

let suite =
  [
    Alcotest.test_case "getblk and lookup" `Quick test_getblk_and_lookup;
    Alcotest.test_case "copy memory pressure" `Quick test_copy_memory_pressure;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "bread caches" `Quick test_bread_caches;
    Alcotest.test_case "delayed write stays dirty" `Quick
      test_delayed_write_stays_dirty;
    Alcotest.test_case "syncer flushes" `Quick test_syncer_flushes;
    Alcotest.test_case "write lock blocks updater" `Quick
      test_write_lock_blocks_updater;
    Alcotest.test_case "cb does not block" `Quick test_cb_does_not_block_updater;
    Alcotest.test_case "snapshot payload" `Quick test_snapshot_payload;
    Alcotest.test_case "cgroup payload unaliased" `Quick
      test_cgroup_payload_unaliased;
    Alcotest.test_case "eviction lru" `Quick test_eviction_lru;
    Alcotest.test_case "eviction writes dirty" `Quick test_eviction_writes_dirty;
    Alcotest.test_case "sticky not evicted" `Quick test_sticky_not_evicted;
    Alcotest.test_case "lru lists track state" `Quick test_lru_lists_track_state;
    Alcotest.test_case "pick_victim skips busy" `Quick test_pick_victim_skips_busy;
    Alcotest.test_case "sync_all" `Quick test_sync_all;
    Alcotest.test_case "workitems run" `Quick test_workitems_run_by_syncer;
    Alcotest.test_case "pre_write rollback" `Quick test_pre_write_hook_rollback;
    Alcotest.test_case "syncer sweep edge cases" `Quick test_sweep_edge_cases;
    QCheck_alcotest.to_alcotest prop_sweep_matches_sorted_walk;
    QCheck_alcotest.to_alcotest prop_recency_matches_two_lists;
  ]
