open Su_fstypes

type scheme_kind =
  | Conventional
  | Scheduler_flag
  | Scheduler_chains of { barrier_dealloc : bool }
  | Soft_updates
  | No_order
  | Journaled of { group_commit : bool }

let scheme_kind_name = function
  | Conventional -> "Conventional"
  | Scheduler_flag -> "Scheduler Flag"
  | Scheduler_chains { barrier_dealloc = false } -> "Scheduler Chains"
  | Scheduler_chains { barrier_dealloc = true } -> "Scheduler Chains (barrier)"
  | Soft_updates -> "Soft Updates"
  | No_order -> "No Order"
  | Journaled { group_commit = false } -> "Journaled"
  | Journaled { group_commit = true } -> "Journaled (group commit)"

let all_schemes =
  [
    Conventional;
    Scheduler_flag;
    Scheduler_chains { barrier_dealloc = false };
    Soft_updates;
    No_order;
  ]

type config = {
  scheme : scheme_kind;
  alloc_init : bool;
  flag_sem : Su_driver.Ordering.flag_semantics;
  nr : bool;
  cb : bool;
  policy : Su_driver.Driver.policy;
  cache_mb : int;
  syncer_interval : float;
  geom : Geom.t;
  disk_params : Su_disk.Disk_params.t;
  keep_trace_records : bool;
  journal_mb : int;
  nvram_mb : int;
  fault : Su_disk.Fault.config;
  spare_frags : int;
  checksums : bool;
  scrub_interval : float;
  trace_sink : Su_obs.Events.t option;
  dir_index : bool;
}

exception Mount_failure of string

let () =
  Printexc.register_printer (function
    | Mount_failure msg -> Some ("Fs.Mount_failure: " ^ msg)
    | _ -> None)

let config ?(scheme = Soft_updates) () =
  let cb =
    match scheme with
    | Scheduler_flag | Scheduler_chains _ | Soft_updates | Journaled _ -> true
    | Conventional | No_order -> false
  in
  {
    scheme;
    alloc_init = (match scheme with Soft_updates -> true | _ -> false);
    flag_sem = Su_driver.Ordering.Part;
    nr = true;
    cb;
    policy = Su_driver.Driver.Clook;
    cache_mb = 32;
    syncer_interval = 1.0;
    geom = Geom.default;
    disk_params = Su_disk.Disk_params.hp_c2447;
    keep_trace_records = false;
    journal_mb = 8;
    nvram_mb = 0;
    fault = Su_disk.Fault.none;
    spare_frags = 0;
    checksums = false;
    scrub_interval = 0.0;
    trace_sink = None;
    dir_index = false;
  }

let journal_region cfg =
  match cfg.scheme with
  | Journaled _ -> Some (cfg.geom.Geom.nfrags, cfg.journal_mb * 1024)
  | Conventional | Scheduler_flag | Scheduler_chains _ | Soft_updates | No_order
    -> None

let recover_image ?observer cfg image =
  match journal_region cfg with
  | Some (log_start, log_frags) ->
    (* Replayed cells are acknowledged writes: a captured checksum
       region must follow them, or every fragment recovery touches
       would read back as corrupt after remount. Like every recovery
       write it replaces its slot: the digests go into a copy, installed
       once the maps are rebuilt. *)
    let region =
      Option.map
        (fun (slot, ca) -> (slot, Array.copy ca))
        (Types.image_csum cfg.geom image)
    in
    let replay_observer =
      match region with
      | None -> observer
      | Some (_, fresh) ->
        Some
          (fun ~lbn ~pre ~post ->
            if lbn < Array.length fresh then
              fresh.(lbn) <- Types.cell_digest post;
            Option.iter (fun f -> f ~lbn ~pre ~post) observer)
    in
    Su_core.Journaled.recover ?observer:replay_observer ~geom:cfg.geom
      ~log_start ~log_frags image;
    Fsck.rebuild_maps ?observer:replay_observer cfg.geom image;
    Option.iter
      (fun (slot, fresh) -> Imglog.write ?observer image slot (Types.Csum fresh))
      region
  | None -> ()

(* Metadata journaling does not cover file data, so a journaled crash
   state is never judged on exposure; the other schemes promise it
   exactly when they initialise allocations. *)
let check_exposure cfg =
  match cfg.scheme with
  | Journaled _ -> false
  | Conventional | Scheduler_flag | Scheduler_chains _ | Soft_updates | No_order
    ->
    cfg.alloc_init

let driver_mode cfg =
  match cfg.scheme with
  | Conventional | Soft_updates | No_order | Journaled _ ->
    Su_driver.Ordering.Unordered
  | Scheduler_flag -> Su_driver.Ordering.Flag { sem = cfg.flag_sem; nr = cfg.nr }
  | Scheduler_chains _ -> Su_driver.Ordering.Chains { nr = cfg.nr }

type world = {
  cfg : config;
  engine : Su_sim.Engine.t;
  cpu : Su_sim.Cpu.t;
  disk : Su_disk.Disk.t;
  driver : Su_driver.Driver.t;
  cache : Su_cache.Bcache.t;
  syncer : Su_cache.Syncer.t;
  scrub : Scrub.t option;
  integrity : Integrity.t option;
  st : State.t;
  extra_stop : unit -> unit;
}

(* Format the disk: superblock copies, group headers with bitmaps, the
   root directory. Written straight into the image (no simulated
   time). Inode blocks are left unwritten — garbage reads back as
   all-free dinodes — except the root's. *)
let mkfs disk (g : Geom.t) =
  let fpb = g.Geom.frags_per_block in
  let install_meta frag m =
    Su_disk.Disk.install disk frag (Types.Meta m);
    for i = 1 to fpb - 1 do
      Su_disk.Disk.install disk (frag + i) Types.Pad
    done
  in
  let sb =
    { Types.sb_magic = Types.magic; sb_nfrags = g.Geom.nfrags;
      sb_ncg = Geom.cg_count g; sb_clean = true }
  in
  let root_block = fst (Geom.cg_data_area g 0) in
  for c = 0 to Geom.cg_count g - 1 do
    install_meta (Geom.cg_sb_frag g c) (Types.Superblock sb);
    let cg = Types.fresh_cg g in
    let data_first, data_count = Geom.cg_data_area g c in
    let base = Geom.cg_base g c in
    (* everything before the data area is permanently allocated *)
    for off = 0 to data_first - base - 1 do
      Bytes.set cg.Types.frag_map off '\001'
    done;
    cg.Types.nffree <- data_count;
    cg.Types.nifree <- g.Geom.inodes_per_cg;
    if c = 0 then begin
      (* the root directory: inode 2 and its first block *)
      Bytes.set cg.Types.inode_map 0 '\001';
      cg.Types.nifree <- cg.Types.nifree - 1;
      for off = root_block - base to root_block - base + fpb - 1 do
        Bytes.set cg.Types.frag_map off '\001'
      done;
      cg.Types.nffree <- cg.Types.nffree - fpb
    end;
    install_meta (Geom.cg_header_frag g c) (Types.Cgroup cg)
  done;
  (* root inode *)
  let dinodes =
    match Types.fresh_inode_block g with
    | Types.Inodes d -> d
    | Types.Superblock _ | Types.Cgroup _ | Types.Dir _ | Types.Indirect _ ->
      assert false
  in
  (* replace the slot rather than mutating it: free slots of a fresh
     block share one canonical dinode *)
  let root = Types.free_dinode g in
  root.Types.ftype <- Types.F_dir;
  root.Types.nlink <- 2;
  root.Types.size <- Geom.block_bytes g;
  root.Types.gen <- 1;
  root.Types.db.(0) <- root_block;
  dinodes.(0) <- root;
  install_meta (Geom.inode_block_frag g Geom.root_inum) (Types.Inodes dinodes);
  (* root directory block: "." and ".." both point at the root *)
  let entries = Types.fresh_dir_block g in
  entries.(0) <- Some { Types.name = "."; inum = Geom.root_inum };
  entries.(1) <- Some { Types.name = ".."; inum = Geom.root_inum };
  install_meta root_block (Types.Dir entries)

let build ?image cfg =
  let engine = Su_sim.Engine.create () in
  let cpu = Su_sim.Cpu.create engine in
  let total_frags =
    cfg.geom.Geom.nfrags
    + (match journal_region cfg with Some (_, n) -> n | None -> 0)
  in
  let disk =
    Su_disk.Disk.create ~engine ~params:cfg.disk_params ~nfrags:total_frags
      ?nvram_frags:
        (match cfg.nvram_mb with 0 -> None | mb -> Some (mb * 1024))
      ~fault:cfg.fault ~spare_frags:cfg.spare_frags ~checksums:cfg.checksums ()
  in
  let health =
    Health.create ~engine ?obs:cfg.trace_sink ~max_lost:8 ()
  in
  (* a physical snapshot may carry the spare region, remap-table cell
     and checksum region past the media *)
  let max_image =
    total_frags
    + (if cfg.spare_frags > 0 then cfg.spare_frags + 1 else 0)
    + (if cfg.checksums then 1 else 0)
  in
  (match image with
   | None -> mkfs disk cfg.geom
   | Some cells ->
     if Array.length cells > max_image then
       invalid_arg "Fs.mount_image: image larger than the configured disk";
     (* from here on the device marks what it stores, replica restores
        included *)
     Su_disk.Disk.install_image disk cells;
     (* restore the in-core remap table before anything reads through
        the device, then cross-check the superblock replicas *)
     Su_disk.Disk.reload_remap disk;
     (match Replica.check_and_restore ~geom:cfg.geom disk with
      | Ok 0 -> ()
      | Ok n ->
        for _ = 1 to n do Health.note_sb_restored health done
      | Error msg -> raise (Mount_failure msg)));
  let driver =
    Su_driver.Driver.create ~engine ~disk
      {
        Su_driver.Driver.default_config with
        mode = driver_mode cfg;
        policy = cfg.policy;
        keep_records = cfg.keep_trace_records;
        sink = cfg.trace_sink;
      }
  in
  let copy_cost_holder = ref (fun (_ : int) -> ()) in
  let cache =
    Su_cache.Bcache.create ~engine ~driver
      {
        Su_cache.Bcache.capacity_frags = cfg.cache_mb * 1024;
        cb = cfg.cb;
        copy_cost = (fun n -> !copy_cost_holder n);
        sink = cfg.trace_sink;
      }
  in
  let scheme, softdep_stats, journal_stats, extra_stop =
    let nop () = () in
    match cfg.scheme with
    | Conventional -> (Su_core.Conventional.make cache, None, None, nop)
    | Scheduler_flag -> (Su_core.Sched_flag.make cache, None, None, nop)
    | Scheduler_chains { barrier_dealloc } ->
      (Su_core.Sched_chains.make ~barrier_dealloc cache, None, None, nop)
    | Soft_updates ->
      let s, stats = Su_core.Softdep.make ~cache ~geom:cfg.geom in
      (s, Some stats, None, nop)
    | No_order -> (Su_core.No_order.make cache, None, None, nop)
    | Journaled { group_commit } ->
      let log_start, log_frags =
        match journal_region cfg with
        | Some r -> r
        | None -> assert false
      in
      let mode =
        if group_commit then Su_core.Journaled.Group_commit
        else Su_core.Journaled.Sync_commit
      in
      let s, stats, stop =
        Su_core.Journaled.make ~cache ~geom:cfg.geom ~log_start ~log_frags
          ~mode
      in
      (s, None, Some stats, stop)
  in
  let syncer =
    Su_cache.Syncer.start ~engine ~cache ~interval:cfg.syncer_interval
      ~passes:30 ()
  in
  let st =
    {
      State.geom = cfg.geom;
      engine;
      cpu;
      disk;
      driver;
      cache;
      scheme;
      alloc_init = cfg.alloc_init;
      alloc_mutex = Su_sim.Sync.Mutex.create engine;
      icache = Hashtbl.create 1024;
      rotor = Array.make (Geom.cg_count cfg.geom) 0;
      freemaps = Array.init (Geom.cg_count cfg.geom) (fun _ -> Freemap.create ());
      dirx =
        (if cfg.dir_index then
           Some (Dir_index.create ~cap:cfg.geom.Geom.dir_capacity ())
         else None);
      next_cg = 0;
      gen_counter = 1;
      softdep_stats;
      journal_stats;
      obs = cfg.trace_sink;
      health;
    }
  in
  (* the health monitor hears every definitive device failure the
     cache observes *)
  Su_cache.Bcache.set_io_error_callback cache (fun e ->
      Health.note_io_error health e);
  let integrity =
    if cfg.checksums then begin
      let integ =
        Integrity.create ~engine ~disk ~driver ~cache ~health ~geom:cfg.geom
          ?obs:cfg.trace_sink ()
      in
      (* every fill read is verified (and self-healed) before the
         cells become a buffer *)
      (Su_cache.Bcache.hooks cache).Su_cache.Bcache.verify_fill <-
        Some (fun ~lbn cells -> Integrity.verify_fill integ ~lbn cells);
      Some integ
    end
    else None
  in
  let scrub =
    if cfg.scrub_interval > 0.0 then
      Some
        (Scrub.start ~engine ~disk ~driver ~cache ~health ~geom:cfg.geom
           ?integrity ~interval:cfg.scrub_interval ?obs:cfg.trace_sink ())
    else None
  in
  (* copy costs go to the CPU without blocking: an engine-context
     caller (write issue) cannot wait, so we account the time against
     the CPU server asynchronously *)
  (copy_cost_holder :=
     fun n ->
       if n > 0 then
         ignore
           (Su_sim.Proc.spawn engine ~name:"copy" (fun () ->
                Su_sim.Cpu.consume cpu
                  (float_of_int n *. Costs.copy_per_frag))));
  { cfg; engine; cpu; disk; driver; cache; syncer; scrub; integrity; st;
    extra_stop }

let make cfg = build cfg

(* A journaled image whose log still holds records is recovered first,
   as a real journaling mount does: the new mount's journal restarts at
   sequence zero, so records left behind would outrank its own at the
   next recovery and replay over them. Recovery only replaces slots, so
   a shallow copy keeps the caller's image intact. *)
let mount_image cfg image =
  let holds_log =
    match journal_region cfg with
    | None -> false
    | Some (log_start, log_frags) ->
      let rec scan i =
        i < min (log_start + log_frags) (Array.length image)
        && (match image.(i) with Types.Jlog _ -> true | _ -> scan (i + 1))
      in
      scan log_start
  in
  let image =
    if not holds_log then image
    else begin
      let copy = Array.copy image in
      recover_image cfg copy;
      copy
    end
  in
  build ~image cfg

let stop w =
  Su_cache.Syncer.stop w.syncer;
  (match w.scrub with Some s -> Scrub.stop s | None -> ());
  w.extra_stop ()
