(* Benchmark harness: regenerates every figure and table of the
   paper's evaluation (section 5 plus the section 3 comparisons), and
   runs the host-performance sections of the perf ledger.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- --quick      # reduced workloads
     dune exec bench/main.exe -- fig5 tab2    # selected experiments
     dune exec bench/main.exe -- --jobs 4     # figure runs over 4 domains
     dune exec bench/main.exe -- --hotpaths --loadgen [--json BENCH.json]
                                              # perf sections, one document
     dune exec bench/main.exe -- --list       # available ids *)

module Json = Su_obs.Json

let available = List.map fst (Su_experiments.Experiments.all `Quick)

let usage () =
  print_string
    "usage: main.exe [options] [experiment ids]\n\
     \n\
     With no ids, every experiment runs in paper order.\n\
     \n\
     options:\n\
     \  --quick         reduced workload sizes (smoke scale)\n\
     \  --jobs N        worker domains for figure runs and the --crashsweep\n\
     \                  parallel sweep (default 1 = serial; 0 = one per\n\
     \                  core); results and output are byte-identical at\n\
     \                  any value\n\
     \  --list          print available experiment ids\n\
     \n\
     perf sections (any combination, run in this order, never mixed\n\
     with experiment ids; each prints one row per bench and one line\n\
     per gate, and the run exits 1 if any gate fails):\n\
     \  --hotpaths      driver-dispatch / cache-eviction / write-payload /\n\
     \                  syncer-sweep / cpu-charge hot paths; gates: every\n\
     \                  driver-burst-* row >= 20000 events/s (a generous\n\
     \                  anti-regression floor, not a target), write-payload\n\
     \                  <= 300 words/write, syncer-sweep ns/key at 8x the\n\
     \                  cache within 1.5x, <= 300 words/sweep, cpu-charge\n\
     \                  <= 12 words/charge, cpu-charge-contended <= 48\n\
     \  --crashsweep    per built-in workload, <workload>-materialize\n\
     \                  (every crash state off one delta-log cursor) and\n\
     \                  <workload>-sweep-jobs1/-sweep-jobsN (the full\n\
     \                  sweep, serial and across the pool); then\n\
     \                  journal-replay (gate: <= 128 words/record), and\n\
     \                  recover-state and recover-state-64mb, one\n\
     \                  workload's crash states recovered on 1 GB and\n\
     \                  64 MB volumes (gates: <= 160000 words/state at\n\
     \                  1 GB, 1 GB time within 4x of 64 MB, every state\n\
     \                  clean)\n\
     \  --loadgen       load-engine steady state (gates: zero majors,\n\
     \                  words/op at a doubled window within 1.15x) and\n\
     \                  directory-scale lookups (gate: 10k entries within\n\
     \                  2x of 100)\n\
     \  --corrupt       checksum overhead on the driver burst and loadgen\n\
     \                  steady loops (gates: checksummed steady loop zero\n\
     \                  majors, checksummed burst within 2x)\n\
     \  --volume        compact volume image: mkfs at 1M-inode scale\n\
     \                  (gate: <= 64 words/inode), resident bytes/inode\n\
     \                  (gate: <= 192), the load engine on the big volume\n\
     \n\
     \  --json PATH     write results JSON: experiment tables (the\n\
     \                  document EXPERIMENTS.md specifies), or the perf\n\
     \                  sections' rows, derived values and gates\n\
     \  --assert-shapes PATH\n\
     \                  parse an experiments JSON written by --json and\n\
     \                  check the calibrated shape claims (exit 1 on any\n\
     \                  failure); runs no experiments itself\n\
     \  --help          this text\n"

(* the ledger and experiment documents report on stdout *)
let write_json = Json.write_pretty ~log:stdout

(* --- the perf ledger: one row schema, one measure loop, one gate list -- *)

(* One bench's result: [n] units of work (events, ops, states, inodes)
   in [wall_s] host seconds, with the minor-heap words per unit and the
   major collections of the same run. [layer] names the stack layer the
   bench isolates, or [e2e] for a whole-system run. *)
type row = {
  name : string;
  layer : string;
  unit : string;
  n : int;
  wall_s : float;
  per_sec : float;
  words_per_unit : float;
  majors : int;
}

(* A checked claim; the gate name ends with the comparison [ok] made
   between [value] and [bound]. *)
type gate = { gate : string; value : float; bound : float; ok : bool }

let at_least gate value bound = { gate = gate ^ " >="; value; bound; ok = value >= bound }
let at_most gate value bound = { gate = gate ^ " <="; value; bound; ok = value <= bound }
let above gate value bound = { gate = gate ^ " >"; value; bound; ok = value > bound }

(* One measured run. *)
type sample = { units : int; wall : float; words : float; major_gcs : int }

(* Time [run] (which returns its unit count) bracketed by
   [Gc.quick_stat], so allocation claims are measured numbers. Its word
   count covers every domain but only advances at a minor collection,
   so the minor heap is emptied at both ends (after the clock stops):
   otherwise a run smaller than the minor heap reads as
   allocation-free. *)
let bracket run =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let units = run () in
  let wall = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  {
    units;
    wall;
    words = s1.Gc.minor_words -. s0.Gc.minor_words;
    major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
  }

(* A staged bench builds its world (engine, disk image, driver, cache,
   workload) when called and returns the run thunk, so the timed region
   covers only the hot path, not the one-off setup. *)
let staged stage () = bracket (stage ())

let row_of ~layer ~unit name s =
  {
    name;
    layer;
    unit;
    n = s.units;
    wall_s = s.wall;
    per_sec = (if s.wall > 0.0 then float_of_int s.units /. s.wall else 0.0);
    words_per_unit = s.words /. float_of_int (max 1 s.units);
    majors = s.major_gcs;
  }

let fastest samples =
  List.fold_left (fun b s -> if s.wall < b.wall then s else b) (List.hd samples) samples

(* Run [measure] [reps] times and keep the fastest rep: wall times of
   milliseconds to seconds are at the mercy of scheduler noise, and the
   minimum is the stable estimate of what the code itself costs.
   Allocation counts are deterministic per rep, so they come from the
   same rep. *)
let best_of ~reps ~layer ~unit name measure =
  let best = ref (measure ()) in
  for _ = 2 to reps do
    let s = measure () in
    if s.wall < !best.wall then best := s
  done;
  row_of ~layer ~unit name !best

let find rows name = List.find (fun r -> r.name = name) rows

(* --- driver and cache hot paths ----------------------------------------- *)

(* Stress the structures the paper's burst scenarios lean on: the
   driver dispatch queue under thousands of simultaneously pending
   requests (No Order / Soft Updates delayed-write bursts), the
   buffer-cache eviction path and the syncer's per-tick sweep. *)

let hotpath_scale quick = if quick then 2_000 else 10_000

let mk_disk_driver ?(checksums = false) ~mode ~policy () =
  let e = Su_sim.Engine.create () in
  let d =
    Su_disk.Disk.create ~engine:e ~params:Su_disk.Disk_params.hp_c2447
      ~nfrags:(1 lsl 20) ~checksums ()
  in
  let drv =
    Su_driver.Driver.create ~engine:e ~disk:d
      { Su_driver.Driver.default_config with mode; policy }
  in
  (e, drv)

let wpayload n = Array.make n Su_fstypes.Types.Empty

(* [n] writes queued up-front at pseudo-random positions: every disk
   completion must pick the next request from an [n]-deep queue. The
   8 MB disk image is staged outside the timed region; it would
   otherwise be ~10% of the wall at current throughput. *)
let bench_driver_burst ~mode ?(policy = Su_driver.Driver.Clook)
    ?(flag_every = 0) ?(read_every = 0) ?(chain = false) ?(checksums = false)
    n () =
  let e, drv = mk_disk_driver ~checksums ~mode ~policy () in
  (* Workload generation is prepare work too: the RNG's int64 mixing
     is measurably more expensive than a dispatch-index lookup, and it
     is not the system under test. *)
  let rng = Su_util.Rng.create 42 in
  let lbns = Array.make n 0 in
  for i = 0 to n - 1 do
    lbns.(i) <- 64 + (Su_util.Rng.int rng 65_000 * 8)
  done;
  let payload = Some (wpayload 1) in
  fun () ->
  let done_ = ref 0 in
  let on_complete _ = incr done_ in
  let prev = ref (-1) in
  for i = 1 to n do
    let lbn = lbns.(i - 1) in
    let kind =
      if read_every > 0 && i mod read_every = 0 then Su_driver.Request.Read
      else Su_driver.Request.Write
    in
    let flagged = flag_every > 0 && i mod flag_every = 0 in
    let deps = if chain && !prev >= 0 then [ !prev ] else [] in
    let is_write =
      match kind with Su_driver.Request.Write -> true | Su_driver.Request.Read -> false
    in
    let id =
      Su_driver.Driver.submit drv ~kind ~lbn ~nfrags:1 ~flagged ~deps
        ?payload:(if is_write then payload else None)
        ~on_complete ()
    in
    if is_write then prev := id
  done;
  Su_sim.Engine.run e;
  assert (!done_ = n);
  n

(* [n] buffer allocations through a small cache: every allocation past
   capacity must select and evict the LRU clean victim. *)
let bench_cache_evict n () =
  let e, drv = mk_disk_driver ~mode:Su_driver.Ordering.Unordered
      ~policy:Su_driver.Driver.Clook () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.default_config with capacity_frags = n / 2 }
  in
  fun () ->
  ignore
    (Su_sim.Proc.spawn e (fun () ->
         for i = 0 to n - 1 do
           let b =
             Su_cache.Bcache.getblk bc ~lbn:(i * 2) ~nfrags:1 ~init:(fun () ->
                 Su_cache.Buf.Cdata [| Some Su_fstypes.Types.Zeroed |])
           in
           Su_cache.Bcache.release bc b
         done));
  Su_sim.Engine.run e;
  n

(* Dirty [n] buffers, then flush them all: sync_all walks the dirty
   set and the driver drains an [n]-deep unordered write burst. *)
let bench_cache_sync_all n () =
  let e, drv = mk_disk_driver ~mode:Su_driver.Ordering.Unordered
      ~policy:Su_driver.Driver.Clook () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.default_config with capacity_frags = 2 * n }
  in
  fun () ->
  ignore
    (Su_sim.Proc.spawn e (fun () ->
         for i = 0 to n - 1 do
           let b =
             Su_cache.Bcache.getblk bc ~lbn:(i * 2) ~nfrags:1 ~init:(fun () ->
                 Su_cache.Buf.Cdata [| Some Su_fstypes.Types.Zeroed |])
           in
           Su_cache.Bcache.bdwrite bc b;
           Su_cache.Bcache.release bc b
         done;
         Su_cache.Bcache.sync_all bc));
  Su_sim.Engine.run e;
  n

(* [n] dirty inode blocks of 64 live dinodes, written out: what the
   write payload costs per metadata write. Dirtying is staged; the
   timed region issues the [n] writes and drains them. *)
let bench_write_payload n () =
  let open Su_fstypes in
  let e, drv = mk_disk_driver ~mode:Su_driver.Ordering.Unordered
      ~policy:Su_driver.Driver.Clook () in
  let g = Geom.default in
  let fpb = g.Geom.frags_per_block in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.default_config with capacity_frags = fpb * n }
  in
  let block i =
    Types.Inodes
      (Array.init g.Geom.inodes_per_block (fun j ->
           let d = Types.free_dinode g in
           d.Types.ftype <- Types.F_reg;
           d.Types.nlink <- 1;
           d.Types.gen <- 1;
           d.Types.size <- Geom.block_bytes g;
           d.Types.db.(0) <- fpb * ((i * g.Geom.inodes_per_block) + j + 1);
           d))
  in
  let bufs = ref [] in
  ignore
    (Su_sim.Proc.spawn e (fun () ->
         for i = n - 1 downto 0 do
           let b =
             Su_cache.Bcache.getblk bc ~lbn:(i * fpb) ~nfrags:fpb ~init:(fun () ->
                 Su_cache.Buf.Cmeta (block i))
           in
           Su_cache.Bcache.bdwrite bc b;
           Su_cache.Bcache.release bc b;
           bufs := b :: !bufs
         done));
  Su_sim.Engine.run e;
  let bufs = !bufs in
  fun () ->
  ignore
    (Su_sim.Proc.spawn e (fun () ->
         List.iter (fun b -> ignore (Su_cache.Bcache.bawrite bc b)) bufs));
  Su_sim.Engine.run e;
  n

(* Keys each syncer-sweep tick visits, at every cache size, and the
   smaller of the two cache sizes; the larger (512 buffers, 32 passes)
   is close to the daemon's default 30 passes. Both caches are small
   and on adjacent fragments so that neither leaves a core's L2 cache,
   even with a neighbour competing for it: at 2,000 and 16,000 buffers
   eight fragments apart the larger cache cost 1.5-1.9x per visited
   key in cache and TLB misses alone, and at 256 and 2,048 up to 1.48x
   (2-core Xeon, 2 MB L2 per core), which would hide the algorithmic
   cost under test. *)
let sweep_slice = 16
let sweep_nbufs = 64

(* [nbufs] cached one-fragment buffers on adjacent fragments, every
   tenth dirty, swept [sweeps] times by a syncer with no daemon, each
   tick's writes drained before the next. [passes] is scaled with
   [nbufs] so that every tick visits [sweep_slice] keys whatever the
   cache size: a tick whose cost grows with the cache (a whole-cache
   sort) then shows up in the time per visited key. A completed write
   re-dirties its buffer, so a tenth of the cache stays dirty
   throughout. *)
let bench_syncer_sweep ~nbufs sweeps () =
  let e, drv = mk_disk_driver ~mode:Su_driver.Ordering.Unordered
      ~policy:Su_driver.Driver.Clook () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.default_config with capacity_frags = nbufs }
  in
  (Su_cache.Bcache.hooks bc).Su_cache.Bcache.post_write <-
    Su_cache.Bcache.bdwrite bc;
  for i = 0 to nbufs - 1 do
    let b =
      Su_cache.Bcache.getblk bc ~lbn:i ~nfrags:1 ~init:(fun () ->
          Su_cache.Buf.Cdata [| Some Su_fstypes.Types.Zeroed |])
    in
    if i mod 10 = 0 then Su_cache.Bcache.bdwrite bc b;
    Su_cache.Bcache.release bc b
  done;
  let syn =
    Su_cache.Syncer.create ~engine:e ~cache:bc ~passes:(nbufs / sweep_slice) ()
  in
  fun () ->
  for _ = 1 to sweeps do
    Su_cache.Syncer.sweep syn;
    Su_sim.Engine.run e
  done;
  sweeps

(* [n] CPU charges of one microsecond, made back to back by [procs]
   processes on a bare engine: the [Costs] charge every fs op makes.
   One process charges an idle CPU with nothing else queued, so each
   charge finishes in place; two alternate on the CPU, so each charge
   queues behind the other's and completes through a heap event. *)
let bench_cpu_charge ~procs n () =
  let e = Su_sim.Engine.create () in
  let cpu = Su_sim.Cpu.create e in
  fun () ->
  for _ = 1 to procs do
    ignore
      (Su_sim.Proc.spawn e (fun () ->
           for _ = 1 to n / procs do
             Su_sim.Cpu.consume cpu 1e-6
           done))
  done;
  Su_sim.Engine.run e;
  n

(* The benches run serially: a pool worker's allocation and a
   concurrent full major would leak into another bench's bracket. *)
let hotpaths ~quick ~jobs:_ =
  let n = hotpath_scale quick in
  let reps = if quick then 2 else 7 in
  let row layer name stage = best_of ~reps ~layer ~unit:"event" name (staged stage) in
  let burst = bench_driver_burst ~mode:Su_driver.Ordering.Unordered in
  let sweeps = 4 * n in
  let rows =
    [
      row "driver" "driver-burst-unordered-clook" (burst n);
      row "driver" "driver-burst-unordered-fcfs"
        (burst ~policy:Su_driver.Driver.Fcfs n);
      row "driver" "driver-burst-part-nr"
        (bench_driver_burst
           ~mode:(Su_driver.Ordering.Flag { sem = Su_driver.Ordering.Part; nr = true })
           ~flag_every:16 ~read_every:8 n);
      row "driver" "driver-burst-chains"
        (bench_driver_burst ~mode:(Su_driver.Ordering.Chains { nr = true })
           ~chain:true n);
      row "cache" "cache-evict-clean" (bench_cache_evict n);
      row "cache" "cache-sync-all" (bench_cache_sync_all n);
      best_of ~reps ~layer:"cache" ~unit:"write" "write-payload"
        (staged (bench_write_payload n));
      best_of ~reps ~layer:"engine" ~unit:"charge" "cpu-charge"
        (staged (bench_cpu_charge ~procs:1 (10 * n)));
      best_of ~reps ~layer:"engine" ~unit:"charge" "cpu-charge-contended"
        (staged (bench_cpu_charge ~procs:2 (10 * n)));
    ]
  in
  (* The gate compares two short runs on a possibly shared host: run
     them in alternation and gate the median of the per-pair ratios,
     which a slow spell during one rep cannot move. Both do [sweeps]
     ticks of [sweep_slice] keys, so their wall ratio is their ns/key
     ratio. *)
  let sweep_pairs =
    let small = staged (bench_syncer_sweep ~nbufs:sweep_nbufs sweeps)
    and large = staged (bench_syncer_sweep ~nbufs:(8 * sweep_nbufs) sweeps) in
    List.init (max reps 9) (fun _ ->
        let s = small () in
        (s, large ()))
  in
  let sweep_row name pick =
    row_of ~layer:"cache" ~unit:"sweep" name (fastest (List.map pick sweep_pairs))
  in
  let rows =
    rows
    @ [ sweep_row "syncer-sweep-1x" fst; sweep_row "syncer-sweep-8x" snd ]
  in
  let ns_per_key name =
    let r = find rows name in
    r.wall_s *. 1e9 /. float_of_int (r.n * sweep_slice)
  in
  let sweep_ratio =
    let r = Array.of_list (List.map (fun (s, l) -> l.wall /. s.wall) sweep_pairs) in
    Array.sort compare r;
    r.(Array.length r / 2)
  in
  let gates =
    List.filter_map
      (fun r ->
        if String.starts_with ~prefix:"driver-burst" r.name then
          Some (at_least (r.name ^ " per_sec") r.per_sec 20_000.0)
        else None)
      rows
    @ [ at_most "write-payload words_per_unit"
          (find rows "write-payload").words_per_unit 300.0;
        at_most "cpu-charge words_per_unit"
          (find rows "cpu-charge").words_per_unit 12.0;
        at_most "cpu-charge-contended words_per_unit"
          (find rows "cpu-charge-contended").words_per_unit 48.0;
        at_most "syncer-sweep-8x/syncer-sweep-1x ns_per_key (median pair)"
          sweep_ratio 1.5;
        at_most "syncer-sweep-8x words_per_unit"
          (find rows "syncer-sweep-8x").words_per_unit 300.0 ]
  in
  ( rows,
    [ ("syncer-sweep-1x ns_per_key", ns_per_key "syncer-sweep-1x");
      ("syncer-sweep-8x ns_per_key", ns_per_key "syncer-sweep-8x") ],
    gates )

(* --- crash-state materialization, sweep scaling, journal replay -------- *)

(* Per built-in workload:

   1. materialization throughput: producing the durable image at every
      crash state (each write boundary + every torn prefix) with
      [Explorer.materialize] over one delta-log cursor, the code the
      sweeps run.

   2. full-sweep wall clock: Explorer.sweep (fsck + repair + remount +
      continuation per state) at --jobs 1 and --jobs N, pinning the
      work pool's scaling.

   Then one [journal-replay] row (see [journal_replay_row]) and one
   [recover-state] row (see [recover_state_row]). *)

module Explorer = Su_check.Explorer
module Delta = Su_check.Delta

let crashsweep_cfg = Explorer.sweep_cfg Su_fs.Fs.Soft_updates

(* Repeat [f] until ~0.25s of wall clock has accumulated, so per-state
   times in the nanosecond range still measure cleanly. *)
let repeat_for_quarter_second f () =
  let t0 = Unix.gettimeofday () in
  let total = ref 0 in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.25 || !reps = 0 do
    total := !total + f ();
    incr reps
  done;
  !total

(* Journal replay: a small journaled copy/remove, synced, leaves its
   whole log on the image (recovery, not the sync, retires it), so
   recovering that image is replay-bound. Per-record words price one
   record's replay; a replay that re-copied its target block per
   record pays a whole block (up to a 2,048-slot indirect) each time. *)
let journal_replay_row ~reps =
  let cfg =
    { crashsweep_cfg with
      Su_fs.Fs.scheme = Su_fs.Fs.Journaled { group_commit = false } }
  in
  let w = Su_fs.Fs.make cfg in
  let st = w.Su_fs.Fs.st in
  ignore
    (Su_sim.Proc.spawn w.Su_fs.Fs.engine ~name:"copy-remove" (fun () ->
         Su_fs.Fsops.mkdir st "/src";
         Su_workload.Tree.populate st ~base:"/src"
           (Su_workload.Tree.spec ~files:60 ~total_bytes:(4 lsl 20) ());
         Su_fs.Fsops.mkdir st "/dst";
         Su_workload.Tree.copy st ~src:"/src" ~dst:"/dst";
         Su_workload.Tree.remove st "/dst";
         Su_fs.Fsops.sync st;
         Su_fs.Fs.stop w));
  Su_sim.Engine.run w.Su_fs.Fs.engine;
  let image = Su_disk.Disk.image_snapshot w.Su_fs.Fs.disk in
  let records =
    Array.fold_left
      (fun n c ->
        match c with
        | Su_fstypes.Types.Jlog { recs; _ } -> n + List.length recs
        | _ -> n)
      0 image
  in
  let log_start, log_frags = Option.get (Su_fs.Fs.journal_region cfg) in
  best_of ~reps ~layer:"fsck" ~unit:"record" "journal-replay"
    (staged (fun () ->
         let img = Array.copy image in
         fun () ->
           Su_core.Journaled.recover ~geom:cfg.Su_fs.Fs.geom ~log_start
             ~log_frags img;
           records))

(* Recovery of sampled crash states of a soft updates volume holding
   2,000 files, each through [Explorer.verify_state]: fsck check and
   repair, remount, the continuation and the probe's final check. The
   states come from a short churn after the population is synced, and
   are materialized outside the timed region. The same workload runs on
   the default geometry (1 GB, [recover-state]) and on [Geom.small]
   (64 MB, [recover-state-64mb]): the time ratio between the two prices
   the passes recovery makes over the whole volume rather than over
   what the crash left on it, and words per state price them too.
   Returns a measure of each volume's states and a count of the states
   whose verdict was not clean. *)
let recover_state_runs ~quick =
  let open Su_fs in
  let wl =
    {
      Explorer.wl_name = "recover-state";
      wl_run =
        (fun st ->
          Fsops.mkdir st "/p";
          for d = 0 to 9 do
            let dir = Printf.sprintf "/p/d%d" d in
            Fsops.mkdir st dir;
            for f = 0 to 199 do
              let p = Printf.sprintf "%s/f%d" dir f in
              Fsops.create st p;
              Fsops.append st p ~bytes:(512 * (1 + (f mod 6)))
            done
          done;
          Fsops.sync st;
          Fsops.mkdir st "/c";
          for i = 0 to 9 do
            let p = Printf.sprintf "/c/n%d" i in
            Fsops.create st p;
            Fsops.append st p ~bytes:2048;
            Fsops.rename st ~src:p ~dst:(p ^ "r");
            Fsops.unlink st (Printf.sprintf "/p/d%d/f%d" i i)
          done;
          Fsops.sync st);
    }
  in
  let n = if quick then 4 else 12 in
  let unclean = ref 0 in
  let runs geom =
    let cfg = { (Fs.config ~scheme:Fs.Soft_updates ()) with Fs.geom } in
    let r = Explorer.record ~cfg wl in
    let states = Explorer.crash_states ~torn:false r in
    (* evenly over the churn's last 48 boundaries *)
    let last = Array.length states - 1 in
    let sample =
      Array.init n (fun i -> states.(max 0 (last - ((n - 1 - i) * 48 / n))))
    in
    fun () ->
      let cur =
        Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas
      in
      Array.fold_left
        (fun acc ((boundary, torn) as state) ->
          let image = Explorer.materialize cur state in
          let s =
            bracket (fun () ->
                let v = Explorer.verify_state ~cfg ~boundary ~torn image in
                if
                  v.Explorer.v_pre_violations > 0
                  || v.Explorer.v_post_violations > 0
                  || not v.Explorer.v_remount_ok
                then incr unclean;
                1)
          in
          {
            units = acc.units + s.units;
            wall = acc.wall +. s.wall;
            words = acc.words +. s.words;
            major_gcs = acc.major_gcs + s.major_gcs;
          })
        { units = 0; wall = 0.0; words = 0.0; major_gcs = 0 }
        sample
  in
  let big = runs Su_fstypes.Geom.default and small = runs Su_fstypes.Geom.small in
  (big, small, unclean)

let recover_ratio_bound = 4.0

let crashsweep ~quick ~jobs =
  let jobs_n = Su_util.Pool.resolve_jobs jobs in
  let max_boundaries = if quick then Some 30 else None in
  let per_workload =
    List.map
      (fun wl ->
        let name = wl.Explorer.wl_name in
        let r = Explorer.record ~cfg:crashsweep_cfg wl in
        let states = Explorer.crash_states ?max_boundaries r in
        let row suffix layer run =
          best_of ~reps:1 ~layer ~unit:"state" (name ^ suffix) (fun () -> bracket run)
        in
        let cur =
          Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas
        in
        let materialize () =
          Array.iter
            (fun state ->
              ignore (Sys.opaque_identity (Explorer.materialize cur state)))
            states;
          Array.length states
        in
        let sweep jobs () =
          (Explorer.sweep ~jobs ?max_boundaries ~recording:r ~cfg:crashsweep_cfg
             wl).Explorer.s_states
        in
        ( [ row "-materialize" "check" (repeat_for_quarter_second materialize);
            row "-sweep-jobs1" "e2e" (sweep 1);
            row "-sweep-jobsN" "e2e" (sweep jobs_n) ],
          [ (name ^ ".writes", float_of_int (Array.length r.Explorer.rec_deltas)) ] ))
      Explorer.builtin_workloads
  in
  let replay = journal_replay_row ~reps:(if quick then 1 else 3) in
  (* alternating 1 GB and 64 MB runs, each row its fastest, and the
     median of the per-pair time ratios, as for the syncer sweep *)
  let big, small, unclean = recover_state_runs ~quick in
  let pairs =
    List.init (if quick then 3 else 9) (fun _ ->
        let b = big () in
        (b, small ()))
  in
  let recover_row name pick =
    row_of ~layer:"fsck" ~unit:"state" name (fastest (List.map pick pairs))
  in
  let recover = recover_row "recover-state" fst in
  let recover_small = recover_row "recover-state-64mb" snd in
  let recover_ratio =
    let r = Array.of_list (List.map (fun (b, s) -> b.wall /. s.wall) pairs) in
    Array.sort compare r;
    r.(Array.length r / 2)
  in
  ( List.concat_map fst per_workload @ [ replay; recover; recover_small ],
    ("jobs", float_of_int jobs_n)
    :: ("recover-state/recover-state-64mb", recover_ratio)
    :: List.concat_map snd per_workload,
    [ at_most "journal-replay words_per_unit" replay.words_per_unit 128.0;
      at_most "recover-state words_per_unit" recover.words_per_unit 160_000.0;
      at_most "recover-state/recover-state-64mb wall (median pair)"
        recover_ratio recover_ratio_bound;
      at_most "recover-state unclean states" (float_of_int !unclean) 0.0 ] )

(* --- loadgen steady state + directory-scale hot paths ------------------ *)

(* - loadgen-steady: the open-loop multi-tenant engine at a scale whose
     steady-state loop must complete with ZERO major collections
     (pooled per-client scratch as a measured number). Ops/sec is host
     throughput of the whole engine, simulated clients included.

   - loadgen-steady-1x vs loadgen-steady-2x: fixed-shape load with the
     steady window doubled. The gate: words/op at 2x must stay within
     1.15x of 1x — host cost per operation must not grow with simulated
     time (e.g. with the pending dependency backlog).

   - dirscale-100 vs dirscale-10k: a fixed count of lookups plus
     create/unlink churn against one directory pre-filled with 100 vs
     10_000 entries, directory index on. The gate: the 10k rate must be
     within 2x of the 100-entry rate — per-op cost no longer scales
     with directory size. dirscale-10k-scan (index off, fewer ops) is
     reported for contrast and not gated. *)

(* Self-measured: the bracket opens inside the simulation, after the
   directory is filled and synced. *)
let bench_dirscale ~index ~files nops () =
  let cfg =
    { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
      Su_fs.Fs.dir_index = index
    }
  in
  let w = Su_fs.Fs.make cfg in
  let st = w.Su_fs.Fs.st in
  let result = ref None in
  let controller () =
    Su_fs.Fsops.mkdir st "/big";
    let names = Array.init files (fun k -> Printf.sprintf "/big/f%06d" k) in
    Array.iter (fun n -> ignore (Su_fs.Fsops.create st n)) names;
    Su_fs.Fsops.sync st;
    result :=
      Some
        (bracket (fun () ->
             for i = 0 to nops - 1 do
               match i land 3 with
               | 0 | 1 -> ignore (Su_fs.Fsops.stat st names.(i * 7919 mod files))
               | 2 -> ignore (Su_fs.Fsops.create st "/big/xchurn")
               | _ -> Su_fs.Fsops.unlink st "/big/xchurn"
             done;
             nops));
    Su_fs.Fs.stop w;
    Su_driver.Driver.quiesce w.Su_fs.Fs.driver;
    Su_sim.Engine.stop w.Su_fs.Fs.engine
  in
  ignore (Su_sim.Proc.spawn w.Su_fs.Fs.engine ~name:"dirscale" controller);
  Su_sim.Engine.run w.Su_fs.Fs.engine;
  Option.get !result

(* Loadgen measures its own steady window (setup and warmup excluded). *)
let loadgen_sample ?(checksums = false) cfg () =
  let cfg =
    { cfg with
      Su_workload.Loadgen.fs_cfg =
        { cfg.Su_workload.Loadgen.fs_cfg with Su_fs.Fs.checksums }
    }
  in
  let r = Su_workload.Loadgen.run cfg in
  {
    units = r.Su_workload.Loadgen.executed;
    wall = r.Su_workload.Loadgen.host_wall_s;
    words = r.Su_workload.Loadgen.minor_words;
    major_gcs = r.Su_workload.Loadgen.major_collections;
  }

let loadgen_steady_cfg ~clients ~duration ~warmup shape =
  let base = Su_workload.Loadgen.config ~scheme:Su_fs.Fs.Soft_updates () in
  { base with
    Su_workload.Loadgen.clients;
    rate = 0.5;
    duration;
    warmup;
    files_per_client = 6;
    shape
  }

let bench_loadgen_steady ?checksums ~quick () =
  loadgen_sample ?checksums
    (loadgen_steady_cfg
       ~clients:(if quick then 80 else 200)
       ~duration:(if quick then 10.0 else 16.0)
       ~warmup:(if quick then 2.0 else 4.0)
       Su_workload.Loadgen.Rampup)
    ()

(* Fixed-shape Poisson load with the 12 s steady window scaled by
   [scale]; the same size under --quick, so the 1x/2x words-per-op
   ratio is comparable in CI. *)
let bench_loadgen_window ~scale =
  loadgen_sample
    (loadgen_steady_cfg ~clients:200
       ~duration:(4.0 +. (12.0 *. float_of_int scale))
       ~warmup:4.0 Su_workload.Loadgen.Fixed)

let loadgen ~quick ~jobs:_ =
  let reps = if quick then 2 else 3 in
  let nops = if quick then 800 else 4000 in
  let row layer name measure = best_of ~reps ~layer ~unit:"op" name measure in
  let rows =
    [
      row "e2e" "loadgen-steady" (bench_loadgen_steady ~quick);
      row "e2e" "loadgen-steady-1x" (bench_loadgen_window ~scale:1);
      row "e2e" "loadgen-steady-2x" (bench_loadgen_window ~scale:2);
      row "fsops" "dirscale-100" (bench_dirscale ~index:true ~files:100 nops);
      row "fsops" "dirscale-10k" (bench_dirscale ~index:true ~files:10_000 nops);
      row "fsops" "dirscale-10k-scan"
        (bench_dirscale ~index:false ~files:10_000 (nops / 8));
    ]
  in
  let get = find rows in
  ( rows,
    [],
    [
      at_most "loadgen-steady majors" (float_of_int (get "loadgen-steady").majors) 0.0;
      at_least "dirscale-10k/dirscale-100 per_sec"
        ((get "dirscale-10k").per_sec /. (get "dirscale-100").per_sec)
        0.5;
      at_most "loadgen-steady-2x/loadgen-steady-1x words_per_unit"
        ((get "loadgen-steady-2x").words_per_unit
        /. (get "loadgen-steady-1x").words_per_unit)
        1.15;
    ] )

(* --- checksum overhead ------------------------------------------------- *)

(* What turning `checksums` on costs on the two loops the perf story
   rests on: the driver write burst (every acknowledged write now folds
   its payload into the digest region) and the loadgen steady loop
   (whole-engine ops/sec with a checksummed world). Gates: the
   checksummed steady loop must still run zero major collections —
   digest upkeep is in-place int stores, not allocation — and the
   checksummed burst must stay within 2x of the plain one. *)

let corrupt ~quick ~jobs:_ =
  let n = hotpath_scale quick in
  let reps = if quick then 2 else 5 in
  let burst checksums =
    staged (bench_driver_burst ~mode:Su_driver.Ordering.Unordered ~checksums n)
  in
  let rows =
    [
      best_of ~reps ~layer:"driver" ~unit:"event" "driver-burst-plain" (burst false);
      best_of ~reps ~layer:"driver" ~unit:"event" "driver-burst-csum" (burst true);
      best_of ~reps ~layer:"e2e" ~unit:"op" "loadgen-steady-plain"
        (bench_loadgen_steady ~quick);
      best_of ~reps ~layer:"e2e" ~unit:"op" "loadgen-steady-csum"
        (bench_loadgen_steady ~checksums:true ~quick);
    ]
  in
  let get = find rows in
  let overhead_pct plain csum =
    ((get plain).per_sec /. (get csum).per_sec -. 1.0) *. 100.0
  in
  ( rows,
    [
      ("driver_burst_overhead_pct", overhead_pct "driver-burst-plain" "driver-burst-csum");
      ( "loadgen_steady_overhead_pct",
        overhead_pct "loadgen-steady-plain" "loadgen-steady-csum" );
    ],
    [
      at_most "loadgen-steady-csum majors"
        (float_of_int (get "loadgen-steady-csum").majors)
        0.0;
      at_least "driver-burst-csum/driver-burst-plain per_sec"
        ((get "driver-burst-csum").per_sec /. (get "driver-burst-plain").per_sec)
        0.5;
    ] )

(* --- compact volume ----------------------------------------------------- *)

(* The claims behind the slab-backed image ({!Su_fstypes.Volume}):

   - volume-mkfs: formatting a paper-disk-scale volume (full: 8 GB /
     512 cylinder groups / 1,048,576 inodes on a widened HP C2447;
     quick: 1 GB / 131,072 inodes on the stock drive). The gate asserts
     formatting allocates O(blocks), not O(inodes): fresh inode blocks
     share one canonical free dinode and encode straight into slabs, so
     mkfs must stay under 64 minor words per inode (one boxed dinode
     record alone costs ~22 words before its block array lands).

   - volume-resident: resident bytes per inode with the formatted
     volume fully resident: live major-heap bytes (measured across
     Fs.make between two full majors) plus the volume's off-heap
     payload plane, next to the volume's own slab accounting
     (Disk.image_stats). Gate: <= 192 resident bytes per inode — the
     bound that makes a million-inode volume a ~100-200 MB object
     instead of an unbounded record graph.

   - loadgen-bigvol: the multi-tenant load engine running on that
     volume (full: 120,000 clients; quick: 5,000). Gate: steady ops
     executed > 0. Majors and words/op are reported, not gated: past
     the cache's capacity every fill decodes fresh records (exactly the
     copy_cell cost the boxed image paid), so eviction churn allocates
     proportionally to miss traffic at any client count. *)

let volume_geometry ~quick =
  let geom =
    if quick then Su_fstypes.Geom.v ~mb:1024 ~cg_mb:16 ~inodes_per_cg:2048 ()
    else Su_fstypes.Geom.v ~mb:8192 ~cg_mb:16 ~inodes_per_cg:2048 ()
  in
  let params =
    if
      Su_disk.Disk_params.capacity_frags Su_disk.Disk_params.hp_c2447
      >= geom.Su_fstypes.Geom.nfrags
    then Su_disk.Disk_params.hp_c2447
    else
      { Su_disk.Disk_params.hp_c2447 with
        Su_disk.Disk_params.cylinders = 17_000
      }
  in
  (geom, params)

(* mkfs leaves untouched inode blocks Empty (they materialize on first
   allocation), so this also installs the entire inode area — the
   resident figure is the worst case, every inode block encoded, not
   the sparse freshly-formatted image. *)
let make_resident_volume fs_cfg =
  let geom = fs_cfg.Su_fs.Fs.geom in
  let w = Su_fs.Fs.make fs_cfg in
  let disk = w.Su_fs.Fs.disk in
  for c = 0 to Su_fstypes.Geom.cg_count geom - 1 do
    let first, count = Su_fstypes.Geom.cg_inode_area geom c in
    let fpb = geom.Su_fstypes.Geom.frags_per_block in
    let blk = ref first in
    while !blk < first + count do
      (match Su_disk.Disk.peek disk !blk with
       | Su_fstypes.Types.Empty ->
         Su_disk.Disk.install disk !blk
           (Su_fstypes.Types.Meta (Su_fstypes.Types.fresh_inode_block geom));
         for i = 1 to fpb - 1 do
           Su_disk.Disk.install disk (!blk + i) Su_fstypes.Types.Pad
         done
       | _ -> ());
      blk := !blk + fpb
    done
  done;
  w

let volume ~quick ~jobs:_ =
  let geom, params = volume_geometry ~quick in
  let inodes = Su_fstypes.Geom.total_inodes geom in
  let fs_cfg =
    { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
      Su_fs.Fs.geom;
      disk_params = params;
      dir_index = true
    }
  in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let world = ref None in
  let mkfs =
    best_of ~reps:1 ~layer:"volume" ~unit:"inode" "volume-mkfs" (fun () ->
        bracket (fun () ->
            world := Some (make_resident_volume fs_cfg);
            inodes))
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let w = Option.get !world in
  let st = Su_disk.Disk.image_stats w.Su_fs.Fs.disk in
  Su_fs.Fs.stop w;
  let per_inode x = float_of_int x /. float_of_int inodes in
  (* the payload plane lives outside the heap, and still is resident *)
  let bytes_per_inode =
    per_inode (((live1 - live0) * 8) + st.Su_fstypes.Volume.offheap_bytes)
  in
  let clients = if quick then 5_000 else 120_000 in
  let base = Su_workload.Loadgen.config ~scheme:Su_fs.Fs.Soft_updates () in
  let bigvol =
    best_of ~reps:1 ~layer:"e2e" ~unit:"op" "loadgen-bigvol"
      (loadgen_sample
         { base with
           Su_workload.Loadgen.fs_cfg;
           clients;
           rate = (if quick then 0.2 else 0.02);
           duration = (if quick then 6.0 else 10.0);
           warmup = 2.0;
           files_per_client = 1
         })
  in
  ( [ mkfs; bigvol ],
    [
      ("volume-resident.bytes_per_inode", bytes_per_inode);
      ("volume-resident.slab_bytes_per_inode", per_inode st.Su_fstypes.Volume.slab_bytes);
      ("volume-resident.offheap_bytes_per_inode", per_inode st.offheap_bytes);
      ("volume-resident.inode_slabs", float_of_int st.inode_slabs);
      ("volume-resident.dir_slabs", float_of_int st.dir_slabs);
      ("volume-resident.indirect_slabs", float_of_int st.indirect_slabs);
      ("volume-resident.boxed", float_of_int st.boxed);
      ("loadgen-bigvol.clients", float_of_int clients);
    ],
    [
      at_most "volume-mkfs words_per_unit" mkfs.words_per_unit 64.0;
      at_most "volume-resident bytes_per_inode" bytes_per_inode 192.0;
      above "loadgen-bigvol n" (float_of_int bigvol.n) 0.0;
    ] )

(* --- the section registry and its one writer ---------------------------- *)

let sections =
  [
    ("hotpaths", hotpaths);
    ("crashsweep", crashsweep);
    ("loadgen", loadgen);
    ("corrupt", corrupt);
    ("volume", volume);
  ]

let print_section (rows, derived, gates) =
  List.iter
    (fun r ->
      Printf.printf "%-34s %-6s n=%-8d %8.3fs %12.0f %s/s %10.1f words/%s %3d majors\n"
        r.name r.layer r.n r.wall_s r.per_sec r.unit r.words_per_unit r.unit r.majors)
    rows;
  List.iter (fun (k, v) -> Printf.printf "  %-44s %g\n" k v) derived;
  List.iter
    (fun g ->
      Printf.printf "  gate %-50s %-12g bound %-10g %s\n" g.gate g.value g.bound
        (if g.ok then "ok" else "FAIL");
      if not g.ok then
        Printf.eprintf "FAIL: %s %g (bound %g)\n" g.gate g.value g.bound)
    gates;
  print_newline ()

let ledger_json ~quick results =
  let row r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("layer", Json.Str r.layer);
        ("unit", Json.Str r.unit);
        ("n", Json.Int r.n);
        ("wall_s", Json.Float r.wall_s);
        ("per_sec", Json.Float r.per_sec);
        ("words_per_unit", Json.Float r.words_per_unit);
        ("majors", Json.Int r.majors);
      ]
  in
  let gate g =
    Json.Obj
      [
        ("gate", Json.Str g.gate);
        ("value", Json.Float g.value);
        ("bound", Json.Float g.bound);
        ("ok", Json.Bool g.ok);
      ]
  in
  Json.Obj
    [
      ("scale", Json.Str (if quick then "quick" else "full"));
      ( "sections",
        Json.List
          (List.map
             (fun (section, (rows, derived, gates)) ->
               Json.Obj
                 [
                   ("section", Json.Str section);
                   ("rows", Json.List (List.map row rows));
                   ("derived", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) derived));
                   ("gates", Json.List (List.map gate gates));
                 ])
             results) );
    ]

let run_sections ~quick ~jobs ~json wanted =
  let results =
    List.filter_map
      (fun (section, run) ->
        if not (List.mem section wanted) then None
        else begin
          Printf.printf "## %s\n%!" section;
          let result = run ~quick ~jobs in
          print_section result;
          Some (section, result)
        end)
      sections
  in
  Option.iter (fun path -> write_json path (ledger_json ~quick results)) json;
  if List.exists (fun (_, (_, _, gates)) -> List.exists (fun g -> not g.ok) gates) results
  then exit 1

(* --- main --------------------------------------------------------------- *)

type cli = {
  quick : bool;
  jobs : int;
  json : string option;
  assert_shapes : string option;
  list : bool;
  help : bool;
  perf : string list;
  ids : string list;
}

(* One pass over argv; every malformed invocation exits 2 before any
   work starts. *)
let parse_args args =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  let rec go c = function
    | [] -> c
    | "--quick" :: rest -> go { c with quick = true } rest
    | "--list" :: rest -> go { c with list = true } rest
    | ("--help" | "-h") :: rest -> go { c with help = true } rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
       | Some j when j >= 0 -> go { c with jobs = j } rest
       | Some _ | None -> fail "bad --jobs value %S (want an int >= 0)" v)
    | "--json" :: path :: rest -> go { c with json = Some path } rest
    | "--assert-shapes" :: path :: rest -> go { c with assert_shapes = Some path } rest
    | [ ("--jobs" | "--json" | "--assert-shapes") as flag ] ->
      fail "%s needs a value" flag
    | flag :: rest when List.exists (fun (s, _) -> flag = "--" ^ s) sections ->
      go { c with perf = String.sub flag 2 (String.length flag - 2) :: c.perf } rest
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' ->
      fail "unknown option %S (try --help)" flag
    | id :: rest ->
      (* fail fast on unknown ids, before any experiment burns wall clock *)
      if List.mem id available then go { c with ids = c.ids @ [ id ] } rest
      else fail "unknown experiment %S (try --list)" id
  in
  let c =
    go
      { quick = false; jobs = 1; json = None; assert_shapes = None; list = false;
        help = false; perf = []; ids = [] }
      args
  in
  if c.perf <> [] && c.ids <> [] then
    fail "perf sections (--%s) and experiment ids cannot be combined"
      (String.concat ", --" c.perf);
  c

let assert_shapes path =
  let doc =
    let s =
      try
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      with Sys_error e ->
        Printf.eprintf "cannot read %s: %s\n" path e;
        exit 2
    in
    match Json.parse s with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "%s: JSON parse error: %s\n" path e;
      exit 2
  in
  let claims = Su_experiments.Shapes.check doc in
  if claims = [] then begin
    Printf.eprintf "%s: no recognisable experiment tables to assert\n" path;
    exit 2
  end;
  let nfail =
    List.fold_left (fun n (_, ok, _) -> if ok then n else n + 1) 0 claims
  in
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "%-48s %-4s %s\n" name
        (if ok then "ok" else "FAIL")
        detail)
    claims;
  Printf.printf "# %d claims, %d failed\n" (List.length claims) nfail;
  exit (if nfail = 0 then 0 else 1)

let run_experiments ~quick ~jobs ~json selected =
  let scale = if quick then `Quick else `Full in
  let wanted = if selected = [] then available else selected in
  let t_start = Unix.gettimeofday () in
  Printf.printf
    "# Metadata Update Performance in File Systems (Ganger & Patt, OSDI 94)\n";
  Printf.printf "# simulated reproduction - %s scale\n\n"
    (if quick then "quick" else "full");
  (* Each experiment renders its tables into a buffer inside a pool
     worker; printing happens here, in id order, so output is
     byte-identical at any --jobs value. *)
  let wanted = Array.of_list wanted in
  let rendered =
    Su_util.Pool.map ~jobs (Array.length wanted) (fun i ->
        let id = wanted.(i) in
        let t0 = Unix.gettimeofday () in
        let tables = List.assoc id (Su_experiments.Experiments.all scale) () in
        let buf = Buffer.create 4096 in
        List.iter
          (fun t -> Buffer.add_string buf (Su_util.Text_table.render t))
          tables;
        (id, Buffer.contents buf, tables, Unix.gettimeofday () -. t0))
  in
  Array.iter
    (fun (id, text, _, wall) ->
      print_string text;
      Printf.printf "[%s took %.1fs wall]\n\n%!" id wall)
    rendered;
  Option.iter
    (fun path ->
      write_json path
        (Su_experiments.Shapes.experiments_json
           ~scale:(if quick then "quick" else "full")
           (Array.to_list rendered
           |> List.map (fun (id, _, tables, wall) -> (id, wall, tables)))))
    json;
  Printf.printf "# total wall time: %.1fs\n" (Unix.gettimeofday () -. t_start)

let () =
  let c = parse_args (List.tl (Array.to_list Sys.argv)) in
  if c.help then begin
    usage ();
    exit 0
  end;
  if c.list then begin
    List.iter print_endline available;
    exit 0
  end;
  Option.iter assert_shapes c.assert_shapes;
  if c.perf <> [] then run_sections ~quick:c.quick ~jobs:c.jobs ~json:c.json c.perf
  else run_experiments ~quick:c.quick ~jobs:c.jobs ~json:c.json c.ids
