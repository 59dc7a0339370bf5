(* Benchmark harness: regenerates every figure and table of the
   paper's evaluation (section 5 plus the section 3 comparisons).

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- --quick      # reduced workloads
     dune exec bench/main.exe -- fig5 tab2    # selected experiments
     dune exec bench/main.exe -- --jobs 4     # figure runs over 4 domains
     dune exec bench/main.exe -- --micro      # Bechamel micro-benchmarks
     dune exec bench/main.exe -- --hotpaths [--json BENCH_hotpaths.json]
                                              # dispatch/eviction hot paths
     dune exec bench/main.exe -- --crashsweep [--json BENCH_crashsweep.json]
                                              # delta snapshots + work pool
     dune exec bench/main.exe -- --loadgen [--json BENCH_loadgen.json]
                                              # load engine + dir-scale gates
     dune exec bench/main.exe -- --corrupt [--json BENCH_corrupt.json]
                                              # checksum overhead + gates
     dune exec bench/main.exe -- --list       # available ids *)

let available =
  [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "tab1"; "tab2"; "tab3"; "fig6";
    "chains-dealloc"; "chains-cb"; "crash"; "soft-ablate"; "journal"; "nvram"; "aging" ]

let usage () =
  print_string
    "usage: main.exe [options] [experiment ids]\n\
     \n\
     With no ids, every experiment runs in paper order.\n\
     \n\
     options:\n\
     \  --quick         reduced workload sizes (smoke scale)\n\
     \  --jobs N        worker domains for figure runs and --crashsweep\n\
     \                  (default 1 = serial; 0 = one per core); results\n\
     \                  and output are byte-identical at any value\n\
     \  --list          print available experiment ids\n\
     \  --micro         Bechamel micro-benchmarks of the core structures\n\
     \  --hotpaths      driver-dispatch / cache-eviction hot paths\n\
     \  --min-driver-eps N\n\
     \                  with --hotpaths: exit 1 if any driver-burst-*\n\
     \                  benchmark falls below N events/sec (a generous\n\
     \                  anti-regression floor for CI, not a target)\n\
     \  --crashsweep    crash-state materialization (delta log vs deep\n\
     \                  copy) and full-sweep scaling across the pool\n\
     \  --loadgen       load-engine steady state (zero-major assertion,\n\
     \                  words/op at a doubled window within 1.15x) and\n\
     \                  directory-scale lookups (10k entries gated\n\
     \                  within 2x of 100); exit 1 on a failed gate\n\
     \  --corrupt       checksum overhead: driver burst and loadgen\n\
     \                  steady loops with the digest region off vs on;\n\
     \                  gates: checksummed steady loop still runs zero\n\
     \                  major collections, burst overhead within 2x\n\
     \  --volume        compact volume image: mkfs at 1M-inode scale\n\
     \                  (minor words/inode gate), resident bytes/inode\n\
     \                  gate, and the load engine on the big volume\n\
     \  --json PATH     write results JSON: experiment tables (the\n\
     \                  document EXPERIMENTS.md specifies), or the\n\
     \                  --hotpaths/--crashsweep perf records\n\
     \  --assert-shapes PATH\n\
     \                  parse an experiments JSON written by --json and\n\
     \                  check the calibrated shape claims (exit 1 on any\n\
     \                  failure); runs no experiments itself\n\
     \  --help          this text\n"

(* --- Bechamel micro-benchmarks of the core data structures ------------- *)

let micro () =
  let open Bechamel in
  let heap_bench =
    Test.make ~name:"heap push/pop x1000"
      (Staged.stage (fun () ->
           let h = Su_util.Heap.create ~cmp:compare in
           for i = 0 to 999 do
             Su_util.Heap.push h ((i * 7919) mod 1000)
           done;
           while not (Su_util.Heap.is_empty h) do
             ignore (Su_util.Heap.pop h)
           done))
  in
  let engine_bench =
    Test.make ~name:"engine 1000 events"
      (Staged.stage (fun () ->
           let e = Su_sim.Engine.create () in
           for i = 1 to 1000 do
             Su_sim.Engine.at e (float_of_int i *. 0.001) (fun () -> ())
           done;
           Su_sim.Engine.run e))
  in
  let proc_bench =
    Test.make ~name:"spawn/join 100 processes"
      (Staged.stage (fun () ->
           let e = Su_sim.Engine.create () in
           for _ = 1 to 100 do
             ignore (Su_sim.Proc.spawn e (fun () -> Su_sim.Proc.sleep e 0.01))
           done;
           Su_sim.Engine.run e))
  in
  let seek_bench =
    Test.make ~name:"seek curve x10000"
      (Staged.stage (fun () ->
           let p = Su_disk.Disk_params.hp_c2447 in
           for d = 0 to 9999 do
             ignore (Su_disk.Disk_params.seek_time p (d mod 2000))
           done))
  in
  let rng_bench =
    Test.make ~name:"rng 10000 draws"
      (Staged.stage (fun () ->
           let r = Su_util.Rng.create 1 in
           for _ = 1 to 10_000 do
             ignore (Su_util.Rng.int r 1000)
           done))
  in
  let tests =
    Test.make_grouped ~name:"core"
      [ heap_bench; engine_bench; proc_bench; seek_bench; rng_bench ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances tests
  in
  let results = benchmark () in
  (* Bechamel's analysis: ordinary least squares against run count *)
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock results
  in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results

(* --- hot-path micro-benchmarks ----------------------------------------- *)

(* Stress the two structures the paper's burst scenarios lean on: the
   driver dispatch queue under thousands of simultaneously pending
   requests (No Order / Soft Updates delayed-write bursts) and the
   buffer-cache eviction path. Results go to BENCH_hotpaths.json so
   the perf trajectory is tracked across PRs. *)

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
   completion must pick the next request from an [n]-deep queue.

   Each hotpath bench is staged: calling it builds the world (engine,
   disk image, driver, cache) and returns the run thunk, so the timed
   region covers only the submit + drain hot paths — not the one-off
   8 MB disk-image allocation, which would otherwise be ~10% of the
   wall at current throughput. *)
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
  (* BENCH_ALLOC_PROBE=1 isolates the drain phase — the steady-state
     event loop with no submissions — and prints its minor-heap words
     and microseconds per request to stderr. This is the number behind
     the "near-zero allocation per event" budget in HACKING.md. *)
  (if Sys.getenv_opt "BENCH_ALLOC_PROBE" <> None then begin
     let w0 = Gc.minor_words () in
     let t0 = Unix.gettimeofday () in
     Su_sim.Engine.run e;
     let dt = Unix.gettimeofday () -. t0 in
     let w1 = Gc.minor_words () in
     Printf.eprintf "drain: %.1f words/req, %.2f us/req (%d events executed)\n%!"
       ((w1 -. w0) /. float_of_int n)
       (dt /. float_of_int n *. 1e6)
       (Su_sim.Engine.events_executed e)
   end
   else Su_sim.Engine.run e);
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

let hotpath_benches n =
  [
    ( "driver-burst-unordered-clook",
      bench_driver_burst ~mode:Su_driver.Ordering.Unordered n );
    ( "driver-burst-unordered-fcfs",
      bench_driver_burst ~mode:Su_driver.Ordering.Unordered
        ~policy:Su_driver.Driver.Fcfs n );
    ( "driver-burst-part-nr",
      bench_driver_burst
        ~mode:(Su_driver.Ordering.Flag { sem = Su_driver.Ordering.Part; nr = true })
        ~flag_every:16 ~read_every:8 n );
    ( "driver-burst-chains",
      bench_driver_burst
        ~mode:(Su_driver.Ordering.Chains { nr = true })
        ~chain:true n );
    ("cache-evict-clean", bench_cache_evict n);
    ("cache-sync-all", bench_cache_sync_all n);
  ]

(* Each benchmark runs bracketed by [Gc.quick_stat] so the zero-alloc
   claim on the event core is a measured number: minor-heap words per
   event and major collections, persisted alongside the throughput. *)
let run_hotpaths ~quick ~jobs ~json_path ~min_driver_eps =
  let n = hotpath_scale quick in
  let benches = Array.of_list (hotpath_benches n) in
  (* Fan independent benchmark worlds across the pool; results are
     merged (and printed) by index, so names/events are byte-identical
     at any --jobs value — only the timings vary.

     Each bench runs [reps] times in a fresh world and the fastest rep
     is recorded: per-run wall times of 10-30 ms are at the mercy of
     scheduler noise, and the minimum is the standard stable estimate
     of what the code itself costs. Allocation counts are per-rep
     deterministic, so they come from the same (fastest) rep. *)
  let reps = if quick then 2 else 7 in
  let results =
    Su_util.Pool.map ~jobs (Array.length benches) (fun i ->
        let name, bench = benches.(i) in
        let best = ref None in
        for _ = 1 to reps do
          let run = bench () in
          Gc.full_major ();
          let s0 = Gc.quick_stat () in
          let t0 = Unix.gettimeofday () in
          let events = run () in
          let wall = Unix.gettimeofday () -. t0 in
          let s1 = Gc.quick_stat () in
          let eps = if wall > 0.0 then float_of_int events /. wall else 0.0 in
          let words_per_event =
            (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int events
          in
          let majors = s1.Gc.major_collections - s0.Gc.major_collections in
          match !best with
          | Some (_, _, best_wall, _, _, _) when best_wall <= wall -> ()
          | _ -> best := Some (name, events, wall, eps, words_per_event, majors)
        done;
        match !best with
        | Some r -> r
        | None -> (name, 0, 0.0, 0.0, 0.0, 0))
  in
  Array.iter
    (fun (name, events, wall, eps, wpe, majors) ->
      Printf.printf
        "%-30s n=%-6d %8.3fs wall %12.0f events/s %9.1f mwords/ev %3d majors\n%!"
        name events wall eps wpe majors)
    results;
  (match json_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Printf.fprintf oc "{\n  \"scale\": \"%s\",\n  \"requests\": %d,\n"
       (if quick then "quick" else "full")
       n;
     Printf.fprintf oc "  \"results\": [\n";
     Array.iteri
       (fun i (name, events, wall, eps, wpe, majors) ->
         Printf.fprintf oc
           "    {\"name\": %S, \"events\": %d, \"wall_s\": %.4f, \
            \"events_per_sec\": %.1f, \"minor_words_per_event\": %.1f, \
            \"major_collections\": %d}%s\n"
           name events wall eps wpe majors
           (if i = Array.length results - 1 then "" else ","))
       results;
     Printf.fprintf oc "  ]\n}\n";
     close_out oc;
     Printf.printf "# wrote %s\n" path);
  match min_driver_eps with
  | None -> ()
  | Some floor ->
    let failed = ref false in
    Array.iter
      (fun (name, _, _, eps, _, _) ->
        if
          String.length name >= 12
          && String.sub name 0 12 = "driver-burst"
          && eps < floor
        then begin
          failed := true;
          Printf.eprintf "FAIL: %s at %.0f events/s is below the %.0f floor\n"
            name eps floor
        end)
      results;
    if !failed then exit 1

(* --- crash-state materialization + sweep scaling ----------------------- *)

(* Two measurements per built-in workload, written to
   BENCH_crashsweep.json so the perf trajectory is tracked across PRs:

   1. materialization throughput: producing the durable image at every
      crash state (each write boundary + every torn prefix), comparing
      the pre-delta approach — a full [Array.map Types.copy_cell] deep
      copy per state — against the write-delta log, which seeks one
      reusable base image in O(cells touched) per step. This isolates
      exactly the cost the delta log removes.

   2. full-sweep wall clock: Explorer.sweep (fsck + repair + remount +
      continuation per state) at --jobs 1 and --jobs N, states/sec
      each, pinning the work pool's scaling. *)

module Explorer = Su_check.Explorer
module Delta = Su_check.Delta

let crashsweep_cfg =
  {
    (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
    Su_fs.Fs.geom = Su_fstypes.Geom.v ~mb:32 ~cg_mb:16 ~inodes_per_cg:1024 ();
    cache_mb = 4;
    journal_mb = 2;
  }

(* The pre-delta materialization: advance a private base incrementally,
   then take a full deep-copy snapshot per state (plus the torn-prefix
   overlay), exactly as the seed explorer did. *)
let materialize_deepcopy (r : Explorer.recording) states =
  let open Su_fstypes in
  let cur = Array.map Types.copy_cell r.Explorer.rec_initial in
  let pos = ref 0 in
  let live = ref 0 in
  Array.iter
    (fun (k, torn) ->
      while !pos < k do
        let d = r.Explorer.rec_deltas.(!pos) in
        Array.iteri
          (fun i c -> cur.(d.Delta.d_lbn + i) <- Types.copy_cell c)
          d.Delta.d_post;
        incr pos
      done;
      let img = Array.map Types.copy_cell cur in
      (match torn with
       | Some applied ->
         let d = r.Explorer.rec_deltas.(k) in
         for i = 0 to applied - 1 do
           img.(d.Delta.d_lbn + i) <- Types.copy_cell d.Delta.d_post.(i)
         done
       | None -> ());
      ignore (Sys.opaque_identity img);
      incr live)
    states;
  !live

(* The delta-log materialization: one reusable base, O(cells touched)
   per seek; torn prefixes are applied and immediately undone. *)
let materialize_delta (r : Explorer.recording) states =
  let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
  let base = Delta.image cur in
  let live = ref 0 in
  Array.iter
    (fun (k, torn) ->
      Delta.seek cur k;
      (match torn with
       | Some applied ->
         let d = (Delta.log cur).(k) in
         Array.blit d.Delta.d_post 0 base d.Delta.d_lbn applied;
         (* the state is live here; restore boundary [k] for the next seek *)
         Array.blit d.Delta.d_pre 0 base d.Delta.d_lbn applied
       | None -> ());
      ignore (Sys.opaque_identity base);
      incr live)
    states;
  !live

(* Repeat [f] over the state list until ~0.25s of wall clock has
   accumulated, so per-state times in the nanosecond range still
   measure cleanly. *)
let time_states f states =
  let t0 = Unix.gettimeofday () in
  let total = ref 0 in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.25 || !reps = 0 do
    total := !total + f states;
    incr reps
  done;
  let wall = Unix.gettimeofday () -. t0 in
  float_of_int !total /. wall

let run_crashsweep ~quick ~jobs ~json_path =
  let jobs_n = Su_util.Pool.resolve_jobs jobs in
  let max_boundaries = if quick then Some 30 else None in
  let results =
    List.map
      (fun wl ->
        let r = Explorer.record ~cfg:crashsweep_cfg wl in
        let states = Explorer.crash_states ?max_boundaries r in
        let deep_sps = time_states (materialize_deepcopy r) states in
        let delta_sps = time_states (materialize_delta r) states in
        let sweep_at jobs =
          let t0 = Unix.gettimeofday () in
          let s =
            Explorer.sweep_recording ~jobs ?max_boundaries ~cfg:crashsweep_cfg
              ~workload:wl.Explorer.wl_name r
          in
          let wall = Unix.gettimeofday () -. t0 in
          (s, wall, float_of_int s.Explorer.s_states /. wall)
        in
        let s1, wall1, sps1 = sweep_at 1 in
        let _sn, walln, spsn = sweep_at jobs_n in
        Printf.printf
          "%-12s states=%-5d materialize: deepcopy %10.0f/s  delta %12.0f/s \
           (%5.1fx)\n"
          wl.Explorer.wl_name (Array.length states) deep_sps delta_sps
          (delta_sps /. deep_sps);
        Printf.printf
          "%-12s sweep: jobs=1 %6.2fs (%5.1f states/s)   jobs=%d %6.2fs \
           (%5.1f states/s)\n%!"
          "" wall1 sps1 jobs_n walln spsn;
        (wl.Explorer.wl_name, s1, Array.length states, deep_sps, delta_sps,
         wall1, sps1, walln, spsn))
      Explorer.builtin_workloads
  in
  match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"scale\": \"%s\",\n  \"jobs\": %d,\n"
      (if quick then "quick" else "full")
      jobs_n;
    Printf.fprintf oc "  \"workloads\": [\n";
    List.iteri
      (fun i (name, s1, states, deep, delta, wall1, sps1, walln, spsn) ->
        Printf.fprintf oc
          "    {\"name\": %S, \"scheme\": %S, \"writes\": %d, \"states\": %d,\n\
          \     \"materialize\": {\"deepcopy_states_per_sec\": %.0f, \
           \"delta_states_per_sec\": %.0f, \"speedup\": %.1f},\n\
          \     \"sweep\": {\"jobs1_wall_s\": %.3f, \"jobs1_states_per_sec\": \
           %.1f, \"jobsN\": %d, \"jobsN_wall_s\": %.3f, \
           \"jobsN_states_per_sec\": %.1f}}%s\n"
          name
          (Su_fs.Fs.scheme_kind_name s1.Explorer.s_scheme)
          s1.Explorer.s_writes states deep delta (delta /. deep) wall1 sps1
          jobs_n walln spsn
          (if i = List.length results - 1 then "" else ","))
      results;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "# wrote %s\n" path

(* --- loadgen steady state + directory-scale hot paths ------------------ *)

(* Four measured claims, written to BENCH_loadgen.json by --json:

   - loadgen-steady: the open-loop multi-tenant engine at a scale
     whose steady-state loop must complete with ZERO major collections
     (pooled per-client scratch as a measured number, the same way
     --hotpaths pins words/event). Ops/sec is host throughput of the
     whole engine, simulated clients included.

   - loadgen-steady-1x vs loadgen-steady-2x: fixed-shape load with
     the steady window doubled. The gate: words/op at 2x must stay
     within 1.15x of 1x — host cost per operation must not grow with
     simulated time (e.g. with the pending dependency backlog).

   - dirscale-100 vs dirscale-10k: a fixed count of lookups plus
     create/unlink churn against one directory pre-filled with 100 vs
     10_000 entries, directory index on. The gate: the 10k rate must
     be within 2x of the 100-entry rate — per-op cost no longer scales
     with directory size. dirscale-10k-scan (index off, fewer ops) is
     printed for contrast and not gated. *)

let bench_dirscale ~index ~files nops () =
  let cfg =
    { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
      Su_fs.Fs.dir_index = index
    }
  in
  let w = Su_fs.Fs.make cfg in
  let st = w.Su_fs.Fs.st in
  let result = ref (0.0, 0.0, 0) in
  let controller () =
    Su_fs.Fsops.mkdir st "/big";
    let names = Array.init files (fun k -> Printf.sprintf "/big/f%06d" k) in
    Array.iter (fun n -> ignore (Su_fs.Fsops.create st n)) names;
    Su_fs.Fsops.sync st;
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to nops - 1 do
      match i land 3 with
      | 0 | 1 -> ignore (Su_fs.Fsops.stat st names.(i * 7919 mod files))
      | 2 -> ignore (Su_fs.Fsops.create st "/big/xchurn")
      | _ -> Su_fs.Fsops.unlink st "/big/xchurn"
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let s1 = Gc.quick_stat () in
    result :=
      ( wall,
        (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int nops,
        s1.Gc.major_collections - s0.Gc.major_collections );
    Su_fs.Fs.stop w;
    Su_driver.Driver.quiesce w.Su_fs.Fs.driver;
    Su_sim.Engine.stop w.Su_fs.Fs.engine
  in
  ignore (Su_sim.Proc.spawn w.Su_fs.Fs.engine ~name:"dirscale" controller);
  Su_sim.Engine.run w.Su_fs.Fs.engine;
  let wall, wpo, majors = !result in
  (nops, wall, wpo, majors)

let run_loadgen_cfg ~checksums cfg =
  let cfg =
    { cfg with
      Su_workload.Loadgen.fs_cfg =
        { cfg.Su_workload.Loadgen.fs_cfg with Su_fs.Fs.checksums }
    }
  in
  let r = Su_workload.Loadgen.run cfg in
  let ops = r.Su_workload.Loadgen.executed in
  ( ops,
    r.Su_workload.Loadgen.host_wall_s,
    r.Su_workload.Loadgen.minor_words /. float_of_int (max 1 ops),
    r.Su_workload.Loadgen.major_collections )

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

let bench_loadgen_steady ?(checksums = false) ~quick () =
  run_loadgen_cfg ~checksums
    (loadgen_steady_cfg
       ~clients:(if quick then 80 else 200)
       ~duration:(if quick then 10.0 else 16.0)
       ~warmup:(if quick then 2.0 else 4.0)
       Su_workload.Loadgen.Rampup)

(* Fixed-shape Poisson load with the 12 s steady window scaled by
   [scale]; the same size under --quick, so the 1x/2x words-per-op
   ratio is comparable in CI. *)
let bench_loadgen_window ~scale () =
  run_loadgen_cfg ~checksums:false
    (loadgen_steady_cfg ~clients:200
       ~duration:(4.0 +. (12.0 *. float_of_int scale))
       ~warmup:4.0 Su_workload.Loadgen.Fixed)

let run_loadgen ~quick ~json_path =
  let reps = if quick then 2 else 3 in
  let nops = if quick then 800 else 4000 in
  let benches =
    [ ("loadgen-steady", fun () -> bench_loadgen_steady ~quick ());
      ("loadgen-steady-1x", bench_loadgen_window ~scale:1);
      ("loadgen-steady-2x", bench_loadgen_window ~scale:2);
      ("dirscale-100", bench_dirscale ~index:true ~files:100 nops);
      ("dirscale-10k", bench_dirscale ~index:true ~files:10_000 nops);
      ("dirscale-10k-scan", bench_dirscale ~index:false ~files:10_000 (nops / 8))
    ]
  in
  (* best-of-[reps] per bench, as in --hotpaths: wall times of seconds
     are noisy, the minimum is the stable estimate; GC counts come
     from the same (fastest) rep. *)
  let results =
    List.map
      (fun (name, bench) ->
        let best = ref None in
        for _ = 1 to reps do
          let ops, wall, wpo, majors = bench () in
          let eps = if wall > 0.0 then float_of_int ops /. wall else 0.0 in
          match !best with
          | Some (_, _, best_wall, _, _, _) when best_wall <= wall -> ()
          | _ -> best := Some (name, ops, wall, eps, wpo, majors)
        done;
        match !best with
        | Some r -> r
        | None -> (name, 0, 0.0, 0.0, 0.0, 0))
      benches
  in
  List.iter
    (fun (name, ops, wall, eps, wpo, majors) ->
      Printf.printf
        "%-30s n=%-6d %8.3fs wall %12.0f ops/s %9.1f mwords/op %3d majors\n%!"
        name ops wall eps wpo majors)
    results;
  let result_of n = List.find (fun (name, _, _, _, _, _) -> name = n) results in
  let eps_of n =
    let (_, _, _, eps, _, _) = result_of n in
    eps
  in
  let ratio = eps_of "dirscale-10k" /. eps_of "dirscale-100" in
  Printf.printf "# dirscale-10k / dirscale-100 ops/s ratio %.2f (gate >= 0.5)\n"
    ratio;
  let wpo_of n =
    let (_, _, _, _, wpo, _) = result_of n in
    wpo
  in
  let window_growth = wpo_of "loadgen-steady-2x" /. wpo_of "loadgen-steady-1x" in
  Printf.printf
    "# loadgen-steady-2x / loadgen-steady-1x words/op ratio %.2f (gate <= 1.15)\n"
    window_growth;
  (match json_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Printf.fprintf oc "{\n  \"scale\": \"%s\",\n"
       (if quick then "quick" else "full");
     Printf.fprintf oc "  \"results\": [\n";
     List.iteri
       (fun i (name, ops, wall, eps, wpo, majors) ->
         Printf.fprintf oc
           "    {\"name\": %S, \"ops\": %d, \"wall_s\": %.4f, \
            \"ops_per_sec\": %.1f, \"minor_words_per_op\": %.1f, \
            \"major_collections\": %d}%s\n"
           name ops wall eps wpo majors
           (if i = List.length results - 1 then "" else ","))
       results;
     Printf.fprintf oc
       "  ],\n  \"dirscale_ratio_10k_vs_100\": %.3f,\n  \
        \"steady_window_words_ratio_2x_vs_1x\": %.3f\n}\n"
       ratio window_growth;
     close_out oc;
     Printf.printf "# wrote %s\n" path);
  let failed = ref false in
  let (_, _, _, _, _, steady_majors) = result_of "loadgen-steady" in
  if steady_majors <> 0 then begin
    failed := true;
    Printf.eprintf
      "FAIL: loadgen-steady ran %d major collections (want 0: the steady \
       loop must not allocate long-lived garbage)\n"
      steady_majors
  end;
  if ratio < 0.5 then begin
    failed := true;
    Printf.eprintf
      "FAIL: dirscale-10k at %.2fx of dirscale-100 is outside the 2x gate\n"
      ratio
  end;
  if window_growth > 1.15 then begin
    failed := true;
    Printf.eprintf
      "FAIL: doubling the steady window raised words/op %.2fx (gate <= \
       1.15: per-op host cost must not grow with simulated time)\n"
      window_growth
  end;
  if !failed then exit 1

(* --- checksum overhead ------------------------------------------------- *)

(* What turning `checksums` on costs on the two loops the perf story
   rests on, written to BENCH_corrupt.json: the driver write burst
   (every acknowledged write now folds its payload into the digest
   region) and the loadgen steady loop (whole-engine ops/sec with a
   checksummed world under every shard). Two gates, exit 1 on either:
   the checksummed steady loop must still run zero major collections —
   digest upkeep is in-place int stores, not allocation — and the
   checksummed burst must stay within 2x of the plain one. *)

let run_corrupt ~quick ~json_path =
  let n = hotpath_scale quick in
  let reps = if quick then 2 else 5 in
  (* staged benches bracket the timed run here (as in --hotpaths);
     loadgen reports its own steady-window measurements *)
  let measure_staged bench =
    let run = bench () in
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let events = run () in
    let wall = Unix.gettimeofday () -. t0 in
    let s1 = Gc.quick_stat () in
    ( events,
      wall,
      (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int events,
      s1.Gc.major_collections - s0.Gc.major_collections )
  in
  let benches =
    [ ( "driver-burst-plain",
        fun () ->
          measure_staged
            (bench_driver_burst ~mode:Su_driver.Ordering.Unordered n) );
      ( "driver-burst-csum",
        fun () ->
          measure_staged
            (bench_driver_burst ~mode:Su_driver.Ordering.Unordered
               ~checksums:true n) );
      ("loadgen-steady-plain", fun () -> bench_loadgen_steady ~quick ());
      ( "loadgen-steady-csum",
        fun () -> bench_loadgen_steady ~checksums:true ~quick () )
    ]
  in
  let results =
    List.map
      (fun (name, bench) ->
        let best = ref None in
        for _ = 1 to reps do
          let ops, wall, wpo, majors = bench () in
          let eps = if wall > 0.0 then float_of_int ops /. wall else 0.0 in
          match !best with
          | Some (_, _, best_wall, _, _, _) when best_wall <= wall -> ()
          | _ -> best := Some (name, ops, wall, eps, wpo, majors)
        done;
        match !best with
        | Some r -> r
        | None -> (name, 0, 0.0, 0.0, 0.0, 0))
      benches
  in
  List.iter
    (fun (name, ops, wall, eps, wpo, majors) ->
      Printf.printf
        "%-30s n=%-6d %8.3fs wall %12.0f ops/s %9.1f mwords/op %3d majors\n%!"
        name ops wall eps wpo majors)
    results;
  let result_of n = List.find (fun (name, _, _, _, _, _) -> name = n) results in
  let eps_of n =
    let (_, _, _, eps, _, _) = result_of n in
    eps
  in
  let overhead plain csum =
    let p = eps_of plain and c = eps_of csum in
    if c > 0.0 then (p /. c -. 1.0) *. 100.0 else infinity
  in
  let burst_pct = overhead "driver-burst-plain" "driver-burst-csum" in
  let steady_pct = overhead "loadgen-steady-plain" "loadgen-steady-csum" in
  Printf.printf "# checksum overhead: driver burst %+.1f%%, steady loop %+.1f%%\n"
    burst_pct steady_pct;
  (match json_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Printf.fprintf oc "{\n  \"scale\": \"%s\",\n"
       (if quick then "quick" else "full");
     Printf.fprintf oc "  \"results\": [\n";
     List.iteri
       (fun i (name, ops, wall, eps, wpo, majors) ->
         Printf.fprintf oc
           "    {\"name\": %S, \"ops\": %d, \"wall_s\": %.4f, \
            \"ops_per_sec\": %.1f, \"minor_words_per_op\": %.1f, \
            \"major_collections\": %d}%s\n"
           name ops wall eps wpo majors
           (if i = List.length results - 1 then "" else ","))
       results;
     Printf.fprintf oc
       "  ],\n\
       \  \"driver_burst_overhead_pct\": %.1f,\n\
       \  \"loadgen_steady_overhead_pct\": %.1f\n\
        }\n"
       burst_pct steady_pct;
     close_out oc;
     Printf.printf "# wrote %s\n" path);
  let failed = ref false in
  let (_, _, _, _, _, csum_majors) =
    List.find
      (fun (name, _, _, _, _, _) -> name = "loadgen-steady-csum")
      results
  in
  if csum_majors <> 0 then begin
    failed := true;
    Printf.eprintf
      "FAIL: checksummed loadgen-steady ran %d major collections (want 0: \
       digest upkeep must stay allocation-free)\n"
      csum_majors
  end;
  if eps_of "driver-burst-csum" < 0.5 *. eps_of "driver-burst-plain" then begin
    failed := true;
    Printf.eprintf
      "FAIL: checksummed driver burst at %+.1f%% overhead is outside the 2x \
       gate\n"
      burst_pct
  end;
  if !failed then exit 1

(* --- compact volume ----------------------------------------------------- *)

(* The claims behind the slab-backed image ({!Su_fstypes.Volume}),
   written to BENCH_volume.json:

   - volume-mkfs: formatting a paper-disk-scale volume (full: 8 GB /
     512 cylinder groups / 1,048,576 inodes on a widened HP C2447;
     quick: 1 GB / 131,072 inodes on the stock drive). Reported: wall
     seconds and minor words per inode. The gate asserts formatting
     allocates O(blocks), not O(inodes): fresh inode blocks share one
     canonical free dinode and encode straight into slabs, so mkfs
     must stay under 64 minor words per inode (one boxed dinode record
     alone costs ~22 words before its block array lands).

   - volume-resident: live major-heap bytes per inode with the
     formatted volume fully resident (measured across Fs.make between
     two full majors), next to the volume's own slab accounting
     (Disk.image_stats). Gate: <= 192 resident bytes per inode — the
     bound that makes a million-inode volume a ~100-200 MB object
     instead of an unbounded record graph.

   - loadgen-bigvol: the multi-tenant load engine running on that
     volume (full: 120,000 clients; quick: 5,000), same steady-window
     report as --loadgen. Gate: steady ops executed > 0. Majors and
     words/op are reported, not gated: past the cache's capacity every
     fill decodes fresh records (exactly the copy_cell cost the boxed
     image paid), so eviction churn allocates proportionally to miss
     traffic at any client count. *)

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

let run_volume ~quick ~json_path =
  let geom, params = volume_geometry ~quick in
  let inodes = Su_fstypes.Geom.total_inodes geom in
  let fs_cfg =
    { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
      Su_fs.Fs.geom;
      disk_params = params;
      dir_index = true
    }
  in
  (* mkfs + residency: one build, minor words and wall bracketed
     around it, live heap compared between full majors on each side.
     mkfs leaves untouched inode blocks Empty (they materialize on
     first allocation), so the bracket also installs the entire inode
     area — the resident figure is the worst case, every inode block
     encoded, not the sparse freshly-formatted image. *)
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
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
  let mkfs_wall = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let mkfs_wpi =
    (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int inodes
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let bytes_per_inode =
    float_of_int ((live1 - live0) * 8) /. float_of_int inodes
  in
  let st = Su_disk.Disk.image_stats disk in
  let slab_bpi =
    float_of_int st.Su_fstypes.Volume.slab_bytes /. float_of_int inodes
  in
  Printf.printf
    "%-30s inodes=%-8d %8.3fs wall %9.1f mwords/inode\n%!"
    "volume-mkfs" inodes mkfs_wall mkfs_wpi;
  Printf.printf
    "%-30s %9.1f bytes/inode resident (%.1f slab) %6d ino-slabs %6d boxed\n%!"
    "volume-resident" bytes_per_inode slab_bpi
    st.Su_fstypes.Volume.inode_slabs st.Su_fstypes.Volume.boxed;
  Su_fs.Fs.stop w;
  (* the load engine on the big volume *)
  let base = Su_workload.Loadgen.config ~scheme:Su_fs.Fs.Soft_updates () in
  let clients = if quick then 5_000 else 120_000 in
  let lg_cfg =
    { base with
      Su_workload.Loadgen.fs_cfg;
      clients;
      rate = (if quick then 0.2 else 0.02);
      duration = (if quick then 6.0 else 10.0);
      warmup = 2.0;
      files_per_client = 1
    }
  in
  let r = Su_workload.Loadgen.run lg_cfg in
  let ops = r.Su_workload.Loadgen.executed in
  let lg_wall = r.Su_workload.Loadgen.host_wall_s in
  let lg_eps = if lg_wall > 0.0 then float_of_int ops /. lg_wall else 0.0 in
  let lg_wpo =
    r.Su_workload.Loadgen.minor_words /. float_of_int (max 1 ops)
  in
  let lg_majors = r.Su_workload.Loadgen.major_collections in
  Printf.printf
    "%-30s n=%-6d %8.3fs wall %12.0f ops/s %9.1f mwords/op %3d majors \
     (%d clients)\n%!"
    "loadgen-bigvol" ops lg_wall lg_eps lg_wpo lg_majors clients;
  (match json_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Printf.fprintf oc "{\n  \"scale\": \"%s\",\n"
       (if quick then "quick" else "full");
     Printf.fprintf oc
       "  \"mkfs\": {\"inodes\": %d, \"wall_s\": %.4f, \
        \"minor_words_per_inode\": %.2f},\n"
       inodes mkfs_wall mkfs_wpi;
     Printf.fprintf oc
       "  \"resident\": {\"bytes_per_inode\": %.1f, \
        \"slab_bytes_per_inode\": %.1f, \"inode_slabs\": %d, \
        \"dir_slabs\": %d, \"indirect_slabs\": %d, \"boxed\": %d},\n"
       bytes_per_inode slab_bpi st.Su_fstypes.Volume.inode_slabs
       st.Su_fstypes.Volume.dir_slabs st.Su_fstypes.Volume.indirect_slabs
       st.Su_fstypes.Volume.boxed;
     Printf.fprintf oc
       "  \"loadgen\": {\"clients\": %d, \"ops\": %d, \"wall_s\": %.4f, \
        \"ops_per_sec\": %.1f, \"minor_words_per_op\": %.1f, \
        \"major_collections\": %d}\n}\n"
       clients ops lg_wall lg_eps lg_wpo lg_majors;
     close_out oc;
     Printf.printf "# wrote %s\n" path);
  let failed = ref false in
  if mkfs_wpi > 64.0 then begin
    failed := true;
    Printf.eprintf
      "FAIL: mkfs allocated %.1f minor words per inode (want <= 64: \
       formatting must be O(blocks), not O(inodes))\n"
      mkfs_wpi
  end;
  if bytes_per_inode > 192.0 then begin
    failed := true;
    Printf.eprintf
      "FAIL: resident volume costs %.1f bytes per inode (want <= 192)\n"
      bytes_per_inode
  end;
  if ops <= 0 then begin
    failed := true;
    Printf.eprintf "FAIL: loadgen-bigvol executed no steady operations\n"
  end;
  if !failed then exit 1

(* --- main --------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let micro_only = List.mem "--micro" args in
  if List.mem "--help" args || List.mem "-h" args then begin
    usage ();
    exit 0
  end;
  if List.mem "--list" args then begin
    List.iter print_endline available;
    exit 0
  end;
  let rec json_of = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> json_of rest
    | [] -> None
  in
  let rec jobs_of = function
    | "--jobs" :: n :: _ ->
      (match int_of_string_opt n with
       | Some j when j >= 0 -> j
       | Some _ | None ->
         Printf.eprintf "bad --jobs value %S (want an int >= 0)\n" n;
         exit 2)
    | _ :: rest -> jobs_of rest
    | [] -> 1
  in
  let jobs = jobs_of args in
  let rec min_eps_of = function
    | "--min-driver-eps" :: n :: _ ->
      (match float_of_string_opt n with
       | Some f when f > 0.0 -> Some f
       | Some _ | None ->
         Printf.eprintf "bad --min-driver-eps value %S (want a number > 0)\n" n;
         exit 2)
    | _ :: rest -> min_eps_of rest
    | [] -> None
  in
  let min_driver_eps = min_eps_of args in
  let rec assert_shapes_of = function
    | "--assert-shapes" :: path :: _ -> Some path
    | _ :: rest -> assert_shapes_of rest
    | [] -> None
  in
  (match assert_shapes_of args with
   | None -> ()
   | Some path ->
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
       match Su_obs.Json.parse s with
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
     exit (if nfail = 0 then 0 else 1));
  if micro_only then begin
    micro ();
    exit 0
  end;
  if List.mem "--hotpaths" args then begin
    run_hotpaths ~quick ~jobs ~json_path:(json_of args) ~min_driver_eps;
    exit 0
  end;
  if List.mem "--crashsweep" args then begin
    run_crashsweep ~quick ~jobs ~json_path:(json_of args);
    exit 0
  end;
  if List.mem "--loadgen" args then begin
    run_loadgen ~quick ~json_path:(json_of args);
    exit 0
  end;
  if List.mem "--volume" args then begin
    run_volume ~quick ~json_path:(json_of args);
    exit 0
  end;
  if List.mem "--corrupt" args then begin
    run_corrupt ~quick ~json_path:(json_of args);
    exit 0
  end;
  let selected =
    let rec drop_opts = function
      | [] -> []
      | ("--jobs" | "--json" | "--assert-shapes" | "--min-driver-eps")
        :: _ :: rest ->
        drop_opts rest
      | a :: rest ->
        if String.length a > 1 && a.[0] = '-' then drop_opts rest
        else a :: drop_opts rest
    in
    drop_opts args
  in
  (* Fail fast and non-zero on unknown ids, before any experiment
     burns wall clock (scripted runs used to get a stderr line and a
     zero exit). *)
  List.iter
    (fun id ->
      if not (List.mem id available) then begin
        Printf.eprintf "unknown experiment %S (try --list)\n" id;
        exit 2
      end)
    selected;
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
        match List.assoc_opt id (Su_experiments.Experiments.all scale) with
        | None -> (id, None)
        | Some thunk ->
          let t0 = Unix.gettimeofday () in
          let tables = thunk () in
          let buf = Buffer.create 4096 in
          List.iter
            (fun t -> Buffer.add_string buf (Su_util.Text_table.render t))
            tables;
          (id, Some (Buffer.contents buf, tables, Unix.gettimeofday () -. t0)))
  in
  Array.iter
    (fun (id, outcome) ->
      match outcome with
      | None -> Printf.eprintf "unknown experiment %S (try --list)\n" id
      | Some (text, _, wall) ->
        print_string text;
        Printf.printf "[%s took %.1fs wall]\n\n%!" id wall)
    rendered;
  (match json_of args with
   | None -> ()
   | Some path ->
     let entries =
       Array.to_list rendered
       |> List.filter_map (fun (id, outcome) ->
              Option.map (fun (_, tables, wall) -> (id, wall, tables)) outcome)
     in
     let doc =
       Su_experiments.Shapes.experiments_json
         ~scale:(if quick then "quick" else "full")
         entries
     in
     (try
        let oc = open_out path in
        output_string oc (Su_obs.Json.to_string_pretty doc);
        output_char oc '\n';
        close_out oc;
        Printf.printf "# wrote %s\n" path
      with Sys_error e ->
        Printf.eprintf "cannot write %s: %s\n" path e;
        exit 2));
  Printf.printf "# total wall time: %.1fs\n" (Unix.gettimeofday () -. t_start)
