(* Workload generators and the measurement harness. *)
open Su_fs
open Su_workload

let small_cfg scheme =
  { (Fs.config ~scheme ()) with Fs.geom = Su_fstypes.Geom.small; cache_mb = 8 }

let test_tree_spec_profile () =
  let nodes = Tree.spec () in
  Alcotest.(check int) "535 files" 535 (Tree.count_files nodes);
  let total = Tree.total_bytes nodes in
  (* scaled to ~14.3 MB (rounding slack allowed) *)
  Alcotest.(check bool) "about 14.3 MB" true
    (abs (total - 14_300_000) < 200_000);
  Alcotest.(check bool) "has directories" true (Tree.count_dirs nodes > 5)

let test_tree_spec_deterministic () =
  let a = Tree.spec ~seed:5 () and b = Tree.spec ~seed:5 () in
  Alcotest.(check bool) "same spec" true (a = b);
  let c = Tree.spec ~seed:6 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_populate_and_copy () =
  let w = Fs.make (small_cfg Fs.No_order) in
  let result = ref None in
  ignore
    (Su_sim.Proc.spawn w.Fs.engine (fun () ->
         let st = w.Fs.st in
         let nodes = Tree.spec ~files:40 ~total_bytes:400_000 () in
         Fsops.mkdir st "/src";
         Tree.populate st ~base:"/src" nodes;
         Fsops.mkdir st "/dst";
         Tree.copy st ~src:"/src" ~dst:"/dst";
         (* both trees hold the same file count and bytes *)
         let count base =
           let rec go path acc =
             List.fold_left
               (fun acc name ->
                 if name = "." || name = ".." then acc
                 else
                   let p = path ^ "/" ^ name in
                   let s = Fsops.stat st p in
                   match s.Fsops.st_ftype with
                   | Su_fstypes.Types.F_dir -> go p acc
                   | _ -> (fst acc + 1, snd acc + s.Fsops.st_size))
               acc (Fsops.readdir st path)
           in
           go base (0, 0)
         in
         let fs, bs = count "/src" and fd, bd = count "/dst" in
         result := Some (fs, bs, fd, bd);
         Fs.stop w));
  Su_sim.Engine.run w.Fs.engine;
  match !result with
  | Some (fs, bs, fd, bd) ->
    Alcotest.(check int) "file count copied" fs fd;
    Alcotest.(check int) "bytes copied" bs bd;
    Alcotest.(check int) "40 files" 40 fs
  | None -> Alcotest.fail "did not finish"

let test_tree_remove_cleans () =
  let w = Fs.make (small_cfg Fs.No_order) in
  ignore
    (Su_sim.Proc.spawn w.Fs.engine (fun () ->
         let st = w.Fs.st in
         let free0 = Alloc.free_frags_total st in
         let nodes = Tree.spec ~files:30 ~total_bytes:300_000 () in
         Fsops.mkdir st "/t";
         Tree.populate st ~base:"/t" nodes;
         Tree.remove st "/t";
         Fsops.sync st;
         Alcotest.(check bool) "gone" false (Fsops.exists st "/t");
         Alcotest.(check int) "space restored" free0 (Alloc.free_frags_total st);
         Fs.stop w));
  Su_sim.Engine.run w.Fs.engine

let test_runner_measures () =
  let cfg = small_cfg Fs.Soft_updates in
  let m =
    Runner.run ~cfg ~users:2
      ~setup:(fun st ->
        Fsops.mkdir st "/u0";
        Fsops.mkdir st "/u1")
      (fun i st ->
        for k = 1 to 10 do
          let p = Printf.sprintf "/u%d/f%d" i k in
          Fsops.create st p;
          Fsops.append st p ~bytes:2048
        done)
  in
  Alcotest.(check int) "users" 2 m.Runner.users;
  Alcotest.(check bool) "elapsed positive" true (m.Runner.elapsed_avg > 0.0);
  Alcotest.(check bool) "max >= avg" true
    (m.Runner.elapsed_max >= m.Runner.elapsed_avg);
  Alcotest.(check bool) "cpu charged" true (m.Runner.cpu_total > 0.0);
  Alcotest.(check bool) "softdep stats present" true (m.Runner.softdep <> None)

let test_runner_cold_start () =
  (* a setup means a cold start: the measured phase must read metadata
     back from the disk *)
  let cfg = small_cfg Fs.No_order in
  let m =
    Runner.run ~cfg ~users:1
      ~setup:(fun st ->
        Fsops.mkdir st "/d";
        for i = 1 to 20 do
          let p = Printf.sprintf "/d/f%d" i in
          Fsops.create st p;
          Fsops.append st p ~bytes:4096
        done)
      (fun _ st -> ignore (Fsops.read_file st "/d/f7"))
  in
  Alcotest.(check bool) "reads hit the disk" true (m.Runner.disk_reads > 0)

let test_runner_repeat_averages () =
  let calls = ref 0 in
  let mk u =
    {
      Runner.users = 1;
      elapsed_avg = float_of_int u;
      elapsed_max = float_of_int u;
      cpu_total = 1.0;
      disk_requests = 10 * u;
      disk_reads = 0;
      disk_writes = 0;
      avg_response_ms = 0.0;
      avg_access_ms = 0.0;
      sync_response_ms = 0.0;
      response_p50_ms = 0.0;
      response_p90_ms = 0.0;
      response_p99_ms = 0.0;
      response_max_ms = 0.0;
      counters = [ ("cache.hits", float_of_int (10 * u)) ];
      softdep = None;
    }
  in
  let m =
    Runner.repeat ~reps:3 (fun rep ->
        incr calls;
        mk (rep + 1))
  in
  Alcotest.(check int) "three runs" 3 !calls;
  Alcotest.(check (float 1e-9)) "elapsed averaged" 2.0 m.Runner.elapsed_avg;
  Alcotest.(check int) "requests averaged" 20 m.Runner.disk_requests

let test_benchmarks_smoke () =
  (* tiny instances of each throughput benchmark, one scheme *)
  let cfg = small_cfg Fs.Soft_updates in
  let total_files = 60 in
  let m1 = Benchmarks.create_files ~cfg ~users:2 ~total_files in
  Alcotest.(check bool) "create throughput" true
    (Benchmarks.files_per_second ~total_files m1 > 0.0);
  let m2 = Benchmarks.remove_files ~cfg ~users:2 ~total_files in
  Alcotest.(check bool) "remove throughput" true
    (Benchmarks.files_per_second ~total_files m2 > 0.0);
  let m3 = Benchmarks.create_remove_files ~cfg ~users:2 ~total_files in
  Alcotest.(check bool) "create/remove throughput" true
    (Benchmarks.files_per_second ~total_files m3 > 0.0);
  (* create/remove with soft updates stays near memory speed: barely
     any disk traffic per file *)
  Alcotest.(check bool) "create/remove is almost I/O free" true
    (m3.Runner.disk_requests < total_files)

let test_andrew_phases () =
  let cfg = small_cfg Fs.Soft_updates in
  let s = Andrew.run ~cfg ~reps:2 in
  Alcotest.(check int) "five phases" 5 (Array.length s.Andrew.mean.Andrew.phases);
  Array.iter
    (fun p -> Alcotest.(check bool) "phase positive" true (p > 0.0))
    s.Andrew.mean.Andrew.phases;
  (* the compile phase dominates, as in the paper *)
  let compile = s.Andrew.mean.Andrew.phases.(4) in
  Alcotest.(check bool) "compile dominates" true
    (compile > 0.8 *. s.Andrew.mean.Andrew.total /. 1.2);
  Alcotest.(check bool) "total is the sum" true
    (Float.abs
       (Array.fold_left ( +. ) 0.0 s.Andrew.mean.Andrew.phases
       -. s.Andrew.mean.Andrew.total)
     < 1e-6)

let test_sdet_runs () =
  let cfg = small_cfg Fs.Soft_updates in
  let r = Sdet.run ~cfg ~concurrency:2 ~commands:20 () in
  Alcotest.(check bool) "throughput positive" true (r.Sdet.scripts_per_hour > 0.0)

let test_sdet_deterministic () =
  let cfg = small_cfg Fs.Soft_updates in
  let a = Sdet.run ~cfg ~concurrency:2 ~commands:15 () in
  let b = Sdet.run ~cfg ~concurrency:2 ~commands:15 () in
  Alcotest.(check (float 1e-9)) "same seed, same result" a.Sdet.scripts_per_hour
    b.Sdet.scripts_per_hour

let suite =
  [
    Alcotest.test_case "tree spec profile" `Quick test_tree_spec_profile;
    Alcotest.test_case "tree spec deterministic" `Quick
      test_tree_spec_deterministic;
    Alcotest.test_case "populate and copy" `Quick test_populate_and_copy;
    Alcotest.test_case "tree remove cleans" `Quick test_tree_remove_cleans;
    Alcotest.test_case "runner measures" `Quick test_runner_measures;
    Alcotest.test_case "runner cold start" `Quick test_runner_cold_start;
    Alcotest.test_case "runner repeat averages" `Quick
      test_runner_repeat_averages;
    Alcotest.test_case "benchmarks smoke" `Quick test_benchmarks_smoke;
    Alcotest.test_case "andrew phases" `Quick test_andrew_phases;
    Alcotest.test_case "sdet runs" `Quick test_sdet_runs;
    Alcotest.test_case "sdet deterministic" `Quick test_sdet_deterministic;
  ]
