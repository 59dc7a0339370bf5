open Su_sim
open Su_fs

type measures = {
  users : int;
  elapsed_avg : float;
  elapsed_max : float;
  cpu_total : float;
  disk_requests : int;
  disk_reads : int;
  disk_writes : int;
  avg_response_ms : float;
  avg_access_ms : float;
  sync_response_ms : float;
  response_p50_ms : float;
  response_p90_ms : float;
  response_p99_ms : float;
  response_max_ms : float;
  counters : (string * float) list;
  softdep : Su_core.Softdep.stats option;
}

(* Cross-layer counters, one flat name space so table/JSON emitters
   and [repeat] averaging need no per-layer knowledge. *)
let counters_of (w : Fs.world) =
  let tr = Su_driver.Driver.trace w.Fs.driver in
  let qd = Su_driver.Trace.qdepth_hist tr in
  let cache = w.Fs.cache in
  let disk = w.Fs.disk in
  let syn = w.Fs.syncer in
  let f = float_of_int in
  let base =
    [
      ("cache.hits", f (Su_cache.Bcache.hits cache));
      ("cache.misses", f (Su_cache.Bcache.misses cache));
      ("cache.evictions", f (Su_cache.Bcache.evictions cache));
      ("cache.dirty_final", f (Su_cache.Bcache.dirty_count cache));
      ("syncer.passes", f (Su_cache.Syncer.passes_run syn));
      ("syncer.writes", f (Su_cache.Syncer.writes_issued syn));
      ("syncer.workitems", f (Su_cache.Syncer.workitems_run syn));
      ("syncer.batch_mean", Su_obs.Hist.mean (Su_cache.Syncer.batch_hist syn));
      ("syncer.batch_max",
       Su_obs.Hist.max_value (Su_cache.Syncer.batch_hist syn));
      ("syncer.dirty_mean",
       Su_obs.Hist.mean (Su_cache.Syncer.residency_hist syn));
      ("syncer.dirty_max",
       Su_obs.Hist.max_value (Su_cache.Syncer.residency_hist syn));
      ("io.retries", f (Su_driver.Trace.io_retries tr));
      ("io.failures", f (Su_driver.Trace.io_failures tr));
      ("io.qdepth_mean", Su_obs.Hist.mean qd);
      ("io.qdepth_p90", Su_obs.Hist.percentile qd 90.0);
      ("io.qdepth_max", Su_obs.Hist.max_value qd);
      ("disk.serviced", f (Su_disk.Disk.requests_serviced disk));
      ("disk.destages", f (Su_disk.Disk.destages disk));
      ("disk.busy_s", Su_disk.Disk.total_service_time disk);
      ("disk.seek_s", Su_disk.Disk.seek_time_total disk);
      ("disk.rot_wait_s", Su_disk.Disk.rot_wait_time_total disk);
      ("disk.transfer_s", Su_disk.Disk.transfer_time_total disk);
      ("disk.overhead_s", Su_disk.Disk.overhead_time_total disk);
    ]
  in
  let softdep =
    match w.Fs.st.State.softdep_stats with
    | None -> []
    | Some s ->
      [
        ("softdep.created", f s.Su_core.Softdep.created);
        ("softdep.rollbacks", f s.Su_core.Softdep.rollbacks);
        ("softdep.cancelled_adds", f s.Su_core.Softdep.cancelled_adds);
        ("softdep.workitems", f s.Su_core.Softdep.workitems);
        ("softdep.peak_live_deps", f s.Su_core.Softdep.peak_live_deps);
        ("softdep.dep_lifetime_mean_s",
         Su_obs.Hist.mean s.Su_core.Softdep.dep_lifetimes);
        ("softdep.dep_lifetime_p90_s",
         Su_obs.Hist.percentile s.Su_core.Softdep.dep_lifetimes 90.0);
        ("softdep.dep_lifetime_max_s",
         Su_obs.Hist.max_value s.Su_core.Softdep.dep_lifetimes);
      ]
  in
  let journal =
    match w.Fs.st.State.journal_stats with
    | None -> []
    | Some s ->
      [
        ("journal.txns", f s.Su_core.Journaled.txns);
        ("journal.records", f s.Su_core.Journaled.records);
        ("journal.log_writes", f s.Su_core.Journaled.log_writes);
        ("journal.wraps", f s.Su_core.Journaled.wraps);
      ]
  in
  (* fault-tolerance residue: always present (zero on a perfect
     device) so dashboards can assert on the names unconditionally *)
  let health = w.Fs.st.State.health in
  let fault =
    [
      ("fault.injected", f (Su_disk.Disk.faults_injected disk));
      ("fault.silent", f (Su_disk.Disk.silent_faults disk));
      ("fault.remaps", f (Su_disk.Disk.remaps disk));
      ("fault.spares_total", f (Su_disk.Disk.spares_total disk));
      ("fault.spares_left", f (Su_disk.Disk.spares_left disk));
      ("fault.io_remaps", f (Su_driver.Trace.io_remaps tr));
      ("fault.health_io_errors", f (Su_fs.Health.io_errors health));
      ("fault.health_lost", f (Su_fs.Health.lost health));
      ("fault.health_sb_restored", f (Su_fs.Health.sb_restored health));
      ( "fault.health_level",
        f
          (match Su_fs.Health.level health with
           | Su_fs.Health.Healthy -> 0
           | Su_fs.Health.Degraded -> 1
           | Su_fs.Health.Readonly -> 2) );
    ]
  in
  let scrub =
    match w.Fs.scrub with
    | None -> []
    | Some s ->
      [
        ("scrub.passes", f (Su_fs.Scrub.passes_run s));
        ("scrub.scanned", f (Su_fs.Scrub.scanned s));
        ("scrub.found", f (Su_fs.Scrub.found s));
        ("scrub.repaired", f (Su_fs.Scrub.repaired s));
        ("scrub.deferred", f (Su_fs.Scrub.deferred s));
        ("scrub.lost", f (Su_fs.Scrub.lost s));
      ]
  in
  let integrity =
    match w.Fs.integrity with
    | None -> []
    | Some i ->
      [
        ("integrity.fills", f (Su_fs.Integrity.fills_verified i));
        ("integrity.mismatches", f (Su_fs.Integrity.mismatches i));
        ("integrity.repaired", f (Su_fs.Integrity.repaired i));
        ("integrity.repaired_reread", f (Su_fs.Integrity.repaired_reread i));
        ("integrity.repaired_replica", f (Su_fs.Integrity.repaired_replica i));
        ("integrity.repaired_cache", f (Su_fs.Integrity.repaired_cache i));
        ("integrity.lost", f (Su_fs.Integrity.unrepairable i));
      ]
  in
  base @ softdep @ journal @ fault @ scrub @ integrity

let drop_caches (w : Fs.world) =
  List.iter
    (fun (b : Su_cache.Buf.t) ->
      if b.Su_cache.Buf.refcount = 0 && not b.Su_cache.Buf.dirty then
        Su_cache.Bcache.invalidate w.Fs.cache b)
    (Su_cache.Bcache.all_bufs w.Fs.cache);
  Hashtbl.reset w.Fs.st.State.icache

let run ~cfg ?setup ~users body =
  let cold_start = setup <> None in
  let setup = match setup with Some f -> f | None -> fun _ -> () in
  let w = Fs.make cfg in
  let result = ref None in
  let controller () =
    setup w.Fs.st;
    Fsops.sync w.Fs.st;
    if cold_start then drop_caches w;
    Su_driver.Driver.reset_trace w.Fs.driver;
    let t0 = Engine.now w.Fs.engine in
    let elapsed = Array.make users 0.0 in
    let handles =
      List.init users (fun i ->
          Proc.spawn w.Fs.engine
            ~name:(Printf.sprintf "user%d" i)
            (fun () ->
              body i w.Fs.st;
              elapsed.(i) <- Engine.now w.Fs.engine -. t0))
    in
    Proc.join_all w.Fs.engine handles;
    let cpu_total =
      List.fold_left (fun acc h -> acc +. Proc.cpu_time h) 0.0 handles
    in
    (* elapsed/CPU are the users'; disk statistics are system-wide and
       include the queued writes that drain after the benchmark
       completes (the paper's multi-second driver response times in
       table 2 are only visible this way) *)
    Fs.stop w;
    Su_driver.Driver.quiesce w.Fs.driver;
    let tr = Su_driver.Driver.trace w.Fs.driver in
    let n = float_of_int users in
    result :=
      Some
        {
          users;
          elapsed_avg = Array.fold_left ( +. ) 0.0 elapsed /. n;
          elapsed_max = Array.fold_left Float.max 0.0 elapsed;
          cpu_total;
          disk_requests = Su_driver.Trace.requests tr;
          disk_reads = Su_driver.Trace.reads tr;
          disk_writes = Su_driver.Trace.writes tr;
          avg_response_ms = Su_driver.Trace.avg_response_ms tr;
          avg_access_ms = Su_driver.Trace.avg_access_ms tr;
          sync_response_ms = Su_driver.Trace.sync_avg_response_ms tr;
          response_p50_ms = Su_driver.Trace.response_percentile_ms tr 50.0;
          response_p90_ms = Su_driver.Trace.response_percentile_ms tr 90.0;
          response_p99_ms = Su_driver.Trace.response_percentile_ms tr 99.0;
          response_max_ms = Su_driver.Trace.response_max_ms tr;
          counters = counters_of w;
          softdep = w.Fs.st.State.softdep_stats;
        };
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"controller" controller);
  Engine.run w.Fs.engine;
  match !result with
  | Some m -> m
  | None -> failwith "Runner.run: benchmark did not complete"

let measures_json (m : measures) =
  let open Su_obs in
  Json.Obj
    [
      ("users", Json.Int m.users);
      ("elapsed_avg_s", Json.Float m.elapsed_avg);
      ("elapsed_max_s", Json.Float m.elapsed_max);
      ("cpu_total_s", Json.Float m.cpu_total);
      ("disk_requests", Json.Int m.disk_requests);
      ("disk_reads", Json.Int m.disk_reads);
      ("disk_writes", Json.Int m.disk_writes);
      ("avg_response_ms", Json.Float m.avg_response_ms);
      ("avg_access_ms", Json.Float m.avg_access_ms);
      ("sync_response_ms", Json.Float m.sync_response_ms);
      ("response_p50_ms", Json.Float m.response_p50_ms);
      ("response_p90_ms", Json.Float m.response_p90_ms);
      ("response_p99_ms", Json.Float m.response_p99_ms);
      ("response_max_ms", Json.Float m.response_max_ms);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) m.counters) );
    ]

let repeat ~reps f =
  if reps <= 0 then invalid_arg "Runner.repeat: reps must be positive";
  let ms = List.init reps f in
  let avg sel = List.fold_left (fun a m -> a +. sel m) 0.0 ms /. float_of_int reps in
  let avgi sel =
    int_of_float
      (Float.round
         (List.fold_left (fun a m -> a +. float_of_int (sel m)) 0.0 ms
         /. float_of_int reps))
  in
  match ms with
  | [] -> invalid_arg "Runner.repeat: impossible"
  | first :: _ ->
    {
      users = first.users;
      elapsed_avg = avg (fun m -> m.elapsed_avg);
      elapsed_max = avg (fun m -> m.elapsed_max);
      cpu_total = avg (fun m -> m.cpu_total);
      disk_requests = avgi (fun m -> m.disk_requests);
      disk_reads = avgi (fun m -> m.disk_reads);
      disk_writes = avgi (fun m -> m.disk_writes);
      avg_response_ms = avg (fun m -> m.avg_response_ms);
      avg_access_ms = avg (fun m -> m.avg_access_ms);
      sync_response_ms = avg (fun m -> m.sync_response_ms);
      response_p50_ms = avg (fun m -> m.response_p50_ms);
      response_p90_ms = avg (fun m -> m.response_p90_ms);
      response_p99_ms = avg (fun m -> m.response_p99_ms);
      response_max_ms = avg (fun m -> m.response_max_ms);
      counters =
        (* average by name over the reps that report the counter *)
        List.map
          (fun (name, _) ->
            let vals =
              List.filter_map (fun m -> List.assoc_opt name m.counters) ms
            in
            ( name,
              List.fold_left ( +. ) 0.0 vals
              /. float_of_int (max 1 (List.length vals)) ))
          first.counters;
      softdep = first.softdep;
    }
