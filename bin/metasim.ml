(* metasim: command-line front end to the simulator.

   Subcommands:
     run        — run one benchmark under one scheme and print measurements
     crash      — run a workload, crash at a given time, fsck the image
     crashsweep — re-crash a workload at EVERY write boundary (and torn
                  mid-write states) and verify recovery per scheme
     trace      — run a small workload and dump the I/O trace
   and the fault, fuzz and load campaigns; the paper's figures and tables
   run through bench/main.exe. *)

open Cmdliner
open Su_fs
open Su_workload
module Explorer = Su_check.Explorer

let scheme_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "conventional" | "conv" -> Ok Fs.Conventional
    | "flag" -> Ok Fs.Scheduler_flag
    | "chains" -> Ok (Fs.Scheduler_chains { barrier_dealloc = false })
    | "chains-barrier" -> Ok (Fs.Scheduler_chains { barrier_dealloc = true })
    | "soft" | "soft-updates" | "softdep" -> Ok Fs.Soft_updates
    | "none" | "no-order" -> Ok Fs.No_order
    | "journal" -> Ok (Fs.Journaled { group_commit = false })
    | "journal-group" -> Ok (Fs.Journaled { group_commit = true })
    | _ -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Fs.scheme_kind_name s) in
  Arg.conv (parse, print)

let scheme_arg =
  let doc =
    "Ordering scheme: conventional, flag, chains, chains-barrier, soft \
     (alias softdep), no-order, journal, journal-group."
  in
  Arg.(value & opt scheme_conv Fs.Soft_updates & info [ "s"; "scheme" ] ~doc)

let users_arg =
  Arg.(value & opt int 4 & info [ "u"; "users" ] ~doc:"Concurrent users.")

let seed_arg =
  Arg.(value & opt int 17 & info [ "seed" ] ~doc:"Workload seed.")

let alloc_init_arg =
  Arg.(
    value
    & opt (some bool) None
    & info [ "alloc-init" ]
        ~doc:"Force allocation initialisation on/off (default: per scheme).")

let nvram_arg =
  Arg.(
    value & opt int 0
    & info [ "nvram" ] ~doc:"Battery-backed disk write cache in MB (0 = none).")

(* --- device-fault flags (run / fuzz) --------------------------------

   Validating convs, like [run]'s benchmark name: a rate outside
   [0, 1] or a negative sector is a command-line error with a non-zero
   exit, not a silently absurd fault model. *)

let rate_conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | Some _ -> Error (`Msg "fault rate must lie in [0, 1]")
    | None -> Error (`Msg (Printf.sprintf "invalid rate %S" s))
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

(* One conv per kind of number: [int_conv ~min] takes integers from 0
   or from 1, [float_conv ~zero] finite floats above 0 (or from 0 with
   [zero]). Absurd load parameters are command-line errors, not hung or
   meaningless runs. *)
let int_conv ~min what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ when min = 0 -> Error (`Msg (what ^ " must be non-negative"))
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be at least %d" what min))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_conv = int_conv ~min:0
let pos_conv = int_conv ~min:1

let float_conv ~zero what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && (v > 0.0 || (zero && v = 0.0)) -> Ok v
    | Some _ ->
      Error
        (`Msg (what ^ if zero then " must be non-negative" else " must be positive"))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let posf_conv = float_conv ~zero:false

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"S"
        ~doc:"PRNG seed for the device fault model (replays identically).")

let fault_rate_flag =
  Arg.(
    value
    & opt rate_conv 0.0
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Transient read/write failure probability per device attempt, in \
           [0, 1] (0 = perfect device). Implies occasional stalls and torn \
           writes, as $(b,Su_disk.Fault.transient).")

let bad_sectors_arg =
  Arg.(
    value
    & opt (list (nonneg_conv "sector")) []
    & info [ "bad-sectors" ] ~docv:"LBN,..."
        ~doc:"Fragments that fail permanently on every access.")

let spares_arg ~default =
  Arg.(
    value
    & opt (nonneg_conv "spare count") default
    & info [ "spares" ] ~docv:"N"
        ~doc:
          "Spare fragments for bad-sector remapping (0 = no remap layer; \
           the simulation is then bit-identical to a fault-intolerant \
           build).")

(* --- silent-fault flags (run / loadgen) -----------------------------

   The classes the device cannot detect: bit rot on reads, lost
   writes, misdirected writes. Only the checksum layer catches them,
   so the doc strings point at --checksums. *)

let flip_rate_flag =
  Arg.(
    value
    & opt rate_conv 0.0
    & info [ "flip-rate" ] ~docv:"R"
        ~doc:
          "Silent bit-rot probability per read attempt, in [0, 1]. The \
           device reports success; only $(b,--checksums) can detect the \
           corruption.")

let lost_rate_flag =
  Arg.(
    value
    & opt rate_conv 0.0
    & info [ "lost-rate" ] ~docv:"R"
        ~doc:
          "Probability a write attempt is acknowledged but never applied \
           to the media, in [0, 1]. Detectable only via $(b,--checksums).")

let misdirect_rate_flag =
  Arg.(
    value
    & opt rate_conv 0.0
    & info [ "misdirect-rate" ] ~docv:"R"
        ~doc:
          "Probability a write attempt lands on a random wrong sector, in \
           [0, 1]. Detectable only via $(b,--checksums).")

let checksums_flag =
  Arg.(
    value & flag
    & info [ "checksums" ]
        ~doc:
          "Maintain and verify per-fragment checksums (the end-to-end \
           integrity layer: verified cache fills, self-healing reads, \
           scrubber verification). Off by default so traces stay \
           bit-identical to the checksum-free build.")

let scrub_arg =
  Arg.(
    value
    & opt (float_conv ~zero:true "scrub interval") 0.0
    & info [ "scrub-interval" ] ~docv:"SECONDS"
        ~doc:
          "Background scrubber wake-up period in simulated seconds \
           (0 = no scrubber).")

let fault_of ?(flip = 0.0) ?(lost = 0.0) ?(misdirect = 0.0) ~seed ~rate
    ~bad_sectors () =
  let base =
    if rate = 0.0 && bad_sectors = [] then Su_disk.Fault.none
    else if rate > 0.0 then
      { (Su_disk.Fault.transient ~seed ~rate ()) with
        Su_disk.Fault.bad_sectors }
    else { Su_disk.Fault.none with Su_disk.Fault.seed; bad_sectors }
  in
  if flip = 0.0 && lost = 0.0 && misdirect = 0.0 then base
  else
    { base with
      Su_disk.Fault.seed;
      flip_read = flip;
      lost_write = lost;
      misdirect_write = misdirect }

let make_cfg ?sink scheme alloc_init nvram =
  let cfg =
    { (Fs.config ~scheme ()) with Fs.nvram_mb = nvram; Fs.trace_sink = sink }
  in
  match alloc_init with
  | None -> cfg
  | Some b -> { cfg with Fs.alloc_init = b }

let print_measures (m : Runner.measures) =
  Printf.printf "users:            %d\n" m.Runner.users;
  Printf.printf "elapsed (avg):    %.2f s\n" m.Runner.elapsed_avg;
  Printf.printf "elapsed (max):    %.2f s\n" m.Runner.elapsed_max;
  Printf.printf "user CPU (sum):   %.2f s\n" m.Runner.cpu_total;
  Printf.printf "disk requests:    %d (%d reads, %d writes)\n"
    m.Runner.disk_requests m.Runner.disk_reads m.Runner.disk_writes;
  Printf.printf "avg I/O response: %.1f ms\n" m.Runner.avg_response_ms;
  Printf.printf "avg disk access:  %.1f ms\n" m.Runner.avg_access_ms;
  match m.Runner.softdep with
  | None -> ()
  | Some s ->
    Printf.printf
      "soft updates:     %d dep records, %d rollbacks, %d cancelled \
       create+remove pairs, %d workitems\n"
      s.Su_core.Softdep.created s.Su_core.Softdep.rollbacks
      s.Su_core.Softdep.cancelled_adds s.Su_core.Softdep.workitems

let run_cmd =
  (* A validating conv (not a bare string) so an unknown name is a
     command-line error with a non-zero exit — scripted runs used to
     get an stderr line and exit 0, which CI can't catch. *)
  let bench_names =
    [ "copy"; "remove"; "create"; "remove-files"; "create-remove"; "sdet";
      "andrew" ]
  in
  let bench_conv =
    let parse s =
      let s = String.lowercase_ascii s in
      if List.mem s bench_names then Ok s
      else
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (expected one of %s)" s
               (String.concat ", " bench_names)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let bench_arg =
    let doc = "Benchmark: copy, remove, create, remove-files, create-remove, sdet, andrew." in
    Arg.(value & pos 0 bench_conv "copy" & info [] ~docv:"BENCH" ~doc)
  in
  let files_arg =
    Arg.(value & opt int 10_000 & info [ "files" ] ~doc:"Total files (throughput benchmarks).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the measurements as one JSON object (percentiles and \
             cross-layer counters included) instead of text.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH"
          ~doc:
            "Write a simulated-clock JSONL event trace (one event per FS \
             operation, cache transition and I/O issue/start/complete) to \
             $(docv).")
  in
  let run bench scheme users seed alloc_init nvram files json trace_out
      fault_seed fault_rate bad_sectors spares scrub_interval flip lost
      misdirect checksums =
    let sink =
      match trace_out with
      | None -> None
      | Some _ -> Some (Su_obs.Events.create ())
    in
    let cfg =
      { (make_cfg ?sink scheme alloc_init nvram) with
        Fs.fault =
          fault_of ~flip ~lost ~misdirect ~seed:fault_seed ~rate:fault_rate
            ~bad_sectors ();
        spare_frags = spares;
        scrub_interval;
        checksums }
    in
    let emit_json fields =
      print_endline
        (Su_obs.Json.to_string_pretty
           (Su_obs.Json.Obj
              (("benchmark", Su_obs.Json.Str bench)
               :: ("scheme", Su_obs.Json.Str (Fs.scheme_kind_name scheme))
               :: fields)))
    in
    (match bench with
     | "andrew" ->
       let s = Andrew.run ~cfg ~reps:3 in
       let floats a = Su_obs.Json.List (Array.to_list (Array.map (fun v -> Su_obs.Json.Float v) a)) in
       if json then
         emit_json
           [
             ("phases_s", floats s.Andrew.mean.Andrew.phases);
             ("phases_stdev_s", floats s.Andrew.stdev.Andrew.phases);
             ("total_s", Su_obs.Json.Float s.Andrew.mean.Andrew.total);
           ]
       else begin
         Printf.printf "# %s, %s, %d user(s)\n" bench
           (Fs.scheme_kind_name scheme) users;
         Array.iteri
           (fun i v -> Printf.printf "phase %d: %.2f s (stdev %.2f)\n" (i + 1) v
               s.Andrew.stdev.Andrew.phases.(i))
           s.Andrew.mean.Andrew.phases;
         Printf.printf "total:   %.2f s\n" s.Andrew.mean.Andrew.total
       end
     | _ ->
       let with_throughput m =
         (m, [ ("files_per_second",
                Su_obs.Json.Float
                  (Benchmarks.files_per_second ~total_files:files m)) ])
       in
       let m, extra =
         match bench with
         | "copy" -> (Benchmarks.copy ~cfg ~users ~seed (), [])
         | "remove" -> (Benchmarks.remove ~cfg ~users ~seed (), [])
         | "create" ->
           with_throughput (Benchmarks.create_files ~cfg ~users ~total_files:files)
         | "remove-files" ->
           with_throughput (Benchmarks.remove_files ~cfg ~users ~total_files:files)
         | "create-remove" ->
           with_throughput
             (Benchmarks.create_remove_files ~cfg ~users ~total_files:files)
         | "sdet" ->
           let r = Sdet.run ~cfg ~concurrency:users () in
           ( r.Sdet.measures,
             [ ("scripts_per_hour", Su_obs.Json.Float r.Sdet.scripts_per_hour) ]
           )
         | _ -> assert false (* bench_conv validated the name *)
       in
       if json then emit_json (("measures", Runner.measures_json m) :: extra)
       else begin
         Printf.printf "# %s, %s, %d user(s)\n" bench
           (Fs.scheme_kind_name scheme) users;
         print_measures m;
         List.iter
           (fun (_, v) ->
             match v with
             | Su_obs.Json.Float t ->
               Printf.printf "throughput:       %.1f %s\n" t
                 (if bench = "sdet" then "scripts/hour" else "files/s")
             | _ -> ())
           extra
       end);
    match (trace_out, sink) with
    | Some path, Some ev ->
      Su_obs.Json.write_file ~log:stderr
        ~note:(Printf.sprintf "%d events" (Su_obs.Events.count ev))
        path (Su_obs.Events.write_jsonl ev)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one benchmark under one ordering scheme.")
    Term.(
      const run $ bench_arg $ scheme_arg $ users_arg $ seed_arg
      $ alloc_init_arg $ nvram_arg $ files_arg $ json_arg $ trace_out_arg
      $ fault_seed_arg $ fault_rate_flag $ bad_sectors_arg
      $ spares_arg ~default:0 $ scrub_arg $ flip_rate_flag $ lost_rate_flag
      $ misdirect_rate_flag $ checksums_flag)

let crash_cmd =
  let time_arg =
    Arg.(value & opt float 5.0 & info [ "t"; "time" ] ~doc:"Crash time (virtual seconds).")
  in
  let repair_arg =
    Arg.(value & flag & info [ "repair" ] ~doc:"Run fsck repair on the crashed image.")
  in
  let run scheme seed time alloc_init do_repair =
    let cfg =
      { (make_cfg scheme alloc_init 0) with
        Fs.geom = Su_fstypes.Geom.small;
        cache_mb = 8 }
    in
    let w = Fs.make cfg in
    let rng = Su_util.Rng.create seed in
    for u = 1 to 2 do
      ignore
        (Su_sim.Proc.spawn w.Fs.engine
           ~name:(Printf.sprintf "w%d" u)
           (fun () ->
             let dir = Printf.sprintf "/w%d" u in
             Fsops.mkdir w.Fs.st dir;
             let r = Su_util.Rng.split rng in
             for i = 1 to 400 do
               let p = Printf.sprintf "%s/f%d" dir i in
               Fsops.create w.Fs.st p;
               Fsops.append w.Fs.st p ~bytes:(1024 * Su_util.Rng.int_range r 1 8);
               if Su_util.Rng.bool r then Fsops.unlink w.Fs.st p
             done))
    done;
    let report = Crash.crash_and_check w time in
    Printf.printf "# crash at t=%.2fs under %s\n" time (Fs.scheme_kind_name scheme);
    Printf.printf "violations:     %d\n" (List.length report.Fsck.violations);
    List.iter
      (fun v -> Format.printf "  %a@." Fsck.pp_violation v)
      report.Fsck.violations;
    Printf.printf "live files:     %d\nlive dirs:      %d\n" report.Fsck.files
      report.Fsck.dirs;
    Printf.printf "leaked frags:   %d\nleaked inodes:  %d\nstale maps:     %d\n"
      report.Fsck.leaked_frags report.Fsck.leaked_inodes report.Fsck.stale_free;
    Printf.printf "nlink high:     %d\n" report.Fsck.nlink_high;
    Printf.printf "%s\n" (if Fsck.ok report then "CONSISTENT" else "INTEGRITY VIOLATED");
    if do_repair then begin
      let image = Su_disk.Disk.image_snapshot w.Fs.disk in
      Fs.recover_image cfg image;
      let { Fsck.actions; final; converged; _ } =
        Fsck.repair ~geom:cfg.Fs.geom ~image
          ~check_exposure:(Fs.check_exposure cfg) ()
      in
      Printf.printf "\n# repair\n";
      List.iter (fun a -> Format.printf "  %a@." Fsck.pp_repair_action a) actions;
      Printf.printf "after repair: %s%s (%d files, %d dirs)\n"
        (if Fsck.ok final then "CONSISTENT" else "STILL BROKEN")
        (if converged then "" else " (repair did not converge)")
        final.Fsck.files final.Fsck.dirs
    end
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"Crash a workload mid-flight, fsck and optionally repair.")
    Term.(const run $ scheme_arg $ seed_arg $ time_arg $ alloc_init_arg $ repair_arg)

(* --- the sweep campaigns: shared terms and one row loop ---------------

   crashsweep, faultsweep and corruptsweep sweep every scheme x workload
   row on the same compact volume and report through the same table,
   JSON document and exit path; fuzz shares the scheme list, --jobs,
   --fail-fast and the volume. *)

let default_schemes = Fs.all_schemes @ [ Fs.Journaled { group_commit = false } ]

let schemes_arg =
  Term.(
    const (Option.value ~default:default_schemes)
    $ Arg.(
        value
        & opt (some (list scheme_conv)) None
        & info [ "schemes" ]
            ~doc:
              "Comma-separated schemes to sweep (default: the paper's five \
               plus journaled)."))

let workloads_arg =
  Arg.(
    value
    & opt (list string)
        (List.map
           (fun w -> w.Explorer.wl_name)
           Explorer.builtin_workloads)
    & info [ "w"; "workloads" ]
        ~doc:
          "Comma-separated built-in workloads: smallfiles, dirtree, \
           renamefile, renamedir.")

let jobs_arg =
  Arg.(
    value
    & opt (nonneg_conv "jobs") 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (default 1 = serial; 0 = one per core, \
           Domain.recommended_domain_count). The output is byte-identical \
           at any $(docv).")

let cap_arg name ~doc =
  Arg.(
    value & opt (some (nonneg_conv name)) None & info [ name ] ~docv:"N" ~doc)

let max_boundaries_arg =
  cap_arg "max-boundaries"
    ~doc:
      "Cap the write boundaries explored per sweep or fuzz case (smoke \
       runs; default: all)."

let no_torn_arg =
  Arg.(
    value & flag
    & info [ "no-torn" ]
        ~doc:"Skip torn mid-write states (sector-atomic crashes only).")

let fail_fast_arg =
  Arg.(
    value & flag
    & info [ "fail-fast" ]
        ~doc:
          "Stop at the first crash state, injection or fuzz case that misses \
           its promise (sweeps run in fixed chunks of 8, so the output is \
           the same at any $(b,--jobs)).")

let sweep_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Also write the sweep summaries (one object per scheme x workload \
           row, with the verdict) as JSON to $(docv).")

let resolve_workloads ~cmd find names =
  let found =
    List.filter_map
      (fun name ->
        match find name with
        | Some w -> Some w
        | None ->
          Printf.eprintf "unknown workload %S (skipped)\n" name;
          None)
      names
  in
  if found = [] then begin
    prerr_endline (cmd ^ ": no valid workloads left to sweep");
    exit 2
  end;
  found

(* One integer column of a sweep summary: its table header, if the
   table shows it, and its JSON key. *)
type 's column = { header : string option; key : string; get : 's -> int }

let col ?(shown = true) ?header key get =
  let header = Option.value header ~default:key in
  { header = (if shown then Some header else None); key; get }

(* Sweep every scheme x workload row: [sweep scheme wl] returns the
   row's summary, its verdict text and whether it met its promise.
   Prints the table (a failing row's verdict marked with * ), writes
   the JSON document and exits 1 if any row failed. *)
let run_sweeps ~cmd ~title ~columns ?(json_verdict = false) ~json_header
    ~fail_fast ~json_path ~schemes ~workloads ~workload_name sweep =
  let table =
    Su_util.Text_table.create ~title
      ~headers:
        (("scheme" :: "workload" :: List.filter_map (fun c -> c.header) columns)
        @ [ "verdict" ])
  in
  let rows = ref [] in
  (try
     List.iter
       (fun scheme ->
         List.iter
           (fun wl ->
             let s, verdict, ok = sweep scheme wl in
             rows := (scheme, workload_name s, s, verdict, ok) :: !rows;
             Su_util.Text_table.add_row table
               ((Fs.scheme_kind_name scheme :: workload_name s
                :: List.filter_map
                     (fun c ->
                       Option.map
                         (fun _ -> Su_util.Text_table.cell_i (c.get s))
                         c.header)
                     columns)
               @ [ (if ok then verdict else verdict ^ " *") ]);
             if fail_fast && not ok then raise Exit)
           workloads)
       schemes
   with Exit -> ());
  Su_util.Text_table.print table;
  let failed = List.exists (fun (_, _, _, _, ok) -> not ok) !rows in
  (match json_path with
   | None -> ()
   | Some path ->
     let open Su_obs.Json in
     let row_json (scheme, workload, s, verdict, ok) =
       Obj
         ((("scheme", Str (Fs.scheme_kind_name scheme))
           :: ("workload", Str workload)
           :: List.map (fun c -> (c.key, Int (c.get s))) columns)
         @ (if json_verdict then [ ("verdict", Str verdict) ] else [])
         @ [ ("ok", Bool ok) ])
     in
     Su_obs.Json.write_pretty ~log:stderr path
       (Obj
          ((("campaign", Str cmd) :: json_header)
          @ [
              ("ok", Bool (not failed));
              ("sweeps", List (List.rev_map row_json !rows));
            ])));
  if failed then begin
    prerr_endline
      (if fail_fast then
         cmd ^ ": violation found (stopped early; * marks the failing row)"
       else cmd ^ ": violation found (* marks failing rows)");
    exit 1
  end

let crashsweep_cmd =
  let faults_arg =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Also run each workload with transient-fault injection and \
             report how the driver's retry machinery coped.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt rate_conv 0.1
      & info [ "fault-rate" ] ~doc:"Transient failure probability per request.")
  in
  let nested_arg =
    Arg.(
      value & flag
      & info [ "nested" ]
          ~doc:
            "Re-crash the recovery pipeline at every one of its own write \
             boundaries, for every outer crash state, and require recovery \
             to be re-entrant: each nested state must settle in one round \
             and reach the write-free fixed point by the second.")
  in
  let demand_arg =
    Arg.(
      value
      & opt (enum [ ("default", `Default); ("consistent", `Consistent) ])
          `Default
      & info [ "demand" ]
          ~doc:
            "Verdict each scheme must meet: $(b,default) holds every scheme \
             to consistency except No Order, which only promises \
             repairability; $(b,consistent) holds every swept scheme to \
             consistency (so sweeping no-order deliberately fails).")
  in
  let run schemes workload_names no_torn faults fault_rate jobs max_boundaries
      nested fail_fast demand json_path =
    let module E = Explorer in
    let workloads =
      resolve_workloads ~cmd:"crashsweep" E.find_workload workload_names
    in
    let columns =
      [
        col "writes" (fun s -> s.E.s_writes);
        col "states" (fun s -> s.E.s_states);
        col ~header:"torn" "torn_states" (fun s -> s.E.s_torn_states);
        col ~header:"violated" "dirty_states" (fun s -> s.E.s_dirty_states);
        col "unrepaired" (fun s -> s.E.s_unrepaired);
        col ~header:"remount-fail" "remount_failures" (fun s ->
            s.E.s_remount_failures);
        col ~shown:nested ~header:"nested" "nested_states" (fun s ->
            s.E.s_nested_states);
        col ~shown:nested ~header:"nested-fail" "nested_failures" (fun s ->
            s.E.s_nested_unrecovered + s.E.s_nested_unsettled);
      ]
    in
    run_sweeps ~cmd:"crashsweep"
      ~title:
        (Printf.sprintf "crash sweep: every write boundary%s%s"
           (if no_torn then "" else " + torn states")
           (if nested then " + crashes during recovery" else ""))
      ~columns ~json_verdict:true
      ~json_header:
        [
          ("torn", Su_obs.Json.Bool (not no_torn));
          ("nested", Su_obs.Json.Bool nested);
        ]
      ~fail_fast ~json_path ~schemes ~workloads
      ~workload_name:(fun s -> s.E.s_workload)
      (fun scheme wl ->
        let s =
          E.sweep ~torn:(not no_torn) ~jobs ?max_boundaries ~nested ~fail_fast
            ~demand ~cfg:(E.sweep_cfg scheme) wl
        in
        let level = E.level s in
        (s, E.level_name level, E.keeps ~demand scheme level));
    if faults then
      (* the shakedown promises the stack absorbed every transient *)
      run_sweeps ~cmd:"crashsweep"
        ~title:
          (Printf.sprintf "transient-fault shakedown (rate %.3f per request)"
             fault_rate)
        ~columns:
          [
            col "injected" (fun (_, f) -> f.E.f_injected);
            col "retries" (fun (_, f) -> f.E.f_retries);
            col "failures" (fun (_, f) -> f.E.f_failures);
            col ~header:"cache-fail" "cache_failures" (fun (_, f) ->
                f.E.f_cache_failures);
          ]
        ~json_header:[] ~fail_fast ~json_path:None ~schemes ~workloads
        ~workload_name:fst
        (fun scheme wl ->
          let fault = Su_disk.Fault.transient ~seed:97 ~rate:fault_rate () in
          let f =
            E.fault_shakedown ~cfg:{ (E.sweep_cfg scheme) with Fs.fault } wl
          in
          let ok = f.E.f_completed && f.E.f_consistent && f.E.f_failures = 0 in
          ((wl.E.wl_name, f), (if ok then "rode it out" else "BROKEN"), ok))
  in
  Cmd.v
    (Cmd.info "crashsweep"
       ~doc:
         "Systematically re-crash a recorded workload at every write \
          boundary (plus torn mid-write states) and verify fsck, repair and \
          remount per scheme. Exits non-zero if any scheme misses its \
          promise (consistent; repairable for no-order).")
    Term.(
      const run $ schemes_arg $ workloads_arg $ no_torn_arg $ faults_arg
      $ fault_rate_arg $ jobs_arg $ max_boundaries_arg $ nested_arg
      $ fail_fast_arg $ demand_arg $ sweep_json_arg)

(* faultsweep and corruptsweep: one {!Su_check.Campaign} each. [resolve
   ~spares names] turns the -w names into workloads, each with the
   model oracle its runs are judged against for a given config. *)
module Campaign = Su_check.Campaign

let campaign_counts =
  [
    col "swept" (fun s -> s.Campaign.s_swept);
    col "completed" (fun s -> s.Campaign.s_completed);
    col ~header:"typed" "failed_typed" (fun s -> s.Campaign.s_failed_typed);
    col "escaped" (fun s -> s.Campaign.s_escaped);
  ]

let campaign_violations = col "violations" (fun s -> s.Campaign.s_violations)

let report_failing scheme s v =
  let module C = Campaign in
  let inj = v.C.v_injection in
  Printf.eprintf
    "  %s/%s %s sector %d%s: %s%s (injected %b, detected %d, repaired %d, \
     pre %d, converged %b, post %d, remount %s, diverged %d)\n"
    (Fs.scheme_kind_name scheme) s.C.s_workload (C.kind_name inj)
    (C.sector inj)
    (match inj with
     | C.Misdirect (_, victim) -> Printf.sprintf " -> %d" victim
     | C.Bad_sector _ | C.Flip _ | C.Lost _ -> "")
    (C.outcome_name v.C.v_outcome)
    (match v.C.v_outcome with
     | C.Failed_typed m | C.Escaped m -> " [" ^ m ^ "]"
     | C.Completed -> "")
    v.C.v_injected v.C.v_detected v.C.v_repaired v.C.v_pre_violations
    v.C.v_repair_converged v.C.v_post_violations
    (match v.C.v_remount with Ok () -> "ok" | Error why -> "failed: " ^ why)
    v.C.v_divergences

let campaign_cmd campaign ~doc ~title ~promise ~max_injections_arg ~columns
    ~resolve =
  let cmd = Campaign.name campaign in
  let run schemes workload_names jobs spares max_injections fail_fast
      json_path =
    run_sweeps ~cmd
      ~title:(Printf.sprintf "%s (%d spares)" title spares)
      ~columns
      ~json_header:[ ("spares", Su_obs.Json.Int spares) ]
      ~fail_fast ~json_path ~schemes
      ~workloads:(resolve ~spares workload_names)
      ~workload_name:(fun s -> s.Campaign.s_workload)
      (fun scheme (wl, oracle) ->
        let cfg = Explorer.sweep_cfg scheme in
        let s =
          Campaign.sweep ~jobs ~spares ?max_injections ~fail_fast
            ?oracle:(oracle cfg) ~cfg campaign wl
        in
        let ok = Campaign.ok s in
        if not ok then
          List.iter
            (fun v -> if not (Campaign.clean v) then report_failing scheme s v)
            s.Campaign.s_verdicts;
        (s, (if ok then promise else "BROKEN"), ok))
  in
  Cmd.v (Cmd.info cmd ~doc)
    Term.(
      const run $ schemes_arg $ workloads_arg $ jobs_arg
      $ spares_arg ~default:64 $ max_injections_arg $ fail_fast_arg
      $ sweep_json_arg)

let faultsweep_cmd =
  campaign_cmd Campaign.Permanent
    ~doc:
      "Systematically inject a permanent bad sector at every distinct \
       fragment a workload touches and verify survive-or-fail-clean per \
       scheme: each run either completes (the remap/replica machinery \
       absorbed the fault) or stops with a typed error leaving a \
       repairable, remountable image. Exits non-zero on any escape or \
       unclean failure."
    ~title:"fault sweep: a permanent bad sector at every touched fragment"
    ~promise:"survives-or-fails-clean"
    ~max_injections_arg:
      (cap_arg "max-sectors"
         ~doc:
           "Cap the sectors injected per sweep (smoke runs; default: every \
            touched sector).")
    ~columns:
      ((col "sectors" (fun s -> s.Campaign.s_planned) :: campaign_counts)
      @ [ col "remaps" (fun s -> s.Campaign.s_remaps); campaign_violations ])
    ~resolve:(fun ~spares:_ names ->
      List.map
        (fun wl -> (wl, fun _ -> None))
        (resolve_workloads ~cmd:"faultsweep" Explorer.find_workload
           names))

let corruptsweep_cmd =
  campaign_cmd Campaign.Silent
    ~doc:
      "Systematically inject every silent-fault class — a bit-flipped read, \
       a lost write, a misdirected write — on every sector a workload \
       touches, with checksums on, and verify detect-or-fail-clean per \
       scheme: each run either completes with a final image matching the \
       in-memory model (the checksum ladder healed the corruption), or \
       stops with a typed error leaving a repairable, remountable volume. \
       A completed run whose image silently diverges from the model is the \
       defining failure. Exits non-zero on any escape, silent escape or \
       unclean failure."
    ~title:
      "corruption sweep: every silent-fault class on every touched sector, \
       checksums on"
    ~promise:"detects-or-fails-clean"
    ~max_injections_arg:
      (cap_arg "max-injections"
         ~doc:
           "Cap the (sector, class) pairs injected per sweep (smoke runs; \
            default: the full plan).")
    ~columns:
      ([
         col ~header:"reads" "read_sectors" (fun s ->
             s.Campaign.s_read_sectors);
         col ~header:"writes" "write_sectors" (fun s ->
             s.Campaign.s_write_sectors);
         col ~shown:false "planned" (fun s -> s.Campaign.s_planned);
       ]
      @ campaign_counts
      @ [
          col "detected" (fun s -> s.Campaign.s_detected);
          col "repaired" (fun s -> s.Campaign.s_repaired);
          col ~header:"silent" "silent_escapes" (fun s ->
              s.Campaign.s_silent_escapes);
          campaign_violations;
        ])
    ~resolve:(fun ~spares names ->
      (* the op-list editions of the built-in workloads, so every run has
         a model oracle; the oracle mounts the final logical image of a
         checksummed, spare-provisioned run, so its config must admit the
         same image shape *)
      List.map
        (fun (name, ops) ->
          ( Fuzz.workload_of_ops ~name ops,
            fun cfg ->
              let cfg =
                { cfg with Fs.checksums = true; spare_frags = spares }
              in
              Some (fun image -> Fuzz.check_final_image ~cfg image ops) ))
        (resolve_workloads ~cmd:"corruptsweep"
           (fun name ->
             Option.map (fun ops -> (name, ops)) (Fuzz.find_case name))
           names))

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"First seed.")
  in
  let ops_arg =
    Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Generated ops per workload.")
  in
  let count_arg =
    Arg.(
      value & opt int 1
      & info [ "n"; "count" ] ~doc:"Consecutive seeds to fuzz.")
  in
  let no_nested_arg =
    Arg.(
      value & flag
      & info [ "no-nested" ]
          ~doc:"Skip re-crashing the recovery pipeline inside its own writes.")
  in
  let run seed0 ops_n count schemes jobs max_boundaries no_torn no_nested
      fail_fast fault_seed fault_rate flip lost misdirect checksums =
    let nested = not no_nested in
    let table =
      Su_util.Text_table.create
        ~title:
          (Printf.sprintf "workload fuzz: %d seed%s x %d ops, per scheme%s"
             count
             (if count = 1 then "" else "s")
             ops_n
             (if nested then ", crashes during recovery included" else ""))
        ~headers:
          [
            "scheme"; "seed"; "ops"; "writes"; "states"; "nested"; "verdict";
          ]
    in
    let failed = ref false in
    (try
       List.iter
         (fun scheme ->
           let cfg =
             { (Explorer.sweep_cfg scheme) with
               Fs.fault =
                 fault_of ~flip ~lost ~misdirect ~seed:fault_seed
                   ~rate:fault_rate ~bad_sectors:[] ();
               checksums }
           in
           for k = 0 to count - 1 do
             let seed = seed0 + k in
             let ops = Fuzz.gen ~seed ~ops:ops_n in
             let name = Printf.sprintf "fuzz-%d" seed in
             let case ops =
               Fuzz.run_case ~nested ~torn:(not no_torn) ~jobs ?max_boundaries
                 ~cfg ~name ops
             in
             let r = case ops in
             let s = r.Fuzz.cr_summary in
             let why = Fuzz.failure r in
             Su_util.Text_table.add_row table
               [
                 Fs.scheme_kind_name scheme;
                 string_of_int seed;
                 Su_util.Text_table.cell_i (List.length ops);
                 Su_util.Text_table.cell_i s.Explorer.s_writes;
                 Su_util.Text_table.cell_i s.Explorer.s_states;
                 Su_util.Text_table.cell_i s.Explorer.s_nested_states;
                 (match why with None -> "pass" | Some w -> "FAIL: " ^ w);
               ];
             match why with
             | None -> ()
             | Some why ->
               failed := true;
               Printf.eprintf "seed %d under %s: %s; shrinking...\n%!" seed
                 (Fs.scheme_kind_name scheme)
                 why;
               let minimal =
                 Fuzz.shrink
                   ~still_fails:(fun ops' -> Fuzz.failure (case ops') <> None)
                   ops
               in
               Printf.eprintf
                 "minimal reproducer (seed %d, %d of %d ops, scheme %s):\n"
                 seed (List.length minimal) (List.length ops)
                 (Fs.scheme_kind_name scheme);
               List.iter
                 (fun op -> Printf.eprintf "  %s\n" (Fuzz.op_to_string op))
                 minimal;
               Printf.eprintf "%!";
               if fail_fast then raise Exit
           done)
         schemes
     with Exit -> ());
    Su_util.Text_table.print table;
    if !failed then begin
      prerr_endline "fuzz: failing case found (reproducers above)";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Seeded workload fuzzing: generate op sequences over the full \
          syscall surface, crash-sweep each at every write boundary \
          (re-crashing recovery inside its own writes too), check the \
          final image against an in-memory model, and greedily shrink any \
          violation to a minimal reproducer. Exits non-zero on failure.")
    Term.(
      const run $ seed_arg $ ops_arg $ count_arg $ schemes_arg $ jobs_arg
      $ max_boundaries_arg $ no_torn_arg $ no_nested_arg $ fail_fast_arg
      $ fault_seed_arg $ fault_rate_flag $ flip_rate_flag $ lost_rate_flag
      $ misdirect_rate_flag $ checksums_flag)

let trace_cmd =
  let count_arg =
    Arg.(value & opt int 30 & info [ "n" ] ~doc:"Trace records to print.")
  in
  let run scheme count =
    let cfg =
      { (Fs.config ~scheme ()) with
        Fs.geom = Su_fstypes.Geom.small;
        keep_trace_records = true }
    in
    let w = Fs.make cfg in
    ignore
      (Su_sim.Proc.spawn w.Fs.engine ~name:"user" (fun () ->
           Fsops.mkdir w.Fs.st "/d";
           for i = 1 to 10 do
             let p = Printf.sprintf "/d/f%d" i in
             Fsops.create w.Fs.st p;
             Fsops.append w.Fs.st p ~bytes:4096
           done;
           Fsops.unlink w.Fs.st "/d/f1";
           Fsops.sync w.Fs.st;
           Fs.stop w));
    Su_sim.Engine.run w.Fs.engine;
    let records = Su_driver.Trace.records (Su_driver.Driver.trace w.Fs.driver) in
    Printf.printf "# I/O trace under %s (%d requests; first %d shown)\n"
      (Fs.scheme_kind_name scheme) (List.length records) count;
    Printf.printf "%8s %5s %-5s %8s %6s %9s %9s\n" "issue" "id" "kind" "lbn"
      "nfrag" "queue(ms)" "svc(ms)";
    List.iteri
      (fun i (r : Su_driver.Trace.record) ->
        if i < count then
          Printf.printf "%8.4f %5d %-5s %8d %6d %9.2f %9.2f\n"
            r.Su_driver.Trace.r_issue r.Su_driver.Trace.r_id
            (match r.Su_driver.Trace.r_kind with
             | Su_driver.Request.Read -> "read"
             | Su_driver.Request.Write -> "write")
            r.Su_driver.Trace.r_lbn r.Su_driver.Trace.r_nfrags
            (1000.0 *. (r.Su_driver.Trace.r_start -. r.Su_driver.Trace.r_issue))
            (1000.0 *. (r.Su_driver.Trace.r_complete -. r.Su_driver.Trace.r_start)))
      records
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the I/O trace of a small workload.")
    Term.(const run $ scheme_arg $ count_arg)

(* --- loadgen: open-loop multi-tenant load engine ------------------------- *)

let loadgen_cmd =
  let shape_conv =
    let parse s =
      match Loadgen.shape_of_string (String.lowercase_ascii s) with
      | Some sh -> Ok sh
      | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown shape %S (expected fixed, rampup, pausing or shaped)"
                s))
    in
    Arg.conv
      (parse, fun ppf s -> Format.pp_print_string ppf (Loadgen.shape_name s))
  in
  let arrival_conv =
    let parse s =
      match Loadgen.arrival_of_string (String.lowercase_ascii s) with
      | Some a -> Ok a
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown arrival process %S (fixed-rate, poisson)"
                s))
    in
    Arg.conv
      (parse, fun ppf a -> Format.pp_print_string ppf (Loadgen.arrival_name a))
  in
  let clients_arg =
    Arg.(
      value
      & opt (pos_conv "client count") 200
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent tenant clients.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (posf_conv "rate") 0.1
      & info [ "rate" ] ~docv:"R"
          ~doc:"Operations per client per simulated second.")
  in
  let shape_arg =
    Arg.(
      value & opt shape_conv Loadgen.Fixed
      & info [ "shape" ]
          ~doc:"Load shape: fixed, rampup, pausing, shaped.")
  in
  let arrival_arg =
    Arg.(
      value & opt arrival_conv Loadgen.Poisson
      & info [ "arrival" ] ~doc:"Arrival process: poisson, fixed-rate.")
  in
  let duration_arg =
    Arg.(
      value
      & opt (posf_conv "duration") 60.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated run length.")
  in
  let warmup_arg =
    Arg.(
      value & opt float 15.0
      & info [ "warmup" ] ~docv:"SECONDS"
          ~doc:
            "Operations scheduled before $(docv) are executed but not \
             measured; the steady-state window is [warmup, duration).")
  in
  let files_arg =
    Arg.(
      value
      & opt (pos_conv "files-per-client") 8
      & info [ "files" ] ~docv:"N" ~doc:"Pre-created files per tenant.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (pos_conv "shard count") 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Split the clients over $(docv) independent simulated worlds. \
             Part of the experiment definition: the report depends on the \
             shard count, never on --jobs.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the report as one JSON object (schema in EXPERIMENTS.md) \
             instead of text.")
  in
  let min_ops_arg =
    Arg.(
      value
      & opt (some (posf_conv "ops-per-second floor")) None
      & info [ "min-ops-per-sec" ] ~docv:"OPS"
          ~doc:
            "Fail (exit 1) if HOST throughput — steady-phase operations per \
             host wall-clock second — falls below $(docv). A generous floor \
             catches order-of-magnitude regressions in CI.")
  in
  let volume_mb_arg =
    Arg.(
      value
      & opt (some (pos_conv "volume size")) None
      & info [ "volume-mb" ] ~docv:"MB"
          ~doc:
            "Volume size per shard in megabytes (16 MB cylinder groups, 2048 \
             inodes each; the drive is widened to fit). Default: the \
             engine's stock 1 GB geometry. The compact slab-backed image \
             keeps multi-GB volumes resident — see the volume section of \
             BENCH.json.")
  in
  let run scheme clients rate shape arrival duration warmup files shards jobs
      json seed min_ops volume_mb fault_seed fault_rate bad_sectors spares
      scrub_interval flip lost misdirect checksums =
    if warmup < 0.0 || warmup >= duration then begin
      Printf.eprintf
        "metasim: --warmup (%g) must lie in [0, --duration (%g))\n" warmup
        duration;
      exit Cmd.Exit.cli_error
    end;
    if shards > clients then begin
      Printf.eprintf "metasim: --shards (%d) exceeds --clients (%d)\n" shards
        clients;
      exit Cmd.Exit.cli_error
    end;
    let cfg =
      {
        (Loadgen.config ~scheme ()) with
        Loadgen.clients;
        rate;
        shape;
        arrival;
        duration;
        warmup;
        files_per_client = files;
        shards;
        seed;
      }
    in
    (* every shard is an independent world built from this one fs_cfg;
       the fault model's RNG is per-world, so the report stays a pure
       function of the config at any --jobs *)
    let geom, disk_params =
      match volume_mb with
      | None ->
        ( cfg.Loadgen.fs_cfg.Fs.geom,
          cfg.Loadgen.fs_cfg.Fs.disk_params )
      | Some mb -> (
        match Su_fstypes.Geom.v ~mb ~cg_mb:16 ~inodes_per_cg:2048 () with
        | exception Invalid_argument msg ->
          Printf.eprintf "metasim: --volume-mb %d: %s\n" mb msg;
          exit Cmd.Exit.cli_error
        | geom ->
          let base = cfg.Loadgen.fs_cfg.Fs.disk_params in
          let params =
            if Su_disk.Disk_params.capacity_frags base
               >= geom.Su_fstypes.Geom.nfrags
            then base
            else
              let fpc = Su_disk.Disk_params.frags_per_cyl base in
              { base with
                Su_disk.Disk_params.cylinders =
                  (geom.Su_fstypes.Geom.nfrags + fpc - 1) / fpc
              }
          in
          (geom, params))
    in
    let cfg =
      {
        cfg with
        Loadgen.fs_cfg =
          {
            cfg.Loadgen.fs_cfg with
            Fs.geom;
            disk_params;
            Fs.fault =
              fault_of ~flip ~lost ~misdirect ~seed:fault_seed
                ~rate:fault_rate ~bad_sectors ();
            spare_frags = spares;
            scrub_interval;
            checksums;
          };
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Loadgen.run ~jobs cfg in
    let wall = Unix.gettimeofday () -. t0 in
    (* stdout carries only the deterministic report; host-side numbers
       go to stderr so byte-identity across --jobs holds *)
    if json then
      print_endline (Su_obs.Json.to_string_pretty (Loadgen.report_json cfg r))
    else Su_util.Text_table.print (Loadgen.report_table cfg r);
    let host_rate = float_of_int r.Loadgen.executed /. wall in
    Printf.eprintf
      "loadgen: %d steady-phase ops in %.2f s host wall (%.0f ops/s host, %d \
       major collections)\n"
      r.Loadgen.executed wall host_rate r.Loadgen.major_collections;
    match min_ops with
    | Some floor when host_rate < floor ->
      Printf.eprintf
        "loadgen: host throughput %.0f ops/s is below the --min-ops-per-sec \
         floor %g\n"
        host_rate floor;
      exit 1
    | Some _ | None -> ()
  in
  let doc = "Open-loop multi-tenant load engine (throughput and tail latency)." in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ scheme_arg $ clients_arg $ rate_arg $ shape_arg
      $ arrival_arg $ duration_arg $ warmup_arg $ files_arg $ shards_arg
      $ jobs_arg $ json_arg $ seed_arg $ min_ops_arg $ volume_mb_arg
      $ fault_seed_arg $ fault_rate_flag $ bad_sectors_arg
      $ spares_arg ~default:0 $ scrub_arg
      $ flip_rate_flag $ lost_rate_flag $ misdirect_rate_flag
      $ checksums_flag)

(* Typed simulation failures must reach the shell as one clean stderr
   line and a distinct exit code (3), not an OCaml backtrace: a run
   against a fault model that exhausts the stack's tolerance is an
   expected outcome for scripts to branch on, not a crash. Exceptions
   raised inside simulated processes arrive wrapped in
   [Proc.Process_failure]; unwrap before classifying. *)
let rec typed_error = function
  | Su_sim.Proc.Process_failure (_, e) -> typed_error e
  | Fsops.Eio msg -> Some ("I/O error: " ^ msg)
  | Fsops.Erofs msg -> Some ("read-only file system: " ^ msg)
  | Su_cache.Bcache.Io_error e ->
    Some ("I/O error: " ^ Su_disk.Fault.error_to_string e)
  | Su_cache.Bcache.Stuck { op; detail; buffers } ->
    Some (Su_cache.Bcache.stuck_to_string ~op ~detail buffers)
  | Fs.Mount_failure msg -> Some ("mount failure: " ^ msg)
  | Failure msg -> Some msg
  | _ -> None

let () =
  let info =
    Cmd.info "metasim"
      ~doc:
        "Simulated UNIX FFS with five metadata update ordering schemes \
         (Ganger & Patt, OSDI 1994)."
  in
  let cmds =
    [
      run_cmd; crash_cmd; crashsweep_cmd; faultsweep_cmd; corruptsweep_cmd;
      fuzz_cmd; trace_cmd; loadgen_cmd;
    ]
  in
  match Cmd.eval_value ~catch:false (Cmd.group info cmds) with
  | Ok (`Ok ()) -> exit 0
  | Ok (`Help | `Version) -> exit 0
  | Error `Parse -> exit Cmd.Exit.cli_error
  | Error `Term -> exit Cmd.Exit.internal_error
  | Error `Exn -> exit Cmd.Exit.internal_error
  | exception e -> (
    match typed_error e with
    | Some msg ->
      Printf.eprintf "metasim: %s\n" msg;
      exit 3
    | None -> raise e)
