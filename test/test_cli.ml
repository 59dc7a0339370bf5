(* End-to-end CLI contract tests: exit codes that scripts and CI rely
   on, the [--json] document, and the [--trace-out] JSONL replay.
   The executables are declared as test dependencies, so they sit at
   fixed relative paths inside the dune sandbox. *)
module Json = Su_obs.Json

(* the test binary lives in _build/default/test/, its siblings in
   ../bin and ../bench — anchor on the binary, not the cwd, so the
   tests pass under both [dune runtest] and [dune exec] *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

let metasim = Filename.concat (Filename.concat build_root "bin") "metasim.exe"
let benchexe = Filename.concat (Filename.concat build_root "bench") "main.exe"

let sh fmt = Printf.ksprintf (fun cmd -> Sys.command cmd) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_exit name expected code =
  Alcotest.(check int) name expected code

(* --- exit codes --------------------------------------------------------- *)

let test_run_unknown_bench () =
  (* regression: this used to print to stderr and exit 0 *)
  check_exit "unknown benchmark is a CLI error" 124
    (sh "%s run nosuchbench >/dev/null 2>&1" metasim)

let test_run_unknown_scheme () =
  check_exit "unknown scheme is a CLI error" 124
    (sh "%s run copy --scheme bogus >/dev/null 2>&1" metasim)

let test_run_known_bench_ok () =
  check_exit "valid run exits 0" 0
    (sh "%s run create --files 100 -u 1 >/dev/null 2>&1" metasim)

let no_valid_workloads cmd () =
  check_exit (cmd ^ ": all-unknown workloads is an error") 2
    (sh "%s %s -w bogus1,bogus2 >/dev/null 2>&1" metasim cmd)

let test_crashsweep_demand_consistent () =
  (* no-order only promises repairability; demanding consistency from
     it must surface as the documented failure exit *)
  check_exit "demand consistent fails no-order" 1
    (sh
       "%s crashsweep --schemes none --demand consistent -w smallfiles \
        --max-boundaries 20 >/dev/null 2>&1"
       metasim);
  (* the exit code and the single JSON row of a no-order sweep *)
  let row flags =
    let out = Filename.temp_file "crashsweep" ".json" in
    let code =
      sh "%s crashsweep --schemes none -w smallfiles --max-boundaries 20 %s \
          --json %s >/dev/null 2>&1"
        metasim flags (Filename.quote out)
    in
    let doc = Json.parse (read_file out) in
    Sys.remove out;
    let row =
      match Result.map (fun d -> Json.member "sweeps" d) doc with
      | Ok (Some (Json.List [ row ])) -> row
      | Ok _ | Error _ -> Alcotest.failf "crashsweep %s: not one JSON row" flags
    in
    let field name =
      match Option.bind (Json.member name row) Json.to_int with
      | Some n -> n
      | None -> Alcotest.failf "crashsweep %s: no %s" flags name
    in
    (code, field)
  in
  let code, full = row "" in
  check_exit "default demand accepts repairable no-order" 0 code;
  (* --fail-fast stops inside the row, at its first violated state *)
  let code, cut = row "--demand consistent --fail-fast" in
  check_exit "fail-fast under demand consistent fails no-order" 1 code;
  Alcotest.(check int) "the cut row ends at its first violated state" 1
    (cut "dirty_states");
  Alcotest.(check bool) "the cut row stopped early" true
    (cut "states" < full "states" && full "dirty_states" > 1)

let test_bench_unknown_experiment () =
  check_exit "bench unknown id exits non-zero" 2
    (sh "%s nosuchexp >/dev/null 2>&1" benchexe)

let test_bench_assert_shapes_bad_input () =
  let tmp = Filename.temp_file "shapes" ".json" in
  let oc = open_out tmp in
  output_string oc "{ not json";
  close_out oc;
  check_exit "malformed JSON exits 2" 2
    (sh "%s --assert-shapes %s >/dev/null 2>&1" benchexe (Filename.quote tmp));
  let oc = open_out tmp in
  output_string oc "{\"hello\": 1}";
  close_out oc;
  check_exit "no recognisable tables exits 2" 2
    (sh "%s --assert-shapes %s >/dev/null 2>&1" benchexe (Filename.quote tmp));
  Sys.remove tmp

let test_bench_assert_shapes_verdicts () =
  (* a handwritten document with one deliberately sick table *)
  let doc ~soft_pct ~soft_reqs =
    {|{"scale": "quick", "experiments": [{"id": "tab2", "wall_s": 0.1,
       "tables": [{"title": "Table 2: synthetic",
         "headers": ["scheme", "alloc init", "% of No Order", "disk requests"],
         "rows": [["No Order", "N", "100.0", "1000"],
                  ["Conventional", "N", "880.0", "5000"],
                  ["Scheduler Flag", "N", "140.0", "1500"],
                  ["Scheduler Chains", "N", "500.0", "2000"],
                  ["Soft Updates", "N", "|}
    ^ soft_pct ^ {|", "|} ^ soft_reqs ^ {|"]]}]}]}|}
  in
  let tmp = Filename.temp_file "shapes" ".json" in
  let write s =
    let oc = open_out tmp in
    output_string oc s;
    close_out oc
  in
  write (doc ~soft_pct:"64.0" ~soft_reqs:"260");
  check_exit "healthy table passes" 0
    (sh "%s --assert-shapes %s >/dev/null 2>&1" benchexe (Filename.quote tmp));
  write (doc ~soft_pct:"900.0" ~soft_reqs:"6000");
  check_exit "sick table exits 1" 1
    (sh "%s --assert-shapes %s >/dev/null 2>&1" benchexe (Filename.quote tmp));
  Sys.remove tmp

let test_bench_bad_flags () =
  (* both used to run: the typo at full scale, the mix as hotpaths only *)
  List.iter
    (fun args ->
      check_exit (args ^ " exits 2") 2
        (sh "%s %s >/dev/null 2>&1" benchexe args))
    [ "--quik tab1"; "--hotpaths tab1" ]

let test_bench_perf_ledger () =
  let out = Filename.temp_file "bench" ".json" in
  check_exit "two perf sections pass their gates" 0
    (sh "%s --hotpaths --corrupt --quick --json %s >/dev/null 2>&1" benchexe
       (Filename.quote out));
  let doc =
    match Json.parse (read_file out) with
    | Ok d -> d
    | Error e -> Alcotest.failf "perf ledger is not valid JSON: %s" e
  in
  Sys.remove out;
  let list field j =
    match Option.bind (Json.member field j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.failf "no %s array" field
  in
  let sections = list "sections" doc in
  Alcotest.(check (list (option string))) "one document, registry order"
    [ Some "hotpaths"; Some "corrupt" ]
    (List.map (fun s -> Option.bind (Json.member "section" s) Json.to_str) sections);
  let keys = function Json.Obj kv -> List.map fst kv | _ -> [] in
  List.iter
    (fun s ->
      List.iter
        (fun r ->
          Alcotest.(check (list string)) "row schema"
            [ "name"; "layer"; "unit"; "n"; "wall_s"; "per_sec";
              "words_per_unit"; "majors" ]
            (keys r))
        (list "rows" s);
      List.iter
        (fun g ->
          Alcotest.(check bool) "gate ok" true (Json.member "ok" g = Some (Json.Bool true));
          Alcotest.(check bool) "numeric bound" true
            (Option.bind (Json.member "bound" g) Json.to_float <> None))
        (list "gates" s))
    sections

let test_bench_unwritable_json () =
  (* a path under a regular file can never be created *)
  let file = Filename.temp_file "bench" ".file" in
  let err = Filename.temp_file "bench" ".err" in
  check_exit "unwritable --json exits 2" 2
    (sh "%s --hotpaths --quick --json %s >/dev/null 2> %s" benchexe
       (Filename.quote (Filename.concat file "x.json"))
       (Filename.quote err));
  let msg = read_file err in
  Sys.remove file;
  Sys.remove err;
  Alcotest.(check bool) "typed message, no uncaught exception" true
    (String.starts_with ~prefix:"cannot write " msg
    && not (String.exists (fun c -> c = '\n') (String.trim msg)))

(* --- fault flags and the faultsweep campaign ---------------------------- *)

let test_run_fault_flags_validate () =
  check_exit "out-of-range --fault-rate is a CLI error" 124
    (sh "%s run copy --fault-rate 1.5 >/dev/null 2>&1" metasim);
  check_exit "out-of-range crashsweep --fault-rate is a CLI error" 124
    (sh
       "%s crashsweep --faults --fault-rate 5 -w renamefile --schemes soft \
        --max-boundaries 1 >/dev/null 2>&1"
       metasim);
  check_exit "negative --bad-sectors is a CLI error" 124
    (sh "%s run copy --bad-sectors=-3 >/dev/null 2>&1" metasim);
  check_exit "negative --spares is a CLI error" 124
    (sh "%s run copy --spares=-1 >/dev/null 2>&1" metasim);
  (* a negative or non-finite scrub interval used to run silently
     without a scrubber *)
  List.iter
    (fun v ->
      check_exit ("--scrub-interval " ^ v ^ " is a CLI error") 124
        (sh "%s run copy --scrub-interval=%s >/dev/null 2>&1" metasim v))
    [ "-1"; "nan"; "inf" ];
  (* a negative --jobs or sweep cap used to escape as an untyped
     Invalid_argument, or clamp to an empty, vacuously passing sweep *)
  List.iter
    (fun args ->
      check_exit (args ^ " is a CLI error") 124
        (sh "%s %s >/dev/null 2>&1" metasim args))
    [
      "crashsweep --jobs=-1"; "faultsweep --jobs=-1"; "corruptsweep --jobs=-1";
      "fuzz --jobs=-1"; "loadgen --jobs=-1";
      "faultsweep --max-sectors=-1"; "corruptsweep --max-injections=-1";
      "crashsweep --max-boundaries=-3"; "fuzz --max-boundaries=-1";
    ]

let test_run_bad_sector_exits_typed () =
  (* an unreadable metadata sector with no spares must surface as the
     documented one-line typed failure, exit 3 — never a backtrace. So
     must a journal commit whose log write fails (the log starts just
     past the 1 GB media), synchronous or in a group commit's batch: it
     used to count as durable and the run exited 0. Its trace is still
     written, failed write and all *)
  let trace = Filename.temp_file "metasim" ".jsonl" in
  Sys.remove trace;
  List.iter
    (fun args ->
      let err = Filename.temp_file "metasim" ".err" in
      check_exit (args ^ ": typed I/O failure exits 3") 3
        (sh "%s %s >/dev/null 2> %s" metasim args (Filename.quote err));
      let msg = read_file err in
      Sys.remove err;
      Alcotest.(check bool) ("one-line typed message: " ^ msg) true
        (String.starts_with ~prefix:"metasim: I/O error: " msg
        && not (String.exists (fun c -> c = '\n') (String.trim msg))))
    [
      "run copy -s soft --bad-sectors 16";
      "run -s journal --files 50 -u 1 --bad-sectors 1048576";
      "run -s journal-group --files 50 -u 1 --bad-sectors 1048576";
    ];
  check_exit "typed failure with --trace-out exits 3" 3
    (sh "%s run -s journal --files 50 -u 1 --bad-sectors 1048576 \
         --trace-out %s >/dev/null 2>&1"
       metasim (Filename.quote trace));
  Alcotest.(check bool) "trace written" true (Sys.file_exists trace);
  let kinds =
    String.split_on_char '\n' (read_file trace)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Json.parse line with
           | Ok d -> Option.bind (Json.member "kind" d) Json.to_str
           | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e)
  in
  Sys.remove trace;
  Alcotest.(check bool) "the failed write is traced" true
    (List.mem (Some "io.fail") kinds)

let test_faultsweep_smoke () =
  check_exit "faultsweep campaign passes" 0
    (sh
       "%s faultsweep -w renamefile --schemes soft --jobs 2 --max-sectors 6 \
        --spares 8 >/dev/null 2>&1"
       metasim)

(* --- --json document ---------------------------------------------------- *)

let test_run_json_parses () =
  let out = Filename.temp_file "measures" ".json" in
  check_exit "run --json exits 0" 0
    (sh "%s run create --files 300 -u 2 --json > %s 2>/dev/null" metasim
       (Filename.quote out));
  let doc =
    match Json.parse (read_file out) with
    | Ok d -> d
    | Error e -> Alcotest.failf "run --json is not valid JSON: %s" e
  in
  Sys.remove out;
  Alcotest.(check (option string)) "benchmark field" (Some "create")
    (Option.bind (Json.member "benchmark" doc) Json.to_str);
  let m =
    match Json.member "measures" doc with
    | Some m -> m
    | None -> Alcotest.fail "no measures object"
  in
  let f name =
    match Option.bind (Json.member name m) Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "measures.%s missing" name
  in
  Alcotest.(check bool) "requests positive" true (f "disk_requests" > 0.0);
  let p50 = f "response_p50_ms"
  and p90 = f "response_p90_ms"
  and p99 = f "response_p99_ms"
  and pmax = f "response_max_ms" in
  Alcotest.(check bool) "percentiles ordered" true
    (0.0 <= p50 && p50 <= p90 && p90 <= p99 && p99 <= pmax);
  (match Json.member "counters" m with
   | Some (Json.Obj kvs) ->
     Alcotest.(check bool) "counters non-empty" true (List.length kvs > 0);
     Alcotest.(check bool) "cache counters present" true
       (List.mem_assoc "cache.hits" kvs);
     Alcotest.(check bool) "fault counters present" true
       (List.mem_assoc "fault.injected" kvs
       && List.mem_assoc "fault.health_level" kvs)
   | _ -> Alcotest.fail "measures.counters missing")

(* --- --trace-out JSONL replay ------------------------------------------- *)

let test_trace_out_replays () =
  let out = Filename.temp_file "measures" ".json" in
  let trace = Filename.temp_file "trace" ".jsonl" in
  check_exit "run --trace-out exits 0" 0
    (sh "%s run create --files 300 -u 2 --json --trace-out %s > %s 2>/dev/null"
       metasim (Filename.quote trace) (Filename.quote out));
  let doc =
    match Json.parse (read_file out) with
    | Ok d -> d
    | Error e -> Alcotest.failf "measures JSON: %s" e
  in
  let requests =
    match
      Option.bind (Json.member "measures" doc) (fun m ->
          Option.bind (Json.member "disk_requests" m) Json.to_int)
    with
    | Some n -> n
    | None -> Alcotest.fail "disk_requests missing"
  in
  (* replay the JSONL: every line parses; the io.complete events after
     the last trace.reset marker must equal the measured request count *)
  let events =
    String.split_on_char '\n' (read_file trace)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Json.parse line with
           | Ok d -> d
           | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e)
  in
  Sys.remove out;
  Sys.remove trace;
  Alcotest.(check bool) "trace non-empty" true (List.length events > 0);
  let kind d = Option.bind (Json.member "kind" d) Json.to_str in
  List.iter
    (fun d ->
      Alcotest.(check bool) "every event has t and kind" true
        (kind d <> None && Json.member "t" d <> None))
    events;
  let completes_since_reset =
    List.fold_left
      (fun acc d ->
        match kind d with
        | Some "trace.reset" -> 0
        | Some "io.complete" -> acc + 1
        | _ -> acc)
      0 events
  in
  Alcotest.(check int) "JSONL replays to the measured request count" requests
    completes_since_reset;
  Alcotest.(check bool) "fs ops traced" true
    (List.exists (fun d -> kind d = Some "fs.create") events)

let suite =
  [
    Alcotest.test_case "run: unknown benchmark" `Quick test_run_unknown_bench;
    Alcotest.test_case "run: unknown scheme" `Quick test_run_unknown_scheme;
    Alcotest.test_case "run: valid benchmark" `Quick test_run_known_bench_ok;
    Alcotest.test_case "crashsweep: no valid workloads" `Quick
      (no_valid_workloads "crashsweep");
    Alcotest.test_case "faultsweep: no valid workloads" `Quick
      (no_valid_workloads "faultsweep");
    Alcotest.test_case "corruptsweep: no valid workloads" `Quick
      (no_valid_workloads "corruptsweep");
    Alcotest.test_case "crashsweep: --demand consistent" `Quick
      test_crashsweep_demand_consistent;
    Alcotest.test_case "bench: unknown experiment id" `Quick
      test_bench_unknown_experiment;
    Alcotest.test_case "bench: --assert-shapes bad input" `Quick
      test_bench_assert_shapes_bad_input;
    Alcotest.test_case "bench: --assert-shapes verdicts" `Quick
      test_bench_assert_shapes_verdicts;
    Alcotest.test_case "bench: bad flags exit 2" `Quick test_bench_bad_flags;
    Alcotest.test_case "bench: perf ledger JSON" `Quick test_bench_perf_ledger;
    Alcotest.test_case "bench: unwritable --json exits 2" `Quick
      test_bench_unwritable_json;
    Alcotest.test_case "run: fault flags validate" `Quick
      test_run_fault_flags_validate;
    Alcotest.test_case "run: bad sector exits typed" `Quick
      test_run_bad_sector_exits_typed;
    Alcotest.test_case "faultsweep: smoke campaign" `Quick test_faultsweep_smoke;
    Alcotest.test_case "run --json parses" `Quick test_run_json_parses;
    Alcotest.test_case "run --trace-out replays" `Quick test_trace_out_replays;
  ]
