(* Unit tests for the observability layer: histograms, the JSON
   printer/parser, event sinks, the trace record cache and the
   nan/inf guards on report cells. *)
open Su_obs

(* --- Hist --------------------------------------------------------------- *)

let test_hist_exact_moments () =
  let h = Hist.create () in
  let xs = [ 0.0012; 0.5; 0.031; 7.0; 0.0012; 0.25 ] in
  List.iter (Hist.add h) xs;
  let n = List.length xs in
  let sum = List.fold_left ( +. ) 0.0 xs in
  Alcotest.(check int) "count" n (Hist.count h);
  Alcotest.(check (float 1e-12)) "sum" sum (Hist.sum h);
  Alcotest.(check (float 1e-12)) "mean" (sum /. float_of_int n) (Hist.mean h);
  Alcotest.(check (float 0.0)) "min" 0.0012 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "max" 7.0 (Hist.max_value h)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h);
  Alcotest.(check (float 0.0)) "min" 0.0 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "max" 0.0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "p50" 0.0 (Hist.percentile h 50.0)

let test_hist_dropped () =
  let h = Hist.create () in
  Hist.add h (-1.0);
  Hist.add h Float.nan;
  Hist.add h Float.infinity;
  Hist.add h 1.0;
  Alcotest.(check int) "dropped" 3 (Hist.dropped h);
  Alcotest.(check int) "count" 1 (Hist.count h)

let test_hist_percentile_bucketed () =
  (* power-of-two buckets: any percentile lies within a factor of two
     of the true order statistic, and inside [min,max] *)
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.add h (0.001 *. float_of_int i)
  done;
  let p50 = Hist.percentile h 50.0 in
  let p99 = Hist.percentile h 99.0 in
  Alcotest.(check bool) "p50 near median" true (p50 >= 0.25 && p50 <= 1.0);
  Alcotest.(check bool) "p99 above p50" true (p99 >= p50);
  Alcotest.(check bool) "bounded by max" true
    (p99 <= Hist.max_value h +. 1e-12);
  Alcotest.(check (float 1e-9)) "p100 is exact max" (Hist.max_value h)
    (Hist.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "p0 is exact min" (Hist.min_value h)
    (Hist.percentile h 0.0)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 0.001; 0.1 ];
  List.iter (Hist.add b) [ 0.002; 3.0 ];
  Hist.merge_into ~dst:a b;
  Alcotest.(check int) "count" 4 (Hist.count a);
  Alcotest.(check (float 1e-12)) "sum" 3.103 (Hist.sum a);
  Alcotest.(check (float 0.0)) "min" 0.001 (Hist.min_value a);
  Alcotest.(check (float 0.0)) "max" 3.0 (Hist.max_value a)

(* [Hist.merge a b] must equal adding both sample sets serially into
   one histogram — this is what lets parallel loadgen shards merge by
   index and render byte-identical reports at any --jobs. Samples are
   dyadic rationals (k/1024) so every float sum is exact and equality
   checks are [=], not approximate. *)
let prop_merge_matches_serial =
  QCheck.Test.make ~name:"hist merge equals serial accumulation" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 60) (int_range 1 4096))
        (list_of_size Gen.(0 -- 60) (int_range 1 4096)))
    (fun (xs, ys) ->
      let v k = float_of_int k /. 1024.0 in
      let a = Hist.create () and b = Hist.create () in
      let serial = Hist.create () in
      List.iter (fun k -> Hist.add a (v k)) xs;
      List.iter (fun k -> Hist.add b (v k)) ys;
      List.iter (fun k -> Hist.add serial (v k)) (xs @ ys);
      let m = Hist.merge a b in
      Hist.count m = Hist.count serial
      && Hist.sum m = Hist.sum serial
      && Hist.min_value m = Hist.min_value serial
      && Hist.max_value m = Hist.max_value serial
      && Hist.buckets m = Hist.buckets serial
      && List.for_all
           (fun p -> Hist.percentile m p = Hist.percentile serial p)
           [ 0.0; 50.0; 90.0; 99.0; 100.0 ]
      (* and merge leaves its arguments untouched *)
      && Hist.count a = List.length xs
      && Hist.count b = List.length ys)

(* --- Json --------------------------------------------------------------- *)

let sample_doc =
  Json.Obj
    [
      ("name", Json.Str "a \"quoted\"\nstring\twith\\escapes");
      ("n", Json.Int 42);
      ("neg", Json.Int (-7));
      ("pi", Json.Float 3.14159265358979312);
      ("tenth", Json.Float 0.1);
      ("tiny", Json.Float 1.5e-9);
      ("whole", Json.Float 2048.0);
      ("flag", Json.Bool true);
      ("nothing", Json.Null);
      ( "xs",
        Json.List [ Json.Int 1; Json.Str "two"; Json.List []; Json.Obj [] ] );
    ]

(* [add_int]'s shift-based bucketing must agree exactly with [add] on
   the float value, across powers of two and their neighbours (where
   an off-by-one in the log would land in the wrong bucket), for both
   the integer fast path (base 1.0) and the fallback. *)
let test_hist_add_int_matches_add () =
  List.iter
    (fun base ->
      let a = Hist.create ~base ~buckets:32 () in
      let b = Hist.create ~base ~buckets:32 () in
      let samples =
        [ 0; 1; 2; 3; 4; 7; 8; 9; 63; 64; 65; 1023; 1024; 1025; 123_456 ]
      in
      List.iter
        (fun d ->
          Hist.add a (float_of_int d);
          Hist.add_int b d)
        samples;
      Alcotest.(check int)
        (Printf.sprintf "count at base %g" base)
        (Hist.count a) (Hist.count b);
      Alcotest.(check (list (pair (float 1e-9) int)))
        (Printf.sprintf "buckets at base %g" base)
        (Hist.buckets a) (Hist.buckets b);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sum at base %g" base)
        (Hist.sum a) (Hist.sum b))
    [ 1.0; 0.5 ];
  let h = Hist.create ~base:1.0 () in
  Hist.add_int h (-3);
  Alcotest.(check int) "negative dropped" 1 (Hist.dropped h);
  Alcotest.(check int) "negative not counted" 0 (Hist.count h)

let test_json_roundtrip () =
  List.iter
    (fun render ->
      match Json.parse (render sample_doc) with
      | Error e -> Alcotest.failf "parse error: %s" e
      | Ok doc' ->
        Alcotest.(check bool) "round-trips" true (Json.equal sample_doc doc'))
    [ Json.to_string; Json.to_string_pretty ]

let test_json_float_exact () =
  (* the printed representation must parse back to the same bits *)
  List.iter
    (fun x ->
      match Json.parse (Json.to_string (Json.Float x)) with
      | Ok (Json.Float y) ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives" x)
          true
          (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      | Ok _ -> Alcotest.fail "not a float"
      | Error e -> Alcotest.failf "parse error: %s" e)
    [ 0.1; 1.0 /. 3.0; 1e300; 5e-324; 123456789.25; 0.0 ]

let test_json_nonfinite_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-inf" "null"
    (Json.to_string (Json.Float Float.neg_infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  let doc = sample_doc in
  Alcotest.(check (option int)) "to_int" (Some 42)
    (Option.bind (Json.member "n" doc) Json.to_int);
  Alcotest.(check (option (float 0.0))) "int as float" (Some 42.0)
    (Option.bind (Json.member "n" doc) Json.to_float);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" doc = None);
  Alcotest.(check bool) "get raises" true
    (try
       ignore (Json.get "zzz" doc);
       false
     with Not_found -> true)

(* --- Events ------------------------------------------------------------- *)

let test_events_basic () =
  let ev = Events.create () in
  Events.emit ev ~t_sim:0.5 ~kind:"io.complete" [ ("id", Json.Int 1) ];
  Events.emit ev ~t_sim:1.0 ~kind:"trace.reset" [];
  Events.emit ev ~t_sim:1.5 ~kind:"io.complete" [ ("id", Json.Int 2) ];
  Events.emit ev ~t_sim:2.0 ~kind:"io.complete" [ ("id", Json.Int 3) ];
  Alcotest.(check int) "count" 4 (Events.count ev);
  Alcotest.(check int) "count_kind" 3 (Events.count_kind ev "io.complete");
  Alcotest.(check int) "since marker" 2
    (Events.count_kind_since_marker ev ~marker:"trace.reset"
       ~kind:"io.complete");
  Alcotest.(check int) "no such marker counts all" 3
    (Events.count_kind_since_marker ev ~marker:"bogus" ~kind:"io.complete");
  (* every line is standalone JSON carrying t and kind, in order *)
  let lines = Events.to_lines ev in
  Alcotest.(check int) "one line per event" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok doc ->
        Alcotest.(check bool) "has t" true (Json.member "t" doc <> None);
        Alcotest.(check bool) "has kind" true (Json.member "kind" doc <> None)
      | Error e -> Alcotest.failf "bad line %S: %s" line e)
    lines;
  (match Json.parse (List.hd lines) with
   | Ok doc ->
     Alcotest.(check (option string)) "first kind" (Some "io.complete")
       (Option.bind (Json.member "kind" doc) Json.to_str)
   | Error e -> Alcotest.failf "parse: %s" e);
  Events.clear ev;
  Alcotest.(check int) "cleared" 0 (Events.count ev)

(* --- Trace record cache ------------------------------------------------- *)

let mk_record i =
  {
    Su_driver.Trace.r_id = i;
    r_kind = Su_driver.Request.Write;
    r_lbn = 8 * i;
    r_nfrags = 1;
    r_sync = false;
    r_issue = float_of_int i;
    r_start = float_of_int i +. 0.1;
    r_complete = float_of_int i +. 0.2;
  }

let test_trace_records_cached () =
  let tr = Su_driver.Trace.create ~keep_records:true () in
  for i = 1 to 5 do
    Su_driver.Trace.note tr (mk_record i)
  done;
  let r1 = Su_driver.Trace.records tr in
  let r2 = Su_driver.Trace.records tr in
  Alcotest.(check bool) "same list physically" true (r1 == r2);
  Alcotest.(check (list int)) "chronological" [ 1; 2; 3; 4; 5 ]
    (List.map (fun r -> r.Su_driver.Trace.r_id) r1);
  Su_driver.Trace.note tr (mk_record 6);
  let r3 = Su_driver.Trace.records tr in
  Alcotest.(check bool) "cache invalidated by note" true (r3 != r1);
  Alcotest.(check int) "sees the new record" 6 (List.length r3)

(* --- nan/inf guards on report cells ------------------------------------- *)

let test_cell_f_guards () =
  Alcotest.(check string) "nan" "-" (Su_util.Text_table.cell_f Float.nan);
  Alcotest.(check string) "inf" "-" (Su_util.Text_table.cell_f Float.infinity);
  Alcotest.(check string) "-inf" "-"
    (Su_util.Text_table.cell_f Float.neg_infinity);
  Alcotest.(check string) "finite" "1.5" (Su_util.Text_table.cell_f 1.5)

let suite =
  [
    Alcotest.test_case "hist exact moments" `Quick test_hist_exact_moments;
    Alcotest.test_case "hist empty" `Quick test_hist_empty;
    Alcotest.test_case "hist drops bad samples" `Quick test_hist_dropped;
    Alcotest.test_case "hist bucketed percentiles" `Quick
      test_hist_percentile_bucketed;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    QCheck_alcotest.to_alcotest prop_merge_matches_serial;
    Alcotest.test_case "hist add_int matches add" `Quick
      test_hist_add_int_matches_add;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats exact" `Quick test_json_float_exact;
    Alcotest.test_case "json non-finite is null" `Quick
      test_json_nonfinite_null;
    Alcotest.test_case "json rejects malformed" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "event sink" `Quick test_events_basic;
    Alcotest.test_case "trace records cached" `Quick test_trace_records_cached;
    Alcotest.test_case "table cells never nan" `Quick test_cell_f_guards;
  ]
