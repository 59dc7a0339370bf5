(* The seeded workload fuzzer: deterministic generation, the model
   oracle against the fault-free final image, nested crash sweeps over
   fuzzed workloads, and greedy shrinking down to a minimal
   reproducer. *)
open Su_fstypes
open Su_fs
open Su_workload

let test_gen_deterministic () =
  let a = Fuzz.gen ~seed:42 ~ops:20 and b = Fuzz.gen ~seed:42 ~ops:20 in
  Alcotest.(check bool) "same seed, same ops" true (a = b);
  Alcotest.(check int) "requested length" 20 (List.length a);
  let c = Fuzz.gen ~seed:43 ~ops:20 in
  Alcotest.(check bool) "different seed, different ops" true (a <> c)

let test_model_skips_are_deterministic () =
  (* replaying the same ops against two fresh models must agree on
     validity op by op — the property that makes any subsequence a
     runnable workload *)
  let ops = Fuzz.gen ~seed:5 ~ops:30 in
  let m1 = Fuzz.Model.create () and m2 = Fuzz.Model.create () in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Fuzz.op_to_string op)
        (Fuzz.Model.apply m1 op) (Fuzz.Model.apply m2 op))
    ops

let run_seed ?torn ?max_boundaries ?nested_max_boundaries scheme seed ops_n =
  let ops = Fuzz.gen ~seed ~ops:ops_n in
  let r =
    Fuzz.run_case ?torn ?max_boundaries ?nested_max_boundaries ~jobs:0
      ~cfg:(Su_check.Explorer.sweep_cfg scheme)
      ~name:(Printf.sprintf "fuzz-%d" seed)
      ops
  in
  (ops, r)

let test_case_passes () =
  let _ops, r = run_seed Fs.Soft_updates 7 8 in
  (match Fuzz.failure r with
   | Some why -> Alcotest.failf "seed 7 failed: %s" why
   | None -> ());
  Alcotest.(check int) "oracle agrees with the final image" 0
    (List.length r.Fuzz.cr_mismatches);
  Alcotest.(check bool) "nested states explored" true
    (r.Fuzz.cr_summary.Su_check.Explorer.s_nested_states
    > r.Fuzz.cr_summary.Su_check.Explorer.s_states)

let test_multi_seed_nested () =
  List.iter
    (fun scheme ->
      for seed = 1 to 4 do
        let _ops, r = run_seed scheme seed 6 in
        match Fuzz.failure r with
        | Some why ->
          Alcotest.failf "%s seed %d: %s" (Fs.scheme_kind_name scheme) seed why
        | None -> ()
      done)
    [ Fs.Soft_updates; Fs.Journaled { group_commit = false } ]

let test_shrink_minimal () =
  let ops = Fuzz.gen ~seed:11 ~ops:40 in
  let mkdirs l =
    List.length (List.filter (function Fuzz.Mkdir _ -> true | _ -> false) l)
  in
  (* "fails" iff it contains at least two mkdirs: greedy shrinking must
     strip everything else and exactly the surplus mkdirs *)
  let still_fails l = mkdirs l >= 2 in
  Alcotest.(check bool) "original fails" true (still_fails ops);
  let small = Fuzz.shrink ~still_fails ops in
  Alcotest.(check bool) "shrunk still fails" true (still_fails small);
  Alcotest.(check int) "locally minimal" 2 (List.length small)

(* End to end: a non-idempotent repair makes every crash sweep fail the
   fixed-point check; the fuzzer must notice and shrink the failing
   workload to a minimal reproducer. *)
let test_violation_shrinks () =
  Fsck.repair_test_hook :=
    Some
      (fun image ->
        let lbn = Array.length image - 1 in
        match image.(lbn) with
        | Types.Frag Types.Zeroed -> [ (lbn, Types.Empty) ]
        | _ -> [ (lbn, Types.Frag Types.Zeroed) ]);
  Fun.protect
    ~finally:(fun () -> Fsck.repair_test_hook := None)
    (fun () ->
      let cfg = Su_check.Explorer.sweep_cfg Fs.Soft_updates in
      let case ops =
        Fuzz.run_case ~torn:false ~jobs:0 ~max_boundaries:3
          ~nested_max_boundaries:4 ~cfg ~name:"chaos" ops
      in
      let ops = Fuzz.gen ~seed:3 ~ops:8 in
      Alcotest.(check bool) "violation detected" true
        (Fuzz.failure (case ops) <> None);
      let still_fails l = Fuzz.failure (case l) <> None in
      let small = Fuzz.shrink ~still_fails ops in
      Alcotest.(check bool) "non-empty reproducer within ten ops" true
        (small <> [] && List.length small <= 10);
      Alcotest.(check bool) "reproducer still fails" true (still_fails small))

let suite =
  [
    Alcotest.test_case "gen is deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "model validity is deterministic" `Quick
      test_model_skips_are_deterministic;
    Alcotest.test_case "fuzz case passes nested sweep and oracle" `Slow
      test_case_passes;
    Alcotest.test_case "multi-seed nested fuzz, soft + journal" `Slow
      test_multi_seed_nested;
    Alcotest.test_case "shrink reaches a local minimum" `Quick
      test_shrink_minimal;
    Alcotest.test_case "violation shrinks to a small reproducer" `Slow
      test_violation_shrinks;
  ]
