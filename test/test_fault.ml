(* Fault injection: transient errors absorbed by driver retries,
   permanent errors failed fast with typed causes, torn writes applying
   only a prefix, per-request timeouts, and the cache's handling of
   failed writes. *)
open Su_sim
open Su_fstypes
open Su_disk

let mk_disk ?(nfrags = 65536) ?fault () =
  let e = Engine.create () in
  let d = Disk.create ~engine:e ~params:Disk_params.hp_c2447 ~nfrags ?fault () in
  (e, d)

let mk_stack ?fault ?(config = Su_driver.Driver.default_config) () =
  let e, d = mk_disk ?fault () in
  let drv = Su_driver.Driver.create ~engine:e ~disk:d config in
  (e, d, drv)

let payload n = Array.make n (Types.Frag Types.Zeroed)

(* --- disk-level fault model ------------------------------------------- *)

let test_none_is_silent () =
  let f = Fault.create Fault.none in
  for i = 0 to 99 do
    match Fault.judge f ~op:`Write ~lbn:(i * 8) ~nfrags:8 () with
    | Fault.Ok_attempt -> ()
    | Fault.Stalled | Fault.Failed _ | Fault.Silent _ ->
      Alcotest.fail "fault without a model"
  done;
  Alcotest.(check int) "nothing injected" 0 (Fault.injected f)

let test_transient_rates () =
  let f = Fault.create (Fault.transient ~seed:7 ~rate:0.1 ()) in
  let fails = ref 0 and stalls = ref 0 in
  for i = 0 to 999 do
    match Fault.judge f ~op:(if i land 1 = 0 then `Read else `Write) ~lbn:i ~nfrags:4 () with
    | Fault.Failed _ -> incr fails
    | Fault.Stalled -> incr stalls
    | Fault.Ok_attempt -> ()
    | Fault.Silent _ -> Alcotest.fail "silent classes are off"
  done;
  Alcotest.(check bool) "failures drawn" true (!fails > 50 && !fails < 200);
  Alcotest.(check bool) "stalls drawn" true (!stalls > 0);
  Alcotest.(check int) "counter matches" (!fails + !stalls) (Fault.injected f)

let test_torn_write_applies_prefix () =
  (* a write across a bad sector applies exactly the fragments before
     it, and the completion carries the typed cause *)
  let fault = { Fault.none with Fault.bad_sectors = [ 102 ]; torn_writes = true } in
  let e, d = mk_disk ~fault () in
  let p = Array.init 4 (fun i -> Types.Frag (Types.Written { inum = 9; gen = 1; flbn = i })) in
  let seen = ref None in
  Disk.submit d ~lbn:100 ~nfrags:4 ~op:Disk.Write ~payload:(Some p)
    ~on_done:(fun r _svc -> seen := Some r);
  Engine.run e;
  (match !seen with
   | Some (Error (Fault.Bad_sector { lbn })) ->
     Alcotest.(check int) "failing sector" 102 lbn
   | _ -> Alcotest.fail "expected a bad-sector error");
  Alcotest.(check bool) "prefix applied" true
    (Disk.peek d 100 <> Types.Empty && Disk.peek d 101 <> Types.Empty);
  Alcotest.(check bool) "tail lost" true
    (Disk.peek d 102 = Types.Empty && Disk.peek d 103 = Types.Empty);
  Alcotest.(check int) "one injection" 1 (Disk.faults_injected d)

let test_write_observer_sees_applied_extents () =
  let e, d = mk_disk () in
  let log = ref [] in
  Disk.set_delta_observer d (fun ~lbn ~pre ~post ->
      Alcotest.(check int) "pre/post lengths" (Array.length post)
        (Array.length pre);
      log := (lbn, Array.length post) :: !log);
  Disk.submit d ~lbn:40 ~nfrags:2 ~op:Disk.Write ~payload:(Some (payload 2))
    ~on_done:(fun _ _ -> ());
  Engine.run e;
  Alcotest.(check (list (pair int int))) "observed" [ (40, 2) ] !log

(* --- driver retry / fail-fast / timeout -------------------------------- *)

let test_driver_retries_transients () =
  (* rate high enough that some of the writes fail on the first
     attempt; the driver must retry every one to completion *)
  let e, d, drv = mk_stack ~fault:(Fault.transient ~seed:11 ~rate:0.25 ()) () in
  let completed = ref 0 and errors = ref 0 in
  for i = 0 to 39 do
    ignore
      (Su_driver.Driver.submit drv ~kind:Su_driver.Request.Write ~lbn:(i * 64)
         ~nfrags:8 ~payload:(payload 8)
         ~on_complete:(fun r ->
           incr completed;
           if Result.is_error r then incr errors)
         ())
  done;
  ignore (Proc.spawn e (fun () -> Su_driver.Driver.quiesce drv));
  Engine.run e;
  let tr = Su_driver.Driver.trace drv in
  Alcotest.(check int) "all completed" 40 !completed;
  Alcotest.(check int) "no failures surfaced" 0 !errors;
  Alcotest.(check bool) "faults were injected" true (Disk.faults_injected d > 0);
  Alcotest.(check bool) "retries recorded" true (Su_driver.Trace.io_retries tr > 0);
  Alcotest.(check int) "no failure recorded" 0 (Su_driver.Trace.io_failures tr)

let test_driver_fail_fast_on_bad_sector () =
  (* a permanent bad sector exhausts the attempt budget, surfaces a
     typed error, and does not wedge later requests *)
  let fault = { Fault.none with Fault.bad_sectors = [ 501 ] } in
  let config = { Su_driver.Driver.default_config with max_attempts = 3 } in
  let e, _d, drv = mk_stack ~fault ~config () in
  let failed = ref None and ok = ref 0 in
  ignore
    (Su_driver.Driver.submit drv ~kind:Su_driver.Request.Write ~lbn:500 ~nfrags:4
       ~payload:(payload 4)
       ~on_complete:(fun r -> match r with Error e -> failed := Some e | Ok _ -> ())
       ());
  ignore
    (Su_driver.Driver.submit drv ~kind:Su_driver.Request.Write ~lbn:900 ~nfrags:4
       ~payload:(payload 4)
       ~on_complete:(fun r -> if Result.is_ok r then incr ok)
       ());
  ignore (Proc.spawn e (fun () -> Su_driver.Driver.quiesce drv));
  Engine.run e;
  (match !failed with
   | Some (Fault.Bad_sector { lbn }) -> Alcotest.(check int) "cause" 501 lbn
   | _ -> Alcotest.fail "expected a bad-sector failure");
  Alcotest.(check int) "later request unaffected" 1 !ok;
  let tr = Su_driver.Driver.trace drv in
  Alcotest.(check int) "retried until the budget" 2 (Su_driver.Trace.io_retries tr);
  Alcotest.(check int) "one failure" 1 (Su_driver.Trace.io_failures tr)

let test_driver_timeout_rejects_stalls () =
  (* every attempt stalls 50x past the deadline: the driver must abort
     each one and fail the request with the timeout cause *)
  let fault = { Fault.none with Fault.seed = 3; stall = 1.0; stall_factor = 50.0 } in
  let config =
    { Su_driver.Driver.default_config with max_attempts = 2; request_timeout = 0.05 }
  in
  let e, _d, drv = mk_stack ~fault ~config () in
  let failed = ref None in
  ignore
    (Su_driver.Driver.submit drv ~kind:Su_driver.Request.Write ~lbn:64 ~nfrags:8
       ~payload:(payload 8)
       ~on_complete:(fun r -> match r with Error err -> failed := Some err | Ok _ -> ())
       ());
  ignore (Proc.spawn e (fun () -> Su_driver.Driver.quiesce drv));
  Engine.run e;
  match !failed with
  | Some (Fault.Timeout { elapsed; limit }) ->
    Alcotest.(check bool) "elapsed past limit" true (elapsed > limit)
  | _ -> Alcotest.fail "expected a timeout failure"

(* --- cache behaviour on write failure ---------------------------------- *)

let test_cache_redirties_failed_write () =
  let fault = { Fault.none with Fault.bad_sectors = [ 300 ] } in
  let config = { Su_driver.Driver.default_config with max_attempts = 2 } in
  let e, _d, drv = mk_stack ~fault ~config () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.capacity_frags = 1024; cb = false;
        copy_cost = (fun _ -> ()); sink = None }
  in
  let result = ref None in
  let _p =
    Proc.spawn e (fun () ->
        let b =
          Su_cache.Bcache.getblk bc ~lbn:300 ~nfrags:2 ~init:(fun () ->
              Su_cache.Buf.Cdata (Array.make 2 (Some Types.Zeroed)))
        in
        Su_cache.Bcache.bdwrite bc b;
        ignore
          (Su_cache.Bcache.bawrite bc b ~notify:(fun r -> result := Some r));
        Su_cache.Bcache.wait_write bc b;
        Alcotest.(check bool) "buffer re-dirtied" true b.Su_cache.Buf.dirty;
        Su_cache.Bcache.release bc b)
  in
  Engine.run e;
  (match !result with
   | Some (Error (Fault.Bad_sector _)) -> ()
   | _ -> Alcotest.fail "expected the notify to carry the error");
  Alcotest.(check int) "cache counted the failure" 1
    (Su_cache.Bcache.io_failures bc)

let test_cache_sync_io_error_typed () =
  (* bwrite_sync used to hang or die on [Failure]; now it raises the
     typed [Io_error] carrying the device cause *)
  let fault = { Fault.none with Fault.bad_sectors = [ 310 ] } in
  let config = { Su_driver.Driver.default_config with max_attempts = 2 } in
  let e, _d, drv = mk_stack ~fault ~config () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.capacity_frags = 1024; cb = false;
        copy_cost = (fun _ -> ()); sink = None }
  in
  let raised = ref false in
  let _p =
    Proc.spawn e (fun () ->
        let b =
          Su_cache.Bcache.getblk bc ~lbn:310 ~nfrags:1 ~init:(fun () ->
              Su_cache.Buf.Cdata (Array.make 1 (Some Types.Zeroed)))
        in
        (try Su_cache.Bcache.bwrite_sync bc b with
         | Su_cache.Bcache.Io_error (Fault.Bad_sector { lbn }) ->
           Alcotest.(check int) "cause lbn" 310 lbn;
           raised := true);
        Su_cache.Bcache.release bc b)
  in
  Engine.run e;
  Alcotest.(check bool) "typed error raised" true !raised

let suite =
  [
    Alcotest.test_case "no model, no faults" `Quick test_none_is_silent;
    Alcotest.test_case "transient rates" `Quick test_transient_rates;
    Alcotest.test_case "torn write applies a prefix" `Quick
      test_torn_write_applies_prefix;
    Alcotest.test_case "write observer" `Quick
      test_write_observer_sees_applied_extents;
    Alcotest.test_case "driver retries transients" `Quick
      test_driver_retries_transients;
    Alcotest.test_case "driver fail-fast on bad sector" `Quick
      test_driver_fail_fast_on_bad_sector;
    Alcotest.test_case "driver timeout" `Quick test_driver_timeout_rejects_stalls;
    Alcotest.test_case "cache re-dirties failed write" `Quick
      test_cache_redirties_failed_write;
    Alcotest.test_case "cache sync io error typed" `Quick
      test_cache_sync_io_error_typed;
  ]
