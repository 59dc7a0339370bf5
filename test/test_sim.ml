(* Tests for the discrete-event engine, processes and synchronisation. *)
open Su_sim

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 2.0 (fun () -> log := 2 :: !log);
  Engine.at e 1.0 (fun () -> log := 1 :: !log);
  Engine.at e 3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.at e 1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo among equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.at e 5.0 (fun () -> fired := true);
  Engine.run ~until:2.0 e;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check (float 1e-9)) "clock clamped" 2.0 (Engine.now e)

let test_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.at e 1.0 (fun () ->
      incr count;
      Engine.stop e);
  Engine.at e 2.0 (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !count

let test_proc_sleep () =
  let e = Engine.create () in
  let t_end = ref 0.0 in
  let _p =
    Proc.spawn e (fun () ->
        Proc.sleep e 1.5;
        Proc.sleep e 0.5;
        t_end := Engine.now e)
  in
  Engine.run e;
  Alcotest.(check (float 1e-9)) "slept 2s" 2.0 !t_end

let test_proc_join () =
  let e = Engine.create () in
  let order = ref [] in
  let worker =
    Proc.spawn e ~name:"w" (fun () ->
        Proc.sleep e 3.0;
        order := "w" :: !order)
  in
  let _boss =
    Proc.spawn e ~name:"b" (fun () ->
        Proc.join e worker;
        order := "b" :: !order)
  in
  Engine.run e;
  Alcotest.(check (list string)) "worker then boss" [ "w"; "b" ] (List.rev !order)

let test_proc_failure_propagates () =
  let e = Engine.create () in
  let _p = Proc.spawn e ~name:"boom" (fun () -> failwith "bang") in
  Alcotest.check_raises "wrapped"
    (Proc.Process_failure ("boom", Failure "bang"))
    (fun () -> Engine.run e)

let test_ivar () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create e in
  let got = ref 0 in
  let _reader = Proc.spawn e (fun () -> got := Proc.Ivar.read iv) in
  let _writer =
    Proc.spawn e (fun () ->
        Proc.sleep e 1.0;
        Proc.Ivar.fill iv 42)
  in
  Engine.run e;
  Alcotest.(check int) "value delivered" 42 !got

let test_mutex_excludes () =
  let e = Engine.create () in
  let m = Sync.Mutex.create e in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sync.Mutex.with_lock m (fun () ->
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Proc.sleep e 1.0;
        decr inside)
  in
  for _ = 1 to 4 do
    ignore (Proc.spawn e worker)
  done;
  Engine.run e;
  Alcotest.(check int) "one at a time" 1 !max_inside;
  Alcotest.(check (float 1e-9)) "serialised" 4.0 (Engine.now e)

let test_semaphore_limits () =
  let e = Engine.create () in
  let s = Sync.Semaphore.create e 2 in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sync.Semaphore.acquire s;
    incr inside;
    if !inside > !max_inside then max_inside := !inside;
    Proc.sleep e 1.0;
    decr inside;
    Sync.Semaphore.release s
  in
  for _ = 1 to 6 do
    ignore (Proc.spawn e worker)
  done;
  Engine.run e;
  Alcotest.(check int) "two at a time" 2 !max_inside;
  Alcotest.(check (float 1e-9)) "three waves" 3.0 (Engine.now e)

let test_waitq_signal_broadcast () =
  let e = Engine.create () in
  let q = Sync.Waitq.create e in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Proc.spawn e (fun () ->
           Sync.Waitq.wait q;
           incr woken))
  done;
  ignore
    (Proc.spawn e (fun () ->
         Proc.sleep e 1.0;
         Sync.Waitq.signal q;
         Proc.sleep e 1.0;
         Alcotest.(check int) "one woken" 1 !woken;
         Sync.Waitq.broadcast q));
  Engine.run e;
  Alcotest.(check int) "all woken" 3 !woken

let test_cpu_fcfs () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = ref [] in
  let worker name dur () =
    Cpu.consume cpu dur;
    finish := (name, Engine.now e) :: !finish
  in
  let a = Proc.spawn e ~name:"a" (worker "a" 2.0) in
  let b = Proc.spawn e ~name:"b" (worker "b" 1.0) in
  Engine.run e;
  let find n = List.assoc n !finish in
  Alcotest.(check (float 1e-9)) "a finishes at 2" 2.0 (find "a");
  Alcotest.(check (float 1e-9)) "b queues behind a" 3.0 (find "b");
  Alcotest.(check (float 1e-9)) "a charged" 2.0 (Proc.cpu_time a);
  Alcotest.(check (float 1e-9)) "b charged" 1.0 (Proc.cpu_time b);
  Alcotest.(check (float 1e-9)) "cpu busy total" 3.0 (Cpu.busy_time cpu)

(* --- CPU charges that finish in place --------------------------------- *)

let test_cpu_charge_in_place () =
  (* back-to-back charges on an idle CPU with nothing queued never
     touch the heap: the spawn is the only event *)
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let p = Proc.spawn e (fun () -> for _ = 1 to 3 do Cpu.consume cpu 1.0 done) in
  Engine.run e;
  Alcotest.(check int) "only the spawn fired" 1 (Engine.events_executed e);
  Alcotest.(check (float 1e-9)) "clock advanced" 3.0 (Engine.now e);
  Alcotest.(check (float 1e-9)) "charged" 3.0 (Proc.cpu_time p);
  Alcotest.(check (float 1e-9)) "served" 3.0 (Cpu.busy_time cpu)

let test_cpu_charge_ties_queued_event () =
  (* an event queued for the instant the charge ends was scheduled
     first, so it fires first and the charge goes through the heap *)
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let log = ref [] in
  Engine.at e 1.0 (fun () -> log := ("event", Engine.now e) :: !log);
  ignore
    (Proc.spawn e (fun () ->
         Cpu.consume cpu 1.0;
         log := ("charge", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9)))) "event first"
    [ ("event", 1.0); ("charge", 1.0) ] (List.rev !log);
  Alcotest.(check int) "spawn, event and completion fired" 3
    (Engine.events_executed e)

let test_cpu_charge_crosses_until () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let done_at = ref nan in
  ignore
    (Proc.spawn e (fun () ->
         Cpu.consume cpu 2.0;
         done_at := Engine.now e));
  Engine.run ~until:1.0 e;
  Alcotest.(check bool) "still charging" true (Float.is_nan !done_at);
  Alcotest.(check (float 1e-9)) "clock at horizon" 1.0 (Engine.now e);
  Alcotest.(check int) "completion pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "completes on the next run" 2.0 !done_at

let test_cpu_charge_after_stop () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finished = ref false in
  let p =
    Proc.spawn e (fun () ->
        Engine.stop e;
        Cpu.consume cpu 1.0;
        finished := true)
  in
  Engine.run e;
  Engine.run e;
  Alcotest.(check bool) "never completes" false !finished;
  Alcotest.(check (float 1e-9)) "clock stays" 0.0 (Engine.now e);
  Alcotest.(check (float 1e-9)) "nothing charged" 0.0 (Proc.cpu_time p)

let test_cpu_consume_outside_process () =
  (* an idle CPU and an empty queue must not tempt an engine callback
     into the in-place path: only a process can be charged *)
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Engine.at e 1.0 (fun () -> Cpu.consume cpu 1.0);
  match Engine.run e with
  | () -> Alcotest.fail "consume outside a process returned"
  | exception Effect.Unhandled _ -> ()

let test_advance_only_inside_run () =
  let e = Engine.create () in
  Alcotest.(check bool) "fresh engine" false (Engine.advance e 1.0);
  let inside = ref [] in
  Engine.at e 1.0 (fun () ->
      let a = Engine.advance e 3.0 in
      let b = Engine.advance e 6.0 in
      inside := [ a; b; Engine.advance e 2.0 ]);
  Engine.at e 5.0 (fun () -> ());
  Engine.run ~until:4.0 e;
  Alcotest.(check (list bool))
    "forward within the horizon only, never backwards" [ true; false; false ]
    !inside;
  Alcotest.(check (float 1e-9)) "clock at horizon" 4.0 (Engine.now e);
  Alcotest.(check bool) "after run" false (Engine.advance e 4.5);
  Engine.at e 4.5 (fun () -> failwith "boom");
  (match Engine.run e with
   | () -> Alcotest.fail "callback exception swallowed"
   | exception Failure _ -> ());
  Alcotest.(check bool) "after a run that raised" false (Engine.advance e 4.6);
  Alcotest.(check (float 1e-9)) "clock untouched" 4.5 (Engine.now e)

(* The CPU as it was before charges could finish in place: every
   charge parks the process and completes through a heap event. The
   reference model for the equivalence property below. *)
module Heap_cpu = struct
  type job = { duration : float; resume : unit -> unit; owner : Proc.handle option }
  type t = { engine : Engine.t; mutable busy : bool; mutable served : float; queue : job Queue.t }

  let create engine = { engine; busy = false; served = 0.0; queue = Queue.create () }

  let rec start t job =
    t.busy <- true;
    Engine.after t.engine job.duration (fun () ->
        t.served <- t.served +. job.duration;
        (match job.owner with
         | Some h -> Proc.charge_cpu h job.duration
         | None -> ());
        job.resume ();
        if Queue.is_empty t.queue then t.busy <- false
        else start t (Queue.pop t.queue))

  let consume t seconds =
    if seconds > 0.0 then begin
      let owner = Proc.self_opt () in
      Proc.suspend (fun resume ->
          let job = { duration = seconds; resume; owner } in
          if t.busy then Queue.add job t.queue else start t job)
    end
end

type step = Consume of float | Sleep of float | Wait of int | Fill of int | Yield

type drive = Once | Stepped of float list | Stop_at of float

type world = { procs : step list list; drive : drive }

let print_world w =
  let step = function
    | Consume d -> Printf.sprintf "C%g" d
    | Sleep d -> Printf.sprintf "S%g" d
    | Wait i -> Printf.sprintf "W%d" i
    | Fill i -> Printf.sprintf "F%d" i
    | Yield -> "Y"
  in
  let drive =
    match w.drive with
    | Once -> "run"
    | Stepped us ->
      "until " ^ String.concat "," (List.map (Printf.sprintf "%g") us)
    | Stop_at t -> Printf.sprintf "stop at %g" t
  in
  String.concat " | "
    (List.map (fun p -> String.concat " " (List.map step p)) w.procs)
  ^ " / " ^ drive

(* Durations on a quarter-second grid, so that charges end exactly
   when other events are due. *)
let gen_world =
  let open QCheck.Gen in
  let dur = map (fun k -> 0.25 *. float_of_int k) (0 -- 6) in
  let step =
    frequency
      [
        (6, map (fun d -> Consume d) dur);
        (2, map (fun d -> Sleep d) dur);
        (1, map (fun i -> Wait i) (0 -- 1));
        (1, map (fun i -> Fill i) (0 -- 1));
        (1, return Yield);
      ]
  in
  let horizon = map (fun k -> 0.25 *. float_of_int k) (0 -- 40) in
  let drive =
    frequency
      [
        (1, return Once);
        (2, map (fun us -> Stepped (List.sort compare us)) (list_size (1 -- 4) horizon));
        (1, map (fun t -> Stop_at t) horizon);
      ]
  in
  map2 (fun procs drive -> { procs; drive }) (list_size (1 -- 4) (list_size (1 -- 12) step)) drive

(* Run [w] with [consume]; the (process, step, clock, run) log, each
   process's CPU time and the engine. The run index tells a step done
   inside a [run ~until] from one left to the next run. *)
let run_world w ~create_cpu =
  let e = Engine.create () in
  let consume = create_cpu e in
  let ivars = Array.init 2 (fun _ -> Proc.Ivar.create e) in
  let log = ref [] and stage = ref 0 in
  let procs =
    List.mapi
      (fun pid steps ->
        Proc.spawn e (fun () ->
            List.iteri
              (fun i step ->
                (match step with
                 | Consume d -> consume d
                 | Sleep d -> Proc.sleep e d
                 | Wait v -> Proc.Ivar.read ivars.(v)
                 | Fill v ->
                   if not (Proc.Ivar.is_filled ivars.(v)) then
                     Proc.Ivar.fill ivars.(v) ()
                 | Yield -> Proc.suspend (fun resume -> Engine.soon e resume));
                log := (pid, i, Engine.now e, !stage) :: !log)
              steps))
      w.procs
  in
  (match w.drive with
   | Once -> Engine.run e
   | Stepped us ->
     List.iter
       (fun u ->
         Engine.run ~until:u e;
         incr stage)
       us;
     Engine.run e
   | Stop_at t ->
     Engine.at e t (fun () -> Engine.stop e);
     Engine.run e);
  (List.rev !log, List.map Proc.cpu_time procs, e)

let prop_cpu_matches_heap_model =
  QCheck.Test.make ~name:"in-place CPU charges match the heap-only CPU"
    ~count:500 (QCheck.make ~print:print_world gen_world) (fun w ->
      let busy = ref (fun () -> nan) in
      let log, cpu_times, e =
        run_world w ~create_cpu:(fun e ->
            let c = Cpu.create e in
            (busy := fun () -> Cpu.busy_time c);
            Cpu.consume c)
      in
      let ref_busy = ref (fun () -> nan) in
      let ref_log, ref_cpu_times, ref_e =
        run_world w ~create_cpu:(fun e ->
            let c = Heap_cpu.create e in
            (ref_busy := fun () -> c.Heap_cpu.served);
            Heap_cpu.consume c)
      in
      log = ref_log && cpu_times = ref_cpu_times
      && !busy () = !ref_busy ()
      && Engine.now e = Engine.now ref_e
      && Engine.events_executed e <= Engine.events_executed ref_e)

(* --- run ~until resume semantics (flat event core) ------------------- *)

let test_run_until_resume () =
  (* two bounded runs must equal one longer run, log and clock alike *)
  let mk_world () =
    let e = Engine.create () in
    let log = ref [] in
    List.iter
      (fun t -> Engine.at e t (fun () -> log := t :: !log))
      [ 5.0; 1.0; 3.0; 3.0; 8.0 ];
    (e, log)
  in
  let e1, log1 = mk_world () in
  Engine.run ~until:4.0 e1;
  Alcotest.(check (float 1e-9)) "clock at horizon" 4.0 (Engine.now e1);
  Alcotest.(check int) "future events stay queued" 2 (Engine.pending e1);
  Engine.run ~until:9.0 e1;
  let e2, log2 = mk_world () in
  Engine.run ~until:9.0 e2;
  Alcotest.(check (list (float 1e-9))) "same firing order" !log2 !log1;
  Alcotest.(check (float 1e-9)) "same clock" (Engine.now e2) (Engine.now e1);
  Alcotest.(check int) "same residue" (Engine.pending e2) (Engine.pending e1)

let test_run_until_never_rewinds () =
  let e = Engine.create () in
  Engine.at e 5.0 (fun () -> ());
  Engine.run ~until:2.0 e;
  Alcotest.(check (float 1e-9)) "clamped forward" 2.0 (Engine.now e);
  Engine.run ~until:1.0 e;
  Alcotest.(check (float 1e-9)) "smaller horizon is a no-op" 2.0 (Engine.now e);
  Alcotest.(check int) "event still queued" 1 (Engine.pending e);
  Engine.run ~until:5.0 e;
  Alcotest.(check (float 1e-9)) "event picked up" 5.0 (Engine.now e);
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_run_until_halted () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.at e 1.0 (fun () ->
      incr count;
      Engine.stop e);
  Engine.at e 2.0 (fun () -> incr count);
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "halted after first" 1 !count;
  Alcotest.(check (float 1e-9)) "clock stays at halt" 1.0 (Engine.now e);
  Alcotest.(check int) "event stays queued" 1 (Engine.pending e);
  Engine.run ~until:10.0 e;
  Engine.run e;
  Alcotest.(check int) "halt is sticky" 1 !count;
  Alcotest.(check (float 1e-9)) "clock pinned" 1.0 (Engine.now e)

let test_handlers_interleave_closures () =
  (* registered-handler events and closure events share one (time,
     seq) order *)
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.register e (fun arg -> log := arg :: !log) in
  Engine.at e 1.0 (fun () -> log := 100 :: !log);
  Engine.at_handler e 1.0 h 1;
  Engine.at e 1.0 (fun () -> log := 101 :: !log);
  Engine.after_handler e 0.5 h 2;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order within equal times"
    [ 2; 100; 1; 101 ] (List.rev !log)

let test_null_handler_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "null handler"
    (Invalid_argument "Engine.at_handler: bad handler") (fun () ->
      Engine.at_handler e 1.0 Engine.null 0)

let test_free_list_bounds_capacity () =
  (* ten self-rescheduling chains keep at most ten events pending;
     slot recycling must hold the backing arrays at their first
     power-of-two size no matter how many events execute *)
  let e = Engine.create () in
  let remaining = ref 1000 in
  let h_ref = ref Engine.null in
  let h =
    Engine.register e (fun i ->
        if !remaining > 0 then begin
          decr remaining;
          Engine.after_handler e 0.1 !h_ref i
        end)
  in
  h_ref := h;
  for i = 1 to 10 do
    Engine.at_handler e (0.01 *. float_of_int i) h i
  done;
  Engine.run e;
  Alcotest.(check int) "all chains ran" 0 !remaining;
  Alcotest.(check bool) "capacity stayed at high-water mark" true
    (Engine.capacity e <= 16)

(* Reference model for the flat queue: a sorted association list with
   explicit (time, seq) keys and the documented [run ~until] clock
   rules. Random schedule/run interleavings must agree exactly. *)
let prop_flat_queue_matches_sorted_model =
  let print_ops ops =
    String.concat ";"
      (List.map
         (function
           | `S t -> Printf.sprintf "S %g" t
           | `R u -> Printf.sprintf "R %g" u)
         ops)
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun t -> `S t) (float_bound_inclusive 10.0));
          (1, map (fun u -> `R u) (float_bound_inclusive 12.0));
        ])
  in
  let arb_ops =
    QCheck.make ~print:print_ops QCheck.Gen.(list_size (1 -- 60) gen_op)
  in
  QCheck.Test.make ~name:"flat event queue matches sorted-list model"
    ~count:300 arb_ops (fun ops ->
      (* real engine *)
      let e = Engine.create () in
      let log = ref [] in
      let n = ref 0 in
      List.iter
        (function
          | `S t ->
            let i = !n in
            incr n;
            Engine.at e t (fun () -> log := i :: !log)
          | `R u -> Engine.run ~until:u e)
        ops;
      Engine.run e;
      (* model *)
      let clock = ref 0.0 and seq = ref 0 and q = ref [] and mlog = ref [] in
      let mi = ref 0 in
      let msched t =
        let t = if t >= !clock then t else !clock in
        incr seq;
        q := (t, !seq, !mi) :: !q;
        incr mi
      in
      let mrun u =
        let continue_ = ref true in
        while !continue_ do
          match
            List.sort
              (fun (t1, s1, _) (t2, s2, _) ->
                let c = Float.compare t1 t2 in
                if c <> 0 then c else Int.compare s1 s2)
              !q
          with
          | [] -> continue_ := false
          | (t, _, i) :: rest ->
            if t > u then begin
              if u > !clock && u < infinity then clock := u;
              continue_ := false
            end
            else begin
              q := rest;
              clock := t;
              mlog := i :: !mlog
            end
        done
      in
      List.iter (function `S t -> msched t | `R u -> mrun u) ops;
      mrun infinity;
      !mlog = !log && Float.equal !clock (Engine.now e))

let prop_engine_monotonic_clock =
  QCheck.Test.make ~name:"engine clock is monotonic" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_inclusive 10.0))
    (fun times ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0.0 in
      List.iter
        (fun t ->
          Engine.at e t (fun () ->
              if Engine.now e < !last then ok := false;
              last := Engine.now e))
        times;
      Engine.run e;
      !ok)

let suite =
  [
    Alcotest.test_case "event order" `Quick test_event_order;
    Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "run until resume" `Quick test_run_until_resume;
    Alcotest.test_case "run until never rewinds" `Quick
      test_run_until_never_rewinds;
    Alcotest.test_case "run until halted" `Quick test_run_until_halted;
    Alcotest.test_case "handlers interleave closures" `Quick
      test_handlers_interleave_closures;
    Alcotest.test_case "null handler rejected" `Quick
      test_null_handler_rejected;
    Alcotest.test_case "free list bounds capacity" `Quick
      test_free_list_bounds_capacity;
    QCheck_alcotest.to_alcotest prop_flat_queue_matches_sorted_model;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "proc sleep" `Quick test_proc_sleep;
    Alcotest.test_case "proc join" `Quick test_proc_join;
    Alcotest.test_case "proc failure" `Quick test_proc_failure_propagates;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "mutex excludes" `Quick test_mutex_excludes;
    Alcotest.test_case "semaphore limits" `Quick test_semaphore_limits;
    Alcotest.test_case "waitq" `Quick test_waitq_signal_broadcast;
    Alcotest.test_case "cpu fcfs" `Quick test_cpu_fcfs;
    Alcotest.test_case "cpu charge in place" `Quick test_cpu_charge_in_place;
    Alcotest.test_case "cpu charge ties a queued event" `Quick
      test_cpu_charge_ties_queued_event;
    Alcotest.test_case "cpu charge crosses until" `Quick
      test_cpu_charge_crosses_until;
    Alcotest.test_case "cpu charge after stop" `Quick test_cpu_charge_after_stop;
    Alcotest.test_case "cpu consume outside a process" `Quick
      test_cpu_consume_outside_process;
    Alcotest.test_case "advance only inside run" `Quick
      test_advance_only_inside_run;
    QCheck_alcotest.to_alcotest prop_cpu_matches_heap_model;
    QCheck_alcotest.to_alcotest prop_engine_monotonic_clock;
  ]
