(* The repository benchmark: three workloads timed on the host, and a
   traced run that attributes host time to the simulator's layers.

     perfbench.exe --workload copy-remove|tenant-churn|crash-recovery
                   --seed N --seconds S --trace 0|1
                   [--small] [--cache-mb N] [--window-scale K]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. The simulator is
   deterministic, so its simulated statistics are outputs, not
   metrics: each run prints a digest of them ("fingerprint"), which a
   change that only makes the simulator faster must leave identical.

   Outside this file the benchmark only calls public functions; every
   span and counter is taken here, around those calls. See README.md
   for the workloads, the metric map and how to read a traced run. *)

module Fs = Su_fs.Fs
module Fsops = Su_fs.Fsops
module Fsck = Su_fs.Fsck
module State = Su_fs.State
module Engine = Su_sim.Engine
module Proc = Su_sim.Proc
module Driver = Su_driver.Driver
module Trace = Su_driver.Trace
module Disk = Su_disk.Disk
module Bcache = Su_cache.Bcache
module Syncer = Su_cache.Syncer
module Types = Su_fstypes.Types
module Hist = Su_obs.Hist
module Json = Su_obs.Json
module Rng = Su_util.Rng
module Loadgen = Su_workload.Loadgen
module Tree = Su_workload.Tree
module Explorer = Su_check.Explorer
module Delta = Su_check.Delta

let sprintf = Printf.sprintf
let now () = Unix.gettimeofday ()

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced sizes, for the benchmark's own tests *)
  cache_mb : int option;  (** override every world's buffer cache size *)
  window_scale : float;  (** tenant-churn: stretch the steady window *)
}

(* A run must end well inside three minutes; each guarded world gets
   at most what is left of this budget. *)
let t_start = now ()
let budget_s = 160.0
let remaining () = budget_s -. (now () -. t_start)

(* --- statistics ------------------------------------------------------- *)

(* Linear interpolation between order statistics. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let per a b = if b > 0.0 then a /. b else 0.0

(* --- reference speed ------------------------------------------------------ *)

(* The host's speed drifts by a quarter and more within seconds (shared
   cores, frequency scaling), far beyond any bound a metric could
   hold. So every timed interval is bracketed by a fixed reference loop
   of this file's own (allocation and hashing, like the simulator), and
   its duration is rescaled to the speed at which that loop takes
   [ref_nominal_s]. Simulator changes move the interval, never the
   loop. *)
let ref_nominal_s = 0.005

let reference_work () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 0 to 40_000 do
    let k = (i * 7919) land 4095 in
    (match Hashtbl.find_opt h k with
     | Some v -> Hashtbl.replace h k (v +. 1.0)
     | None -> Hashtbl.replace h k (float_of_int i));
    if i land 7 = 0 then l := (k, i) :: !l
  done;
  ignore (Sys.opaque_identity (List.length !l + Hashtbl.length h))

let reference_s () =
  median
    (List.init 3 (fun _ ->
         let t0 = now () in
         reference_work ();
         now () -. t0))

(* Raw and reference-scaled host seconds, over every scaled interval:
   their ratio is printed as the run's speed factor. *)
let raw_total = ref 0.0
let scaled_total = ref 0.0

(* [dt] host seconds between reference timings [r0] and [r1]. *)
let rescale ~r0 ~r1 dt =
  let s = dt *. 2.0 *. ref_nominal_s /. (r0 +. r1) in
  raw_total := !raw_total +. dt;
  scaled_total := !scaled_total +. s;
  s

(* [f ()], its reference-scaled host seconds and the minor words it
   allocated (the reference loop's own excluded). *)
let scaled f =
  let r0 = reference_s () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let r1 = reference_s () in
  (x, rescale ~r0 ~r1 dt, words)

(* --- spans -------------------------------------------------------------- *)

(* Host-time spans around public calls, summed per name. Cheap enough
   to stay on in every run; only the traced run prints them. *)
let spans : (string, float * int) Hashtbl.t = Hashtbl.create 32

let note name dt =
  let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt spans name) in
  Hashtbl.replace spans name (s +. dt, n + 1)

let span name f =
  let t0 = now () in
  let r = f () in
  note name (now () -. t0);
  r

let span_total name =
  match Hashtbl.find_opt spans name with Some (s, _) -> s | None -> 0.0

let span_mean_ms name =
  match Hashtbl.find_opt spans name with
  | Some (s, n) when n > 0 -> 1e3 *. s /. float_of_int n
  | _ -> 0.0

(* --- per-layer counters ------------------------------------------------- *)

type counters = {
  events : int;  (** engine callbacks executed *)
  requests : int;  (** driver requests (trace reset at phase start) *)
  services : int;  (** disk operations serviced *)
  hits : int;
  misses : int;
  evictions : int;
  syncer_writes : int;
  deps : int;  (** soft-updates dependency records created *)
  rollbacks : int;
  log_writes : int;  (** journal fragments written *)
  qd_sum : float;  (** dispatch queue-depth samples, for the mean *)
  qd_n : int;
}

let zero =
  {
    events = 0; requests = 0; services = 0; hits = 0; misses = 0;
    evictions = 0; syncer_writes = 0; deps = 0; rollbacks = 0;
    log_writes = 0; qd_sum = 0.0; qd_n = 0;
  }

let counters_of (w : Fs.world) =
  let st = w.Fs.st in
  let tr = Driver.trace w.Fs.driver in
  let qd = Trace.qdepth_hist tr in
  let softdep f =
    match st.State.softdep_stats with Some s -> f s | None -> 0
  in
  {
    events = Engine.events_executed w.Fs.engine;
    requests = Trace.requests tr;
    services = Disk.requests_serviced w.Fs.disk;
    hits = Bcache.hits w.Fs.cache;
    misses = Bcache.misses w.Fs.cache;
    evictions = Bcache.evictions w.Fs.cache;
    syncer_writes = Syncer.writes_issued w.Fs.syncer;
    deps = softdep (fun s -> s.Su_core.Softdep.created);
    rollbacks = softdep (fun s -> s.Su_core.Softdep.rollbacks);
    log_writes =
      (match st.State.journal_stats with
       | Some s -> s.Su_core.Journaled.log_writes
       | None -> 0);
    qd_sum = Hist.sum qd;
    qd_n = Hist.count qd;
  }

let combine k a b =
  {
    events = a.events + (k * b.events);
    requests = a.requests + (k * b.requests);
    services = a.services + (k * b.services);
    hits = a.hits + (k * b.hits);
    misses = a.misses + (k * b.misses);
    evictions = a.evictions + (k * b.evictions);
    syncer_writes = a.syncer_writes + (k * b.syncer_writes);
    deps = a.deps + (k * b.deps);
    rollbacks = a.rollbacks + (k * b.rollbacks);
    log_writes = a.log_writes + (k * b.log_writes);
    qd_sum = a.qd_sum +. (float_of_int k *. b.qd_sum);
    qd_n = a.qd_n + (k * b.qd_n);
  }

let add = combine 1
let sub = combine (-1)

(* Syscall classes the calibration prices. [acc.fs_ops] counts them;
   its write slot counts KB written. *)
let fs_classes = [| "create"; "write"; "rename"; "unlink"; "mkdir"; "stat" |]
let c_create = 0
let c_write = 1
let c_rename = 2
let c_unlink = 3
let c_mkdir = 4
let c_stat = 5
let calib_write_kb = 4.0

(* --- one workload run's accumulator ------------------------------------- *)

type acc = {
  recovery_measured : bool;
      (** recovery samples are the measured phase (crash-recovery), not
          a check made after it *)
  mutable ops : int;  (** completed in measured phases *)
  mutable attempted : int;
  mutable failed : int;
  mutable measured_s : float;  (** host seconds in measured phases *)
  mutable rates : float list;
      (** ops per host second of each identical repetition, when the
          workload repeats one (their median is the run's rate) *)
  mutable minor_words : float;  (** allocated in measured phases *)
  mutable setups : float list;  (** host seconds per set-up *)
  mutable recover : float list;  (** host seconds per recovery sample *)
  mutable prints : string list;  (** simulated outputs, newest first *)
  mutable correct : bool;
  mutable layers : counters;  (** summed over measured phases *)
  fs_ops : float array;  (** measured-phase syscalls by [fs_classes] *)
}

let new_acc ~recovery_measured =
  {
    recovery_measured; ops = 0; attempted = 0; failed = 0; measured_s = 0.0;
    rates = []; minor_words = 0.0; setups = []; recover = []; prints = []; correct = true;
    layers = zero; fs_ops = Array.make (Array.length fs_classes) 0.0;
  }

let print acc line = acc.prints <- line :: acc.prints

let fingerprint acc =
  Digest.to_hex (Digest.string (String.concat "\n" (List.rev acc.prints)))

let check acc ok what =
  if not ok then begin
    acc.correct <- false;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let count_ops acc c n = acc.fs_ops.(c) <- acc.fs_ops.(c) +. n

(* --- failure accounting -------------------------------------------------- *)

exception Deadline

let rec typed_failure = function
  | Proc.Process_failure (_, e) | Fun.Finally_raised e -> typed_failure e
  | Bcache.Stuck { op; _ } -> Some ("Bcache.Stuck in " ^ op)
  | Bcache.Io_error _ -> Some "Bcache.Io_error"
  | Fsops.Eio m -> Some ("Fsops.Eio " ^ m)
  | Fsops.Erofs m -> Some ("Fsops.Erofs " ^ m)
  | Failure m -> Some ("Failure " ^ m)
  | Deadline -> Some "host deadline"
  | _ -> None

(* Run [f] under a host deadline. A typed escape or the deadline comes
   back as [Error reason], to be counted against the ops it covered,
   instead of ending the benchmark; anything else is a harness bug and
   propagates. *)
let guarded ~deadline f =
  let armed = ref true in
  let timer s =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = s })
  in
  let prev =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> if !armed then raise Deadline))
  in
  let restore () =
    armed := false;
    timer 0.0;
    Sys.set_signal Sys.sigalrm prev
  in
  timer (Float.max 1.0 (Float.min deadline (remaining ())));
  match f () with
  | r ->
    restore ();
    Ok r
  | exception e -> (
    restore ();
    match typed_failure e with Some why -> Error why | None -> raise e)

let fail acc ~attempted why =
  acc.attempted <- acc.attempted + attempted;
  acc.failed <- acc.failed + attempted;
  Printf.eprintf "perfbench: %d ops failed: %s\n%!" attempted why

(* --- recovery: crash image to a remounted, checked volume ---------------- *)

let check_exposure (cfg : Fs.config) =
  match cfg.Fs.scheme with
  | Fs.Journaled _ -> false
  | Fs.Conventional | Fs.Scheduler_flag | Fs.Scheduler_chains _
  | Fs.Soft_updates | Fs.No_order ->
    cfg.Fs.alloc_init

(* The explorer's continuation, call for call: live in the remounted
   volume, then require the drained image to check clean. *)
let continue_on acc cfg (w : Fs.world) =
  let done_ = ref false in
  let before = counters_of w in
  let controller () =
    let d = "/crashsweep.d" in
    Fsops.mkdir w.Fs.st d;
    Fsops.create w.Fs.st (d ^ "/probe");
    Fsops.append w.Fs.st (d ^ "/probe") ~bytes:3072;
    Fsops.rename w.Fs.st ~src:(d ^ "/probe") ~dst:(d ^ "/probe2");
    Fsops.sync w.Fs.st;
    Fs.stop w;
    span "phase.drain" (fun () -> Driver.quiesce w.Fs.driver);
    done_ := true;
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"continue" controller);
  span "check.continuation" (fun () -> Engine.run w.Fs.engine);
  if acc.recovery_measured then begin
    acc.layers <- add acc.layers (sub (counters_of w) before);
    List.iter (fun c -> count_ops acc c 1.0) [ c_mkdir; c_create; c_rename ];
    count_ops acc c_write 3.0
  end;
  !done_
  &&
  let final = span "volume.snapshot" (fun () -> Disk.image_snapshot w.Fs.disk) in
  span "fsck.replay" (fun () -> Fs.recover_image cfg final);
  Fsck.ok
    (span "fsck.check" (fun () ->
         Fsck.check ~geom:cfg.Fs.geom ~image:final
           ~check_exposure:(check_exposure cfg)))

(* [Explorer.verify_state] taken apart, with a span around each public
   call: the traced run's recovery, which must reach the same verdict. *)
let verify_staged acc ~cfg ~boundary ~torn image =
  span "fsck.replay" (fun () -> Fs.recover_image cfg image);
  let ce = check_exposure cfg in
  let pre =
    span "fsck.check" (fun () ->
        Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure:ce)
  in
  let outcome =
    span "fsck.repair" (fun () ->
        Fsck.repair ~geom:cfg.Fs.geom ~image ~check_exposure:ce ())
  in
  (* as the explorer does, any escape means "did not remount", except
     the host deadline, which stays a failure *)
  let remount_ok =
    match span "fsck.mount" (fun () -> Fs.mount_image cfg image) with
    | w -> ( try continue_on acc cfg w with Deadline -> raise Deadline | _ -> false)
    | exception Deadline -> raise Deadline
    | exception _ -> false
  in
  {
    Explorer.v_boundary = boundary;
    v_torn = torn;
    v_pre_violations = List.length pre.Fsck.violations;
    v_repair_converged = outcome.Fsck.converged;
    v_post_violations = List.length outcome.Fsck.final.Fsck.violations;
    v_remount_ok = remount_ok;
    v_nested = None;
  }

(* Recovery of a private [image] (it is mutated): the verdict, its
   scaled seconds and the minor words it allocated. Where recovery is a
   check made after the measured phase (few samples, a heap holding
   crash images), [settle] starts each sample from a collected heap so
   that where a major slice lands does not decide its time. *)
let recover ?(settle = false) acc ~traced ~cfg ~boundary ~torn image =
  if settle then Gc.full_major ();
  scaled (fun () ->
      if traced then verify_staged acc ~cfg ~boundary ~torn image
      else Explorer.verify_state ~cfg ~boundary ~torn image)

let verdict_ok v =
  v.Explorer.v_repair_converged && v.Explorer.v_post_violations = 0
  && v.Explorer.v_remount_ok

let verdict_line name v =
  sprintf "%s boundary=%d torn=%s pre=%d converged=%b post=%d remount=%b"
    name v.Explorer.v_boundary
    (match v.Explorer.v_torn with None -> "-" | Some k -> string_of_int k)
    v.Explorer.v_pre_violations v.Explorer.v_repair_converged
    v.Explorer.v_post_violations v.Explorer.v_remount_ok

let private_copy image =
  span "volume.materialize" (fun () -> Array.map Types.copy_cell image)

let with_cache opts (cfg : Fs.config) =
  match opts.cache_mb with Some mb -> { cfg with Fs.cache_mb = mb } | None -> cfg

(* --- copy-remove ------------------------------------------------------------ *)

(* Tables 1-2: [users] processes each copy their own paper tree, then
   (after a barrier and an unmeasured check of every copy) remove the
   copy, once per scheme. The measured phases are the copy, the remove
   and the sync that writes out the deferred work they leave behind. *)

let copy_remove_schemes =
  [
    Fs.Conventional;
    Fs.Scheduler_flag;
    Fs.Scheduler_chains { barrier_dealloc = false };
    Fs.Soft_updates;
    Fs.Journaled { group_commit = true };
    Fs.No_order;
  ]

let rec tree_mismatches st base nodes =
  let names =
    List.filter (fun n -> n <> "." && n <> "..") (Fsops.readdir st base)
  in
  List.fold_left
    (fun bad node ->
      match node with
      | Tree.File (name, size) -> (
        match Fsops.stat st (base ^ "/" ^ name) with
        | s when s.Fsops.st_ftype = Types.F_reg && s.Fsops.st_size = size -> bad
        | _ -> bad + 1
        | exception Fsops.Enoent _ -> bad + 1)
      | Tree.Dir (name, kids) -> bad + tree_mismatches st (base ^ "/" ^ name) kids)
    (if List.length names = List.length nodes then 0 else 1)
    nodes

(* A fresh session over the populated sources, as the paper's runs
   start: clean buffers and in-core inodes are dropped. *)
let drop_caches (w : Fs.world) =
  List.iter
    (fun (b : Su_cache.Buf.t) ->
      if b.Su_cache.Buf.refcount = 0 && not b.Su_cache.Buf.dirty then
        Bcache.invalidate w.Fs.cache b)
    (Bcache.all_bufs w.Fs.cache);
  Hashtbl.reset w.Fs.st.State.icache

let copy_remove_world opts acc ~traced ~first scheme =
  let users = if opts.small then 2 else 4 in
  let files = if opts.small then 40 else 535 in
  let total_bytes = if opts.small then 1_000_000 else 14_300_000 in
  let specs =
    Array.init users (fun u ->
        Tree.spec ~seed:((opts.seed * 16) + u) ~files ~total_bytes ())
  in
  let sum f = Array.fold_left (fun n s -> n + f s) 0 specs in
  let nfiles = sum Tree.count_files and ndirs = sum Tree.count_dirs in
  let nbytes = sum Tree.total_bytes in
  let cfg = with_cache opts (Fs.config ~scheme ()) in
  let name = Fs.scheme_kind_name scheme in
  let src u = sprintf "/src%d" u and dst u = sprintf "/dst%d" u in
  let planned = 2 * nfiles in
  let sim = ref None and mismatches = ref 0 in
  let measured = ref 0.0 and words = ref 0.0 and before = ref zero in
  let run () =
    let r0 = reference_s () in
    let t_setup = now () in
    let w = Fs.make cfg in
    let st = w.Fs.st and eng = w.Fs.engine in
    let phase f =
      let (), s, n = scaled f in
      measured := !measured +. s;
      words := !words +. n;
      s
    in
    let all_users f =
      Proc.join_all eng
        (List.init users (fun u ->
             Proc.spawn eng ~name:(sprintf "user%d" u) (fun () -> f u)))
    in
    let controller () =
      Array.iteri
        (fun u spec ->
          Fsops.mkdir st (src u);
          Tree.populate st ~base:(src u) spec;
          Fsops.mkdir st (dst u))
        specs;
      Fsops.sync st;
      drop_caches w;
      let dt = now () -. t_setup in
      acc.setups <- rescale ~r0 ~r1:(reference_s ()) dt :: acc.setups;
      Gc.full_major ();
      Driver.reset_trace w.Fs.driver;
      before := counters_of w;
      let t0 = Engine.now eng in
      ignore
        (phase (fun () ->
             all_users (fun u -> Tree.copy st ~src:(src u) ~dst:(dst u))));
      let t_copy = Engine.now eng -. t0 in
      Array.iteri
        (fun u spec -> mismatches := !mismatches + tree_mismatches st (dst u) spec)
        specs;
      let t1 = Engine.now eng in
      ignore (phase (fun () -> all_users (fun u -> Tree.remove st (dst u))));
      let t_remove = Engine.now eng -. t1 in
      note "phase.drain"
        (phase (fun () ->
             Fsops.sync st;
             Fs.stop w;
             Driver.quiesce w.Fs.driver));
      let tr = Driver.trace w.Fs.driver in
      let h = Trace.response_hist tr in
      sim :=
        Some
          (sprintf
             "%s copy_s=%.9f remove_s=%.9f requests=%d reads=%d \
              response_n=%d sum=%.9f p50=%.9f p90=%.9f max=%.9f"
             name t_copy t_remove (Trace.requests tr) (Trace.reads tr)
             (Hist.count h) (Hist.sum h) (Hist.percentile h 50.0)
             (Hist.percentile h 90.0) (Hist.max_value h));
      Engine.stop eng
    in
    ignore (Proc.spawn eng ~name:"controller" controller);
    Engine.run eng;
    w
  in
  match guarded ~deadline:90.0 run with
  | Error why -> fail acc ~attempted:planned (name ^ ": " ^ why)
  | Ok w -> (
    match !sim with
    | None -> fail acc ~attempted:planned (name ^ ": world stalled")
    | Some line ->
      acc.ops <- acc.ops + planned;
      acc.attempted <- acc.attempted + planned;
      acc.measured_s <- acc.measured_s +. !measured;
      acc.minor_words <- acc.minor_words +. !words;
      note "phase.measured" !measured;
      acc.layers <- add acc.layers (sub (counters_of w) !before);
      let f = float_of_int in
      count_ops acc c_create (f nfiles);
      count_ops acc c_write (f nbytes /. 1024.0);
      count_ops acc c_mkdir (f ndirs);
      count_ops acc c_unlink (f (nfiles + ndirs + users));
      count_ops acc c_stat (f (2 * (nfiles + ndirs)));
      check acc (!mismatches = 0) (name ^ ": every copy matches its source");
      (* the synced volume holds exactly the sources and checks clean;
         crashed right there, it must recover and remount *)
      let final = span "volume.snapshot" (fun () -> Disk.image_snapshot w.Fs.disk) in
      let v, s, _ =
        recover ~settle:true acc ~traced ~cfg ~boundary:0 ~torn:None
          (private_copy final)
      in
      acc.recover <- s :: acc.recover;
      Fs.recover_image cfg final;
      let r =
        Fsck.check ~geom:cfg.Fs.geom ~image:final
          ~check_exposure:(check_exposure cfg)
      in
      check acc
        (Fsck.ok r && r.Fsck.files = nfiles)
        (name ^ ": synced image clean, every source file present");
      check acc (verdict_ok v) (name ^ ": crash image recovers clean");
      if first then begin
        print acc line;
        print acc (verdict_line name v)
      end)

let copy_remove opts acc ~traced =
  (* whole rounds only; stop when one more would overshoot --seconds by
     more than half a round, so the round count rarely depends on noise *)
  let round = ref 0 in
  let more () =
    let per_round = acc.measured_s /. float_of_int !round in
    acc.failed = 0 && acc.measured_s +. (0.5 *. per_round) < opts.seconds
  in
  while (!round = 0 || more ()) && remaining () > 60.0 do
    List.iter
      (copy_remove_world opts acc ~traced ~first:(!round = 0))
      copy_remove_schemes;
    incr round
  done

(* --- tenant-churn ------------------------------------------------------------ *)

let churn_config opts =
  let base = Loadgen.config ~scheme:Fs.Soft_updates () in
  let window = (if opts.small then 10.0 else 15.0) *. opts.window_scale in
  {
    Loadgen.fs_cfg = with_cache opts base.Loadgen.fs_cfg;
    clients = (if opts.small then 200 else 1000);
    rate = 0.5;
    shape = Loadgen.Fixed;
    arrival = Loadgen.Poisson;
    warmup = 10.0;
    duration = 10.0 +. window;
    files_per_client = 2;
    shards = 1;
    seed = opts.seed;
  }

(* A step-for-step replica of Loadgen's single-shard world: the same
   seeds, draws and syscalls, driven from here so the traced run can
   read the world's counters and any run can keep the tenants' volume
   (Loadgen keeps its world private). Its report is rebuilt
   as a [Loadgen.report], whose rendering must equal Loadgen's own;
   the benchmark checks that whenever it runs both. *)
module Replica = struct
  type client = {
    rng : Rng.t;
    pname : string;
    dir : string;
    fnames : string array;
    rnames : string array;
    renamed : Bytes.t;
    live : int array;
    mutable nlive : int;
    free : int array;
    mutable nfree : int;
    dnames : string array;
    mutable ndirs : int;
    weights : int array;
    wtotal : int;
    mutable t_next : float;
  }

  let base_weights = [| 30; 30; 15; 15; 10 |]
  let subdir_pool = 4

  let make_client (cfg : Loadgen.config) root gid =
    let rng = Rng.substream root gid in
    let dir = sprintf "/t%d" gid in
    let cap = cfg.Loadgen.files_per_client + 4 in
    let weights =
      Array.map (fun b -> b + Rng.int rng (1 + (b / 2))) base_weights
    in
    {
      rng;
      pname = sprintf "tenant%d" gid;
      dir;
      fnames = Array.init cap (fun k -> sprintf "%s/f%d" dir k);
      rnames = Array.init cap (fun k -> sprintf "%s/r%d" dir k);
      renamed = Bytes.make cap '\000';
      live = Array.make cap 0;
      nlive = 0;
      free = Array.init cap (fun k -> cap - 1 - k);
      nfree = cap;
      dnames = Array.init subdir_pool (fun j -> sprintf "%s/d%d" dir j);
      ndirs = 0;
      weights;
      wtotal = Array.fold_left ( + ) 0 weights;
      t_next = 0.0;
    }

  let pick_class c =
    let r = Rng.int c.rng c.wtotal in
    let rec go k acc =
      let acc = acc + c.weights.(k) in
      if r < acc || k = Loadgen.nclasses - 1 then k else go (k + 1) acc
    in
    go 0 0

  let slot_name c slot =
    if Bytes.get c.renamed slot = '\001' then c.rnames.(slot) else c.fnames.(slot)

  (* Loadgen's class indices: create write rename unlink mkdir. Returns
     the class executed and the bytes it wrote. *)
  let rec execute st c cls =
    match cls with
    | 0 ->
      if c.nfree = 0 then execute st c 1
      else begin
        let slot = c.free.(c.nfree - 1) in
        c.nfree <- c.nfree - 1;
        Bytes.set c.renamed slot '\000';
        Fsops.create st c.fnames.(slot);
        c.live.(c.nlive) <- slot;
        c.nlive <- c.nlive + 1;
        (0, 0)
      end
    | 1 ->
      if c.nlive = 0 then execute st c 0
      else begin
        let slot = c.live.(Rng.int c.rng c.nlive) in
        let bytes = 1024 * (1 + Rng.int c.rng 4) in
        Fsops.write_file st (slot_name c slot) ~bytes;
        (1, bytes)
      end
    | 2 ->
      if c.nlive = 0 then execute st c 0
      else begin
        let slot = c.live.(Rng.int c.rng c.nlive) in
        let flip = Bytes.get c.renamed slot = '\001' in
        let src = if flip then c.rnames.(slot) else c.fnames.(slot) in
        let dst = if flip then c.fnames.(slot) else c.rnames.(slot) in
        Fsops.rename st ~src ~dst;
        Bytes.set c.renamed slot (if flip then '\000' else '\001');
        (2, 0)
      end
    | 3 ->
      if c.nlive = 0 then execute st c 0
      else begin
        let i = Rng.int c.rng c.nlive in
        let slot = c.live.(i) in
        Fsops.unlink st (slot_name c slot);
        c.nlive <- c.nlive - 1;
        c.live.(i) <- c.live.(c.nlive);
        c.free.(c.nfree) <- slot;
        c.nfree <- c.nfree + 1;
        (3, 0)
      end
    | _ ->
      if c.ndirs >= subdir_pool then execute st c 1
      else begin
        Fsops.mkdir st c.dnames.(c.ndirs);
        c.ndirs <- c.ndirs + 1;
        (4, 0)
      end

  (* Fixed shape, Poisson arrivals: no rate multiplier, no pauses. *)
  let next_arrival (cfg : Loadgen.config) c t =
    t +. Rng.exponential c.rng (1.0 /. cfg.Loadgen.rate)

  type run = {
    report : Loadgen.report;
    layers : counters;  (** steady phase *)
    classes : int array;  (** ops executed per Loadgen class *)
    bytes : int;  (** written by the write class *)
    image : Types.cell array option;
        (** with [~image:true], the volume synced after the steady phase *)
    setup_s : float;
  }

  let run (cfg : Loadgen.config) ~image =
    if
      cfg.Loadgen.shape <> Loadgen.Fixed
      || cfg.Loadgen.arrival <> Loadgen.Poisson
      || cfg.Loadgen.shards <> 1
    then invalid_arg "Replica.run: fixed shape, Poisson arrivals, one shard";
    let t_setup = now () in
    let w = Fs.make cfg.Loadgen.fs_cfg in
    let st = w.Fs.st and eng = w.Fs.engine in
    let root = Rng.create cfg.Loadgen.seed in
    let class_h = Array.init Loadgen.nclasses (fun _ -> Hist.create ()) in
    let total_h = Hist.create () in
    let classes = Array.make Loadgen.nclasses 0 in
    let executed = ref 0 and bytes = ref 0 in
    let result = ref None in
    let t_base = ref 0.0 in
    let client_proc c () =
      let rec loop () =
        let t = c.t_next in
        if t < cfg.Loadgen.duration then begin
          let abs_t = !t_base +. t in
          let now_s = Engine.now eng in
          if abs_t > now_s then Proc.sleep eng (abs_t -. now_s);
          let cls, b = execute st c (pick_class c) in
          incr executed;
          classes.(cls) <- classes.(cls) + 1;
          bytes := !bytes + b;
          if t >= cfg.Loadgen.warmup then begin
            let lat = Engine.now eng -. abs_t in
            Hist.add class_h.(cls) lat;
            Hist.add total_h lat
          end;
          c.t_next <- next_arrival cfg c t;
          loop ()
        end
      in
      loop ()
    in
    let controller () =
      let clients =
        Array.init cfg.Loadgen.clients (fun i -> make_client cfg root i)
      in
      Array.iter
        (fun c ->
          Fsops.mkdir st c.dir;
          for k = 0 to cfg.Loadgen.files_per_client - 1 do
            Fsops.create st c.fnames.(k);
            c.live.(c.nlive) <- k;
            c.nlive <- c.nlive + 1;
            c.nfree <- c.nfree - 1
          done)
        clients;
      Fsops.sync st;
      t_base := Engine.now eng;
      Array.iter (fun c -> c.t_next <- next_arrival cfg c 0.0) clients;
      Gc.full_major ();
      let setup_s = now () -. t_setup in
      Driver.reset_trace w.Fs.driver;
      let before = counters_of w in
      let t0 = now () in
      let s0 = Gc.quick_stat () in
      let handles =
        Array.to_list
          (Array.map (fun c -> Proc.spawn eng ~name:c.pname (client_proc c)) clients)
      in
      Proc.join_all eng handles;
      let s1 = Gc.quick_stat () in
      let wall = now () -. t0 in
      let layers = sub (counters_of w) before in
      if image then Fsops.sync st;
      Fs.stop w;
      span "phase.drain" (fun () -> Driver.quiesce w.Fs.driver);
      let image =
        if image then
          Some (span "volume.snapshot" (fun () -> Disk.image_snapshot w.Fs.disk))
        else None
      in
      result :=
        Some
          {
            report =
              {
                Loadgen.class_hist = class_h;
                total_hist = total_h;
                executed = !executed;
                host_wall_s = wall;
                minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
                major_collections =
                  s1.Gc.major_collections - s0.Gc.major_collections;
              };
            layers;
            classes;
            bytes = !bytes;
            image;
            setup_s;
          };
      Engine.stop eng
    in
    ignore (Proc.spawn eng ~name:"loadgen" controller);
    Engine.run eng;
    match !result with
    | Some r -> r
    | None -> failwith "Replica.run: world did not complete"
end

let churn_samples opts = if opts.small then 2 else 5

let churn_print cfg r = Json.to_string (Loadgen.report_json cfg r)

(* Histograms account for every measured op, and nothing measured
   exceeds what was issued. *)
let check_churn acc (r : Loadgen.report) =
  let in_classes =
    Array.fold_left (fun n h -> n + Hist.count h) 0 r.Loadgen.class_hist
  in
  let measured = Loadgen.measured_ops r in
  check acc
    (measured > 0 && in_classes = measured && measured <= r.Loadgen.executed)
    "tenant-churn: histogram count equals measured ops"

let count_replica acc (r : Replica.run) =
  let f = float_of_int in
  count_ops acc c_create (f r.Replica.classes.(0));
  count_ops acc c_write (f r.Replica.bytes /. 1024.0);
  count_ops acc c_rename (f r.Replica.classes.(2));
  count_ops acc c_unlink (f r.Replica.classes.(3));
  count_ops acc c_mkdir (f r.Replica.classes.(4))

let tenant_churn opts acc ~traced =
  let cfg = churn_config opts in
  let planned =
    int_of_float
      (float_of_int cfg.Loadgen.clients *. cfg.Loadgen.rate *. cfg.Loadgen.duration)
  in
  let reports = ref [] and image = ref None in
  let reps = ref 0 in
  (* One repetition, its set-up and steady-phase seconds rescaled to
     the reference speed around it. The traced run's first repetition
     also keeps its synced volume. *)
  let attempt () =
    let r0 = reference_s () in
    let t0 = now () in
    let r, setup_s =
      if traced then begin
        let r = Replica.run cfg ~image:(!reps = 1) in
        acc.layers <- add acc.layers r.Replica.layers;
        count_replica acc r;
        if !reps = 1 then image := r.Replica.image;
        (r.Replica.report, r.Replica.setup_s)
      end
      else begin
        let r = Loadgen.run cfg in
        (r, now () -. t0 -. r.Loadgen.host_wall_s)
      end
    in
    let r1 = reference_s () in
    acc.setups <- rescale ~r0 ~r1 setup_s :: acc.setups;
    { r with Loadgen.host_wall_s = rescale ~r0 ~r1 r.Loadgen.host_wall_s }
  in
  while
    acc.failed = 0
    && (!reps < 2 || acc.measured_s < opts.seconds)
    && remaining () > 40.0
  do
    incr reps;
    match guarded ~deadline:60.0 attempt with
    | Error why -> fail acc ~attempted:planned ("tenant-churn: " ^ why)
    | Ok r ->
      acc.ops <- acc.ops + r.Loadgen.executed;
      acc.attempted <- acc.attempted + r.Loadgen.executed;
      acc.measured_s <- acc.measured_s +. r.Loadgen.host_wall_s;
      acc.rates <-
        per (float_of_int r.Loadgen.executed) r.Loadgen.host_wall_s :: acc.rates;
      acc.minor_words <- acc.minor_words +. r.Loadgen.minor_words;
      note "phase.measured" r.Loadgen.host_wall_s;
      check_churn acc r;
      reports := churn_print cfg r :: !reports
  done;
  (match !reports with
   | [] -> ()
   | first :: rest ->
     check acc
       (List.for_all (String.equal first) rest)
       "tenant-churn: every repetition renders the same report";
     print acc first;
     (* untraced, the volume comes from one replica run, which is held
        to Loadgen's report *)
     if not traced then
       match guarded ~deadline:60.0 (fun () -> Replica.run cfg ~image:true) with
       | Error why -> fail acc ~attempted:planned ("tenant-churn replica: " ^ why)
       | Ok r ->
         if churn_print cfg r.Replica.report <> first then
           Printf.eprintf
             "perfbench: warning: the replica no longer reproduces Loadgen; \
              traced tenant-churn counts are not Loadgen's\n%!";
         image := r.Replica.image);
  (* the tenants' volume, synced after the churn and crashed there *)
  Option.iter
    (fun img ->
      for k = 1 to churn_samples opts do
        let v, s, _ =
          recover ~settle:true acc ~traced ~cfg:cfg.Loadgen.fs_cfg ~boundary:k
            ~torn:None (private_copy img)
        in
        acc.recover <- s :: acc.recover;
        check acc (verdict_ok v) "tenant-churn: synced volume recovers clean";
        print acc (verdict_line "tenant-churn" v)
      done)
    !image

(* --- crash-recovery ---------------------------------------------------------- *)

let crash_schemes = [ Fs.Soft_updates; Fs.Journaled { group_commit = true } ]
let files_per_dir = 200

(* A volume of [files] files, each with some data. *)
let populate cfg ~files seed =
  let w = Fs.make cfg in
  let st = w.Fs.st in
  let rng = Rng.create seed in
  let controller () =
    Fsops.mkdir st "/pop";
    for d = 0 to (files / files_per_dir) - 1 do
      let dir = sprintf "/pop/d%d" d in
      Fsops.mkdir st dir;
      for f = 0 to files_per_dir - 1 do
        let p = sprintf "%s/f%d" dir f in
        Fsops.create st p;
        Fsops.append st p ~bytes:(512 * (1 + Rng.int rng 6))
      done
    done;
    Fsops.sync st;
    Fs.stop w;
    Driver.quiesce w.Fs.driver;
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"populate" controller);
  Engine.run w.Fs.engine;
  Disk.image_snapshot w.Fs.disk

(* Record a seeded churn (create/append/rename/unlink in a fresh
   directory, appends to pre-existing files) on top of [image]: the
   mounted image is the recording's initial state, each applied write
   one delta. *)
let record_churn cfg image ~files ~ops seed =
  let w = Fs.mount_image cfg image in
  let st = w.Fs.st in
  let initial = Disk.image_snapshot w.Fs.disk in
  let deltas = ref [] in
  Disk.set_delta_observer w.Fs.disk (fun ~lbn ~pre ~post ->
      deltas := Delta.v ~lbn ~pre ~post :: !deltas);
  let rng = Rng.create seed in
  let controller () =
    Fsops.mkdir st "/churn";
    let live = ref [] and next = ref 0 in
    let fresh () =
      incr next;
      sprintf "/churn/n%d" !next
    in
    for _ = 1 to ops do
      match (Rng.int rng 5, !live) with
      | (0 | 1), _ | _, [] ->
        let p = fresh () in
        Fsops.create st p;
        Fsops.append st p ~bytes:(1024 * Rng.int_range rng 1 4);
        live := p :: !live
      | 2, p :: rest ->
        let q = fresh () in
        Fsops.rename st ~src:p ~dst:q;
        live := q :: rest
      | 3, p :: rest ->
        Fsops.unlink st p;
        live := rest
      | _ ->
        let d = Rng.int rng (files / files_per_dir) in
        let f = Rng.int rng files_per_dir in
        Fsops.append st (sprintf "/pop/d%d/f%d" d f) ~bytes:1024
    done;
    Fsops.sync st;
    Fs.stop w;
    Driver.quiesce w.Fs.driver;
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"churn" controller);
  Engine.run w.Fs.engine;
  { Explorer.rec_initial = initial; rec_deltas = Array.of_list (List.rev !deltas) }

(* A fixed, seeded sample of the recording's crash states (write
   boundaries and torn prefixes), in sweep order. *)
let sample_states r ~n seed =
  let states = Explorer.crash_states r in
  let idx = Array.init (Array.length states) Fun.id in
  Rng.shuffle (Rng.create seed) idx;
  let chosen = Array.sub idx 0 (min n (Array.length idx)) in
  Array.sort compare chosen;
  Array.map (fun i -> states.(i)) chosen

let crash_recovery opts acc ~traced =
  let files = if opts.small then 400 else 20_000 in
  let per_scheme = if opts.small then 3 else 12 in
  let worlds =
    List.filter_map
      (fun scheme ->
        let cfg = with_cache opts (Fs.config ~scheme ()) in
        let name = Fs.scheme_kind_name scheme in
        let setup () =
          let r, s, _ =
            scaled (fun () ->
                let image = populate cfg ~files opts.seed in
                record_churn cfg image ~files ~ops:40 (opts.seed + 1))
          in
          acc.setups <- s :: acc.setups;
          r
        in
        match guarded ~deadline:60.0 setup with
        | Error why ->
          fail acc ~attempted:per_scheme (name ^ " set-up: " ^ why);
          None
        | Ok r -> Some (name, cfg, r, sample_states r ~n:per_scheme (opts.seed + 2)))
      crash_schemes
  in
  let pass = ref 0 in
  while
    (!pass = 0 || (acc.failed = 0 && acc.measured_s < opts.seconds))
    && remaining () > 30.0
  do
    Gc.full_major ();
    List.iter
      (fun (name, cfg, r, states) ->
        let cur =
          Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas
        in
        Array.iter
          (fun ((boundary, torn) as state) ->
            (* one op: materialize the state, then recover it *)
            let one () =
              let image, s0, n0 =
                scaled (fun () ->
                    span "volume.materialize" (fun () ->
                        Explorer.materialize cur state))
              in
              let v, s1, n1 = recover acc ~traced ~cfg ~boundary ~torn image in
              acc.recover <- s1 :: acc.recover;
              acc.measured_s <- acc.measured_s +. s0 +. s1;
              acc.minor_words <- acc.minor_words +. n0 +. n1;
              note "phase.measured" (s0 +. s1);
              v
            in
            match guarded ~deadline:30.0 one with
            | Error why -> fail acc ~attempted:1 (name ^ ": " ^ why)
            | Ok v ->
              acc.ops <- acc.ops + 1;
              acc.attempted <- acc.attempted + 1;
              check acc (verdict_ok v) (name ^ ": crash state recovers clean");
              if !pass = 0 then print acc (verdict_line name v))
          states)
      worlds;
    incr pass
  done

(* --- calibration: isolated unit costs of each layer ------------------------------ *)

type calib = {
  ns_per_event : float;
  us_per_request : float;  (** driver + disk model, engine events excluded *)
  ns_per_lookup : float;
  fs_us : float array;  (** inclusive, by [fs_classes] (write: 4 KB) *)
  fs_excl_us : float array;  (** less the engine/driver/cache work inside *)
}

let best_of n f = List.fold_left Float.min infinity (List.init n (fun _ -> f ()))

(* Most events in the workloads resume a parked process, so the engine
   is priced on process sleeps: 1,000 processes, 200 wake-ups each. *)
let calib_engine () =
  let procs = 1000 and sleeps = 200 in
  let e = Engine.create () in
  for p = 1 to procs do
    ignore
      (Proc.spawn e (fun () ->
           for _ = 1 to sleeps do
             Proc.sleep e (1e-3 *. float_of_int p)
           done))
  done;
  let ev0 = Engine.events_executed e in
  let t0 = now () in
  Engine.run e;
  let dt = now () -. t0 in
  dt /. float_of_int (Engine.events_executed e - ev0) *. 1e9

let fresh_driver () =
  let e = Engine.create () in
  let d =
    Disk.create ~engine:e ~params:Su_disk.Disk_params.hp_c2447 ~nfrags:(1 lsl 20) ()
  in
  (e, Driver.create ~engine:e ~disk:d Driver.default_config)

(* Writes at scattered addresses in batches of 64, drained per batch. *)
let calib_driver ~ns_per_event () =
  let e, drv = fresh_driver () in
  let rng = Rng.create 42 in
  let n = 4096 in
  let lbns = Array.init n (fun _ -> 64 + (Rng.int rng 65_000 * 8)) in
  let payload = [| Types.Empty |] in
  let ev0 = Engine.events_executed e in
  let t0 = now () in
  for b = 0 to (n / 64) - 1 do
    for i = 0 to 63 do
      ignore
        (Driver.submit drv ~kind:Su_driver.Request.Write ~lbn:lbns.((b * 64) + i)
           ~nfrags:1 ~payload ~on_complete:(fun _ -> ()) ())
    done;
    Engine.run e
  done;
  let dt = now () -. t0 in
  let events = float_of_int (Engine.events_executed e - ev0) in
  (dt -. (events *. ns_per_event *. 1e-9)) /. float_of_int n *. 1e6

let calib_cache () =
  let e, drv = fresh_driver () in
  let bc = Bcache.create ~engine:e ~driver:drv Bcache.default_config in
  let n = 200_000 and keys = 1024 in
  let init () = Su_cache.Buf.Cdata [| Some Types.Zeroed |] in
  let dt = ref 0.0 in
  ignore
    (Proc.spawn e (fun () ->
         for i = 0 to keys - 1 do
           Bcache.release bc (Bcache.getblk bc ~lbn:(i * 2) ~nfrags:1 ~init)
         done;
         let t0 = now () in
         for i = 0 to n - 1 do
           Bcache.release bc
             (Bcache.getblk bc ~lbn:((i land (keys - 1)) * 2) ~nfrags:1 ~init)
         done;
         dt := now () -. t0));
  Engine.run e;
  !dt /. float_of_int n *. 1e9

(* Each syscall class [n] times in a warm one-tenant world (soft
   updates, directory index on, as tenant-churn runs). *)
let calib_fsops ~ns_per_event ~us_per_request ~ns_per_lookup () =
  let n = 400 in
  let cfg = { (Fs.config ~scheme:Fs.Soft_updates ()) with Fs.dir_index = true } in
  let w = Fs.make cfg in
  let st = w.Fs.st in
  let names p = Array.init n (fun i -> sprintf "/t/%s%d" p i) in
  let fs = names "f" and gs = names "g" and ds = names "d" and ws = names "w" in
  let incl = Array.make (Array.length fs_classes) 0.0 in
  let excl = Array.make (Array.length fs_classes) 0.0 in
  let measure k f =
    let c0 = counters_of w and t0 = now () in
    for i = 0 to n - 1 do
      f i
    done;
    let dt = now () -. t0 and c = sub (counters_of w) c0 in
    let below =
      (float_of_int c.events *. ns_per_event *. 1e-9)
      +. (float_of_int c.requests *. us_per_request *. 1e-6)
      +. (float_of_int (c.hits + c.misses) *. ns_per_lookup *. 1e-9)
    in
    incl.(k) <- dt /. float_of_int n *. 1e6;
    excl.(k) <- Float.max 0.0 (dt -. below) /. float_of_int n *. 1e6
  in
  let bytes = int_of_float (calib_write_kb *. 1024.0) in
  let controller () =
    Fsops.mkdir st "/t";
    Array.iter (fun p -> Fsops.create st p) ws;
    Array.iter (fun p -> ignore (Fsops.stat st p)) ws;
    measure c_create (fun i -> Fsops.create st fs.(i));
    measure c_write (fun i -> Fsops.write_file st fs.(i) ~bytes);
    measure c_rename (fun i -> Fsops.rename st ~src:fs.(i) ~dst:gs.(i));
    measure c_unlink (fun i -> Fsops.unlink st gs.(i));
    measure c_mkdir (fun i -> Fsops.mkdir st ds.(i));
    measure c_stat (fun i -> ignore (Fsops.stat st ws.(i)));
    Fs.stop w;
    Driver.quiesce w.Fs.driver;
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"calibrate" controller);
  Engine.run w.Fs.engine;
  (incl, excl)

let calibrate () =
  let ns_per_event = best_of 3 calib_engine in
  let us_per_request = best_of 3 (calib_driver ~ns_per_event) in
  let ns_per_lookup = best_of 3 calib_cache in
  let fs_us, fs_excl_us =
    calib_fsops ~ns_per_event ~us_per_request ~ns_per_lookup ()
  in
  { ns_per_event; us_per_request; ns_per_lookup; fs_us; fs_excl_us }

(* --- reporting --------------------------------------------------------------------- *)

let metric name unit value =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ])

let ops_per_host_s acc =
  match acc.rates with
  | [] -> per (float_of_int acc.ops) acc.measured_s
  | rates -> median rates

let end_to_end acc =
  let ms q = 1e3 *. quantile acc.recover q in
  let heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    metric "ops_per_host_s" "ops/s" (ops_per_host_s acc);
    metric "recover_ms_p50" "ms" (ms 0.5);
    metric "recover_ms_p90" "ms" (ms 0.9);
    metric "alloc_words_per_op" "words" (per acc.minor_words (float_of_int acc.ops));
    metric "peak_heap_mb" "MB" (float_of_int heap_bytes /. 1e6);
    metric "setup_s" "s" (median acc.setups);
  ]

(* Attribution: each layer's measured-phase count times its isolated
   unit cost, as a share of the measured host time; recovery spans
   count only where recovery is the measured phase. *)
let per_layer acc calib ~overhead =
  let f = float_of_int in
  let ops = f (max 1 acc.ops) in
  let l = acc.layers in
  let measured = acc.measured_s in
  (* unit costs and spans are raw host time: compare them with the
     measured phase unscaled *)
  let share x = per x (measured *. per !raw_total !scaled_total) in
  let engine = f l.events *. calib.ns_per_event *. 1e-9 in
  let driver = f l.requests *. calib.us_per_request *. 1e-6 in
  let cache = f (l.hits + l.misses) *. calib.ns_per_lookup *. 1e-9 in
  let fsops =
    let t = ref 0.0 in
    Array.iteri
      (fun k n ->
        let us = calib.fs_excl_us.(k) in
        let us = if k = c_write then us /. calib_write_kb else us in
        t := !t +. (n *. us *. 1e-6))
      acc.fs_ops;
    !t
  in
  let sum names = List.fold_left (fun s n -> s +. span_total n) 0.0 names in
  let volume, fsck =
    if acc.recovery_measured then
      ( sum [ "volume.materialize"; "volume.snapshot" ],
        sum [ "fsck.replay"; "fsck.check"; "fsck.repair"; "fsck.mount" ] )
    else (0.0, 0.0)
  in
  let explained = engine +. driver +. cache +. fsops +. volume +. fsck in
  [
    metric "engine.events_per_op" "1/op" (f l.events /. ops);
    metric "engine.ns_per_event" "ns" calib.ns_per_event;
    metric "driver.requests_per_op" "1/op" (f l.requests /. ops);
    metric "driver.qdepth_mean" "requests" (per l.qd_sum (f l.qd_n));
    metric "driver.us_per_request" "us" calib.us_per_request;
    metric "disk.services_per_op" "1/op" (f l.services /. ops);
    metric "cache.hit_ratio" "ratio" (per (f l.hits) (f (l.hits + l.misses)));
    metric "cache.evictions_per_op" "1/op" (f l.evictions /. ops);
    metric "cache.ns_per_lookup" "ns" calib.ns_per_lookup;
    metric "syncer.writes_per_op" "1/op" (f l.syncer_writes /. ops);
    metric "scheme.deps_per_op" "1/op" (f l.deps /. ops);
    metric "scheme.rollbacks_per_op" "1/op" (f l.rollbacks /. ops);
    metric "scheme.log_writes_per_op" "1/op" (f l.log_writes /. ops);
  ]
  @ Array.to_list
      (Array.mapi
         (fun k c -> metric ("fsops.us_per_op." ^ c) "us" calib.fs_us.(k))
         fs_classes)
  @ [
      metric "volume.snapshot_ms" "ms" (span_mean_ms "volume.snapshot");
      metric "volume.materialize_ms" "ms" (span_mean_ms "volume.materialize");
      metric "fsck.replay_ms" "ms" (span_mean_ms "fsck.replay");
      metric "fsck.check_ms" "ms" (span_mean_ms "fsck.check");
      metric "fsck.repair_ms" "ms" (span_mean_ms "fsck.repair");
      metric "fsck.mount_ms" "ms" (span_mean_ms "fsck.mount");
      metric "check.continuation_ms" "ms" (span_mean_ms "check.continuation");
      metric "phase.setup_s" "s" (median acc.setups);
      metric "phase.measured_s" "s" measured;
      metric "phase.drain_s" "s" (span_total "phase.drain");
      metric "attrib.engine_share" "ratio" (share engine);
      metric "attrib.driver_share" "ratio" (share driver);
      metric "attrib.cache_share" "ratio" (share cache);
      metric "attrib.fsops_share" "ratio" (share fsops);
      metric "attrib.volume_share" "ratio" (share volume);
      metric "attrib.fsck_share" "ratio" (share fsck);
      metric "attrib.residual_share" "ratio" (1.0 -. share explained);
      metric "trace.overhead_share" "ratio" overhead;
    ]

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v) ->
      match (Json.member "value" v, Json.member "unit" v) with
      | Some (Json.Float x), Some (Json.Str u) ->
        Printf.printf "  %-28s %14.4f %s\n" name x u
      | _ -> ())
    rows

(* --- main ----------------------------------------------------------------------------- *)

let workloads =
  [
    ("copy-remove", copy_remove);
    ("tenant-churn", tenant_churn);
    ("crash-recovery", crash_recovery);
  ]

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and small = ref false and cache_mb = ref 0 in
  let window_scale = ref 1.0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "NAME copy-remove, tenant-churn or crash-recovery");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced run");
      ("--small", Arg.Set small, " reduced sizes (the benchmark's own tests)");
      ("--cache-mb", Arg.Set_int cache_mb, "N buffer cache of every world");
      ("--window-scale", Arg.Set_float window_scale,
       "K tenant-churn: stretch the steady window");
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload workloads) then begin
    Arg.usage spec usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    small = !small;
    cache_mb = (if !cache_mb > 0 then Some !cache_mb else None);
    window_scale = !window_scale;
  }

let () =
  let opts = parse_args () in
  let run = List.assoc opts.workload workloads in
  let recovery_measured = opts.workload = "crash-recovery" in
  let acc = new_acc ~recovery_measured in
  run opts acc ~traced:false;
  Printf.printf "workload %s seed %d: %d ops attempted, %d failed (failed_share %.4f)\n"
    opts.workload opts.seed acc.attempted acc.failed
    (per (float_of_int acc.failed) (float_of_int (max 1 acc.attempted)));
  Printf.printf "fingerprint %s\n" (fingerprint acc);
  Printf.printf "host speed: %.3f of the reference speed (times are rescaled)\n"
    (per !scaled_total !raw_total);
  let e2e = end_to_end acc in
  print_table "end-to-end (untraced)" e2e;
  let correct, attempted, failed, metrics =
    if not opts.trace then (acc.correct, acc.attempted, acc.failed, e2e)
    else begin
      (* the same seed once more, traced; then the isolated drives *)
      Hashtbl.reset spans;
      raw_total := 0.0;
      scaled_total := 0.0;
      let traced = new_acc ~recovery_measured in
      run opts traced ~traced:true;
      Printf.printf "fingerprint (traced) %s\n" (fingerprint traced);
      check traced
        (fingerprint traced = fingerprint acc)
        "the traced run reproduces the untraced run's simulated outputs";
      let calib = calibrate () in
      let base = ops_per_host_s acc in
      let overhead = per (base -. ops_per_host_s traced) base in
      Printf.printf
        "tracing overhead: %.1f%% of ops_per_host_s (%.1f untraced, %.1f traced)\n"
        (100.0 *. overhead) base (ops_per_host_s traced);
      let layers = per_layer traced calib ~overhead in
      print_table "per-layer (traced)" layers;
      ( acc.correct && traced.correct,
        acc.attempted + traced.attempted,
        acc.failed + traced.failed,
        layers )
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 attempted));
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))
