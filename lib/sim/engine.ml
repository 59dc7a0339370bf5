(* Zero-allocation event core.

   The queue lives in flat parallel arrays — a [floatarray] for times
   (unboxed), int arrays for the FIFO sequence numbers and slot ids —
   ordered with monomorphic float/int comparisons, so scheduling
   and dispatching an event touches no heap-allocated structure at
   all once the arrays have grown to steady-state size.

   Event payloads live in a slot pool parallel to the heap (one live
   slot per queued event; the free list is threaded through [s_arg]).
   Hot callers register a handler once ([register]) and schedule
   (handler id, int arg) pairs ([at_handler]/[after_handler]) with
   zero per-event allocation; the closure API ([at]/[after]/[soon])
   remains for cold paths and costs only the caller's closure. *)

type handler = int

let null = -2

let nothing () = ()

(* stub installed in unused handler table cells *)
let unregistered (_ : int) = invalid_arg "Engine: unregistered handler"

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable halted : bool;
  mutable executed : int;
  (* the [until] of the [run] in progress; [neg_infinity] outside one *)
  mutable horizon : float;
  (* binary min-heap over (time, seq); [h_slot] names the payload *)
  mutable h_time : floatarray;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable h_n : int;
  (* slot pool: handler id (-1 = closure event), int argument, closure.
     Free slots are a list threaded through [s_arg]; exactly [h_n]
     slots are live at any time, so pool and heap share capacity. *)
  mutable s_handler : int array;
  mutable s_arg : int array;
  mutable s_closure : (unit -> unit) array;
  mutable s_free : int;
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
}

let create () =
  {
    clock = 0.0;
    seq = 0;
    halted = false;
    executed = 0;
    horizon = neg_infinity;
    h_time = Float.Array.create 0;
    h_seq = [||];
    h_slot = [||];
    h_n = 0;
    s_handler = [||];
    s_arg = [||];
    s_closure = [||];
    s_free = -1;
    handlers = [||];
    n_handlers = 0;
  }

let now t = t.clock
let stop t = t.halted <- true
let stopped t = t.halted
let events_executed t = t.executed
let pending t = t.h_n
let capacity t = Array.length t.h_seq

let register t f =
  if t.n_handlers = Array.length t.handlers then begin
    let ncap = if t.n_handlers = 0 then 8 else t.n_handlers * 2 in
    let nh = Array.make ncap unregistered in
    Array.blit t.handlers 0 nh 0 t.n_handlers;
    t.handlers <- nh
  end;
  let id = t.n_handlers in
  t.handlers.(id) <- f;
  t.n_handlers <- id + 1;
  id

let grow t =
  let cap = Array.length t.h_seq in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nt = Float.Array.make ncap 0.0 in
  Float.Array.blit t.h_time 0 nt 0 t.h_n;
  t.h_time <- nt;
  let nseq = Array.make ncap 0 in
  Array.blit t.h_seq 0 nseq 0 t.h_n;
  t.h_seq <- nseq;
  let nslot = Array.make ncap 0 in
  Array.blit t.h_slot 0 nslot 0 t.h_n;
  t.h_slot <- nslot;
  let nsh = Array.make ncap (-1) in
  Array.blit t.s_handler 0 nsh 0 cap;
  t.s_handler <- nsh;
  let nsa = Array.make ncap 0 in
  Array.blit t.s_arg 0 nsa 0 cap;
  t.s_arg <- nsa;
  let nsc = Array.make ncap nothing in
  Array.blit t.s_closure 0 nsc 0 cap;
  t.s_closure <- nsc;
  for i = cap to ncap - 1 do
    nsa.(i) <- t.s_free;
    t.s_free <- i
  done

(* (time, seq) lexicographic order with primitive comparisons only *)
let ev_lt t i j =
  let ti = Float.Array.unsafe_get t.h_time i
  and tj = Float.Array.unsafe_get t.h_time j in
  ti < tj || (ti = tj && Array.unsafe_get t.h_seq i < Array.unsafe_get t.h_seq j)

let swap t i j =
  let ti = Float.Array.unsafe_get t.h_time i in
  Float.Array.unsafe_set t.h_time i (Float.Array.unsafe_get t.h_time j);
  Float.Array.unsafe_set t.h_time j ti;
  let si = t.h_seq.(i) in
  t.h_seq.(i) <- t.h_seq.(j);
  t.h_seq.(j) <- si;
  let li = t.h_slot.(i) in
  t.h_slot.(i) <- t.h_slot.(j);
  t.h_slot.(j) <- li

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if ev_lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.h_n && ev_lt t l i then l else i in
  let smallest = if r < t.h_n && ev_lt t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let schedule t time h arg closure =
  (* scheduling in the past (or at nan) is clamped to the clock *)
  let time = if time >= t.clock then time else t.clock in
  t.seq <- t.seq + 1;
  if t.h_n = Array.length t.h_seq then grow t;
  let s = t.s_free in
  t.s_free <- t.s_arg.(s);
  t.s_handler.(s) <- h;
  t.s_arg.(s) <- arg;
  t.s_closure.(s) <- closure;
  let i = t.h_n in
  t.h_n <- i + 1;
  Float.Array.unsafe_set t.h_time i time;
  t.h_seq.(i) <- t.seq;
  t.h_slot.(i) <- s;
  sift_up t i

let at t time callback = schedule t time (-1) 0 callback

let after t dt callback =
  let dt = if dt < 0.0 then 0.0 else dt in
  at t (t.clock +. dt) callback

let soon t callback = after t 0.0 callback

let at_handler t time h arg =
  if h < 0 || h >= t.n_handlers then invalid_arg "Engine.at_handler: bad handler";
  schedule t time h arg nothing

let after_handler t dt h arg =
  let dt = if dt < 0.0 then 0.0 else dt in
  at_handler t (t.clock +. dt) h arg

let advance t time =
  if
    time <= t.horizon && time >= t.clock && (not t.halted)
    && (t.h_n = 0 || Float.Array.unsafe_get t.h_time 0 > time)
  then begin
    t.clock <- time;
    true
  end
  else false

let dispatch t limit =
  let continue_ = ref true in
  while !continue_ && (not t.halted) && t.h_n > 0 do
    let time = Float.Array.get t.h_time 0 in
    if time > limit then begin
      (* The next event lies beyond the horizon: leave it queued and
         advance the clock to the horizon — never backwards, so a
         [run ~until] with an earlier limit than a previous one is a
         no-op rather than a time warp. Re-running with a larger
         [until] then picks the event up where one longer run would
         have. *)
      if limit > t.clock then t.clock <- limit;
      continue_ := false
    end
    else begin
      let s = t.h_slot.(0) in
      t.h_n <- t.h_n - 1;
      if t.h_n > 0 then begin
        let n = t.h_n in
        Float.Array.unsafe_set t.h_time 0 (Float.Array.unsafe_get t.h_time n);
        t.h_seq.(0) <- t.h_seq.(n);
        t.h_slot.(0) <- t.h_slot.(n);
        sift_down t 0
      end;
      t.clock <- time;
      t.executed <- t.executed + 1;
      let h = t.s_handler.(s) and arg = t.s_arg.(s) in
      let closure = t.s_closure.(s) in
      (* free the slot before dispatch so the callback can reuse it *)
      t.s_closure.(s) <- nothing;
      t.s_arg.(s) <- t.s_free;
      t.s_free <- s;
      if h >= 0 then t.handlers.(h) arg else closure ()
    end
  done

let run ?until t =
  let limit = match until with None -> infinity | Some u -> u in
  let outer = t.horizon in
  t.horizon <- limit;
  match dispatch t limit with
  | () -> t.horizon <- outer
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.horizon <- outer;
    Printexc.raise_with_backtrace e bt
