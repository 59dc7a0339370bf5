type t = {
  engine : Su_sim.Engine.t;
  cache : Bcache.t;
  interval : float;
  passes : int;
  mutable cursor : int;  (* next extent key to sweep *)
  mutable marked : int list;  (* keys marked on the previous pass *)
  mutable stopped : bool;
  mutable writes : int;
  mutable items : int;
  mutable npasses : int;
  batch : Su_obs.Hist.t;  (* writes issued per sweep *)
  residency : Su_obs.Hist.t;  (* dirty-buffer count sampled per sweep *)
}

(* The first cached key at or past [k], wrapping to the smallest past
   the largest. *)
let next_wrapping cache k =
  match Bcache.next_key cache k with -1 -> Bcache.next_key cache 0 | k -> k

(* Mark the dirty idle blocks among [left] keys in address order from
   [key]; [left] is at most the buffer count, so no key is visited
   twice. The next tick continues after the last key visited. *)
let rec mark_slice t key left =
  (match Bcache.lookup t.cache key with
   | Some b when b.Buf.dirty && b.Buf.io_count = 0 ->
     b.Buf.syncer_marked <- true;
     t.marked <- key :: t.marked
   | Some _ | None -> ());
  if left > 1 then mark_slice t (next_wrapping t.cache (key + 1)) (left - 1)
  else t.cursor <- key + 1

(* Issue writes for the blocks marked one pass ago (if still dirty),
   then mark the dirty blocks in the next 1/passes slice of the cache.
   A block is therefore written within roughly (passes + 1) x interval
   of being dirtied, and the write-back load is spread smoothly. *)
let sweep t =
  t.npasses <- t.npasses + 1;
  Su_obs.Hist.add t.residency (float_of_int (Bcache.dirty_count t.cache));
  let writes_before = t.writes in
  let due = t.marked in
  t.marked <- [];
  List.iter
    (fun key ->
      match Bcache.lookup t.cache key with
      | Some b when b.Buf.dirty && b.Buf.io_count = 0 && b.Buf.syncer_marked ->
        b.Buf.syncer_marked <- false;
        t.writes <- t.writes + 1;
        ignore (Bcache.bawrite t.cache b)
      | Some b -> b.Buf.syncer_marked <- false
      | None -> ())
    due;
  let n = Bcache.buffer_count t.cache in
  if n > 0 then
    mark_slice t
      (next_wrapping t.cache t.cursor)
      (max 1 ((n + t.passes - 1) / t.passes));
  Su_obs.Hist.add t.batch (float_of_int (t.writes - writes_before))

let rec loop t () =
  Su_sim.Proc.sleep t.engine t.interval;
  if not t.stopped then begin
    let items = Bcache.take_workitems t.cache in
    List.iter
      (fun item ->
        t.items <- t.items + 1;
        item ())
      items;
    sweep t;
    loop t ()
  end

let create ~engine ~cache ?(interval = 1.0) ?(passes = 30) () =
  { engine; cache; interval; passes; cursor = 0; marked = []; stopped = false;
    writes = 0; items = 0; npasses = 0;
    batch = Su_obs.Hist.create ~base:1.0 ~buckets:32 ();
    residency = Su_obs.Hist.create ~base:1.0 ~buckets:32 () }

let start ~engine ~cache ?interval ?passes () =
  let t = create ~engine ~cache ?interval ?passes () in
  ignore (Su_sim.Proc.spawn engine ~name:"syncer" (loop t));
  t

let stop t = t.stopped <- true

let cursor t = t.cursor
let marked t = t.marked
let writes_issued t = t.writes
let workitems_run t = t.items
let passes_run t = t.npasses
let batch_hist t = t.batch
let residency_hist t = t.residency
