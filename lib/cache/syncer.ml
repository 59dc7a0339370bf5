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
  let keys = Bcache.sorted_keys t.cache in
  let n = Array.length keys in
  if n > 0 then begin
    let slice = max 1 ((n + t.passes - 1) / t.passes) in
    let start =
      (* first key at or past the cursor (binary search over the
         sorted keys), wrapping to the beginning when there is none *)
      let rec find lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if keys.(mid) >= t.cursor then find lo mid else find (mid + 1) hi
      in
      let i = find 0 n in
      if i >= n then 0 else i
    in
    for off = 0 to slice - 1 do
      let idx = (start + off) mod n in
      match Bcache.lookup t.cache keys.(idx) with
      | None -> ()
      | Some b ->
        if b.Buf.dirty && b.Buf.io_count = 0 then begin
          b.Buf.syncer_marked <- true;
          t.marked <- keys.(idx) :: t.marked
        end
    done;
    (* next tick continues after the last key processed; when we ran
       off the end the search above wraps to the beginning *)
    t.cursor <- keys.((start + slice - 1) mod n) + 1
  end;
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

let start ~engine ~cache ?(interval = 1.0) ?(passes = 30) () =
  let t =
    { engine; cache; interval; passes; cursor = 0; marked = []; stopped = false;
      writes = 0; items = 0; npasses = 0;
      batch = Su_obs.Hist.create ~base:1.0 ~buckets:32 ();
      residency = Su_obs.Hist.create ~base:1.0 ~buckets:32 () }
  in
  ignore (Su_sim.Proc.spawn engine ~name:"syncer" (loop t));
  t

let stop t = t.stopped <- true

let writes_issued t = t.writes
let workitems_run t = t.items
let passes_run t = t.npasses
let batch_hist t = t.batch
let residency_hist t = t.residency
