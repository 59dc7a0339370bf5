open Su_obs

type record = {
  r_id : int;
  r_kind : Request.kind;
  r_lbn : int;
  r_nfrags : int;
  r_sync : bool;
  r_issue : float;
  r_start : float;
  r_complete : float;
}

type t = {
  keep : bool;
  mutable recs_rev : record list;
  mutable recs_cache : record list option;
  mutable nreads : int;
  mutable nwrites : int;
  mutable nretries : int;
  mutable nfailures : int;
  mutable nremaps : int;
  access : Hist.t;
  response : Hist.t;
  sync_response : Hist.t;
  qdepth : Hist.t;
}

let create ?(keep_records = false) () =
  {
    keep = keep_records;
    recs_rev = [];
    recs_cache = None;
    nreads = 0;
    nwrites = 0;
    nretries = 0;
    nfailures = 0;
    nremaps = 0;
    access = Hist.create ();
    response = Hist.create ();
    sync_response = Hist.create ();
    (* Queue-depth samples are small integers; base 1 keeps the low
       buckets meaningful (0..1, 1..2, 2..4, ...). *)
    qdepth = Hist.create ~base:1.0 ~buckets:32 ();
  }

let note_retry t = t.nretries <- t.nretries + 1
let note_failure t = t.nfailures <- t.nfailures + 1
let note_remap t = t.nremaps <- t.nremaps + 1
let io_retries t = t.nretries
let io_failures t = t.nfailures
let io_remaps t = t.nremaps

(* Field-wise fast path: the driver's completion loop measures a
   request without materializing a [record] unless records are kept. *)
let note_io t ~id ~kind ~lbn ~nfrags ~sync ~issue ~start ~complete =
  (match kind with
   | Request.Read -> t.nreads <- t.nreads + 1
   | Request.Write -> t.nwrites <- t.nwrites + 1);
  Hist.add t.access (complete -. start);
  Hist.add t.response (complete -. issue);
  if sync then Hist.add t.sync_response (complete -. issue);
  if t.keep then begin
    t.recs_rev <-
      {
        r_id = id;
        r_kind = kind;
        r_lbn = lbn;
        r_nfrags = nfrags;
        r_sync = sync;
        r_issue = issue;
        r_start = start;
        r_complete = complete;
      }
      :: t.recs_rev;
    t.recs_cache <- None
  end

let note t r =
  note_io t ~id:r.r_id ~kind:r.r_kind ~lbn:r.r_lbn ~nfrags:r.r_nfrags
    ~sync:r.r_sync ~issue:r.r_issue ~start:r.r_start ~complete:r.r_complete

let note_qdepth t depth = Hist.add_int t.qdepth depth

let requests t = t.nreads + t.nwrites
let reads t = t.nreads
let writes t = t.nwrites

let ms h = 1000.0 *. Hist.mean h

let avg_access_ms t = ms t.access
let avg_response_ms t = ms t.response
let sync_avg_response_ms t = ms t.sync_response

let response_hist t = t.response
let qdepth_hist t = t.qdepth

let response_percentile_ms t p = 1000.0 *. Hist.percentile t.response p
let response_max_ms t = 1000.0 *. Hist.max_value t.response

let records t =
  match t.recs_cache with
  | Some rs -> rs
  | None ->
    let rs = List.rev t.recs_rev in
    t.recs_cache <- Some rs;
    rs
