open Su_fstypes

type op = Read | Write

type stream = { mutable next_lbn : int; mutable limit : int }
(* A sequential read stream cached on board: fragments in
   [next_lbn, limit) are (or are being) prefetched. *)

type destage = { d_lbn : int; d_nfrags : int }

let no_done (_ : (Types.cell array option, Fault.error) result) (_ : float) = ()

type t = {
  engine : Su_sim.Engine.t;
  params : Disk_params.t;
  fault : Fault.t;
  image : Volume.t;
  (* [image] covers the addressable media ([0, media)) plus, when a
     spare pool is configured, one reserved cell for the persisted
     remap table at [media] and the spares above it. All external
     addressing is logical; [remap] translates on access. The volume
     stores the slab-class metadata kinds compactly (see Volume);
     reserved boxed cells keep the legacy aliasing — the [Csum] cell
     below IS the live [csum] array. *)
  media : int;
  remap : Remap.t option;
  csum : int array option;
  (* per-fragment digest of the logical media, keyed by logical
     address; aliases the [Types.Csum] cell at [csum_slot] so
     snapshots carry it (deep-copied by [Types.copy_cell]). Updated at
     write *acknowledgement*: a lost write refreshes the digest while
     the media keeps stale data, a misdirected write refreshes its
     intended range while the payload lands elsewhere — both therefore
     detectable by an end-to-end verify, which is the point. *)
  csum_slot : int;
  mutable nremaps : int;
  mutable cur_cyl : int;
  mutable busy : bool;
  mutable streams : stream list;
  mutable serviced : int;
  fl : floatarray;
  (* Float accumulators and the in-flight service time, kept in a flat
     float array because mutable float fields of this (mixed) record
     would box on every store — several allocations per operation.
     Slots: 0 = total service time, 1 = seek, 2 = rotation wait,
     3 = transfer, 4 = overhead, 5 = service time of the operation in
     flight. Service time is accumulated per operation (media
     operations and destages alike); cache-hit reads count their burst
     transfer and overhead, NVRAM-accepted writes are excluded.
     Slots 6 and 7 cache two per-disk constants of the mechanical
     model — the rotation period and [sqrt (cylinders - 2)] — so the
     per-operation timing math pays no repeated division or square
     root (the cached values are bit-identical to recomputation, so
     simulated times are unchanged). *)
  nvram_frags : int;  (* 0 = no NVRAM *)
  mutable nv_used : int;
  nv_queue : destage Queue.t;
  nv_resident : (int, int) Hashtbl.t;  (* extent start -> nfrags *)
  mutable ndestages : int;
  mutable on_idle : unit -> unit;
      (* lets the layer above re-dispatch when a background destage
         finishes (it gets no request completion to react to) *)
  mutable delta_observer :
    (lbn:int -> pre:Types.cell array -> post:Types.cell array -> unit) option;
  (* The operation being serviced, stashed here so its completion is a
     registered handler event instead of a fresh closure per I/O (the
     device services one operation at a time, so one set of fields
     suffices; [p_on_done] is reset to [no_done] at completion). *)
  mutable done_h : Su_sim.Engine.handler;
  mutable destage_h : Su_sim.Engine.handler;
  mutable p_lbn : int;
  mutable p_nfrags : int;
  mutable p_op : op;
  mutable p_payload : Types.cell array option;
  mutable p_verdict : Fault.verdict;
  mutable p_nvram_hit : bool;
  mutable p_on_done : (Types.cell array option, Fault.error) result -> float -> unit;
  (* destage in flight (mutually exclusive with a foreground op) *)
  mutable p_destage : destage;
  mutable mounted : Types.cell array option;
      (* the array [install_image] mounted, which the volume reads
         through until [take_image] writes the stored cells back *)
}

let busy t = t.busy
let nfrags t = t.media

(* Remapping is consulted only when at least one entry exists, so a
   disk with an empty (or absent) spare pool takes exactly the seed's
   code path. *)
let has_remaps t =
  match t.remap with Some r -> Remap.size r > 0 | None -> false

let phys_of t lbn =
  match t.remap with Some r -> Remap.lookup r lbn | None -> lbn

let remaps t = t.nremaps

let spares_total t =
  match t.remap with Some r -> Remap.nspares r | None -> 0

let spares_left t =
  match t.remap with Some r -> Remap.spares_left r | None -> 0

let remap_entries t =
  match t.remap with Some r -> Remap.entries r | None -> []
let requests_serviced t = t.serviced
let total_service_time t = Float.Array.get t.fl 0
let seek_time_total t = Float.Array.get t.fl 1
let rot_wait_time_total t = Float.Array.get t.fl 2
let transfer_time_total t = Float.Array.get t.fl 3
let overhead_time_total t = Float.Array.get t.fl 4
let nvram_pending t = t.nv_used
let destages t = t.ndestages
let set_idle_callback t f = t.on_idle <- f
let fault t = t.fault
let faults_injected t = Fault.injected t.fault
let silent_faults t = Fault.silent_injected t.fault

let expected_digest t lbn =
  match t.csum with
  | Some ca when lbn >= 0 && lbn < t.media -> Some ca.(lbn)
  | Some _ | None -> None

let set_delta_observer t f = t.delta_observer <- Some f

let cyl_of_lbn t lbn = lbn / Disk_params.frags_per_cyl t.params

let angle_of_lbn t lbn =
  let per_track = t.params.Disk_params.frags_per_track in
  float_of_int (lbn mod per_track) /. float_of_int per_track

let angle_at_time t time =
  let rot = Float.Array.get t.fl 6 in
  let frac = time /. rot in
  frac -. Float.of_int (int_of_float frac)

(* Cache-hit test: a read is served from the on-board cache when it
   extends one of the active sequential streams. *)
let stream_hit t lbn nfrags =
  List.exists
    (fun s -> lbn = s.next_lbn && lbn + nfrags <= s.limit)
    t.streams

let advance_stream t lbn nfrags =
  let matching = List.find_opt (fun s -> lbn = s.next_lbn) t.streams in
  let limit = min t.media (lbn + nfrags + t.params.Disk_params.prefetch_frags) in
  match matching with
  | Some s ->
    s.next_lbn <- lbn + nfrags;
    s.limit <- limit
  | None ->
    let s = { next_lbn = lbn + nfrags; limit } in
    let keep =
      if List.length t.streams >= t.params.Disk_params.cache_segments then
        match List.rev t.streams with
        | [] -> []
        | _oldest :: rest -> List.rev rest
      else t.streams
    in
    t.streams <- s :: keep

(* [Disk_params.seek_time] with the constant divisor cached: same
   operations in the same order, so the result is bit-identical. *)
let seek_time t distance =
  let p = t.params in
  if distance <= 0 then 0.0
  else if distance = 1 then p.Disk_params.seek_single
  else
    let frac = sqrt (float_of_int (distance - 1)) /. Float.Array.get t.fl 7 in
    p.Disk_params.seek_single
    +. ((p.Disk_params.seek_max -. p.Disk_params.seek_single) *. frac)

let mechanical_time t ~lbn ~nfrags ~now =
  let p = t.params in
  let rot = Float.Array.get t.fl 6 in
  let seek = seek_time t (abs (cyl_of_lbn t lbn - t.cur_cyl)) in
  let arrive = now +. p.Disk_params.overhead +. seek in
  let target = angle_of_lbn t lbn in
  let cur = angle_at_time t arrive in
  let wait =
    let d = target -. cur in
    if d < 0.0 then d +. 1.0 else d
  in
  let transfer =
    float_of_int nfrags /. float_of_int p.Disk_params.frags_per_track *. rot
  in
  Float.Array.set t.fl 1 (Float.Array.get t.fl 1 +. seek);
  Float.Array.set t.fl 2 (Float.Array.get t.fl 2 +. (wait *. rot));
  Float.Array.set t.fl 3 (Float.Array.get t.fl 3 +. transfer);
  Float.Array.set t.fl 4 (Float.Array.get t.fl 4 +. p.Disk_params.overhead);
  p.Disk_params.overhead +. seek +. (wait *. rot) +. transfer

let service_time_for t ~lbn ~nfrags ~op ~now =
  match op with
  | Read when stream_hit t lbn nfrags ->
    let p = t.params in
    let transfer =
      float_of_int nfrags
      /. float_of_int p.Disk_params.frags_per_track
      *. Float.Array.get t.fl 6
      /. 4.0
      (* cache-to-host burst is much faster than media rate *)
    in
    Float.Array.set t.fl 3 (Float.Array.get t.fl 3 +. transfer);
    Float.Array.set t.fl 4 (Float.Array.get t.fl 4 +. p.Disk_params.overhead);
    p.Disk_params.overhead +. transfer
  | Read | Write -> mechanical_time t ~lbn ~nfrags ~now

(* Electronic cost of moving [nfrags] into the NVRAM buffer. *)
let nvram_write_time t nfrags =
  t.params.Disk_params.overhead /. 2.0 +. (float_of_int nfrags *. 20e-6)

(* Destage one queued NVRAM extent at mechanical cost while the device
   is otherwise idle; foreground requests queue behind at most one
   destage operation. The data is already durable (the image was
   updated at acceptance), so destaging only frees buffer space. *)
let rec maybe_destage t =
  if (not t.busy) && not (Queue.is_empty t.nv_queue) then begin
    let d = Queue.pop t.nv_queue in
    let now = Su_sim.Engine.now t.engine in
    let svc = mechanical_time t ~lbn:d.d_lbn ~nfrags:d.d_nfrags ~now in
    t.busy <- true;
    t.p_destage <- d;
    Su_sim.Engine.after_handler t.engine svc t.destage_h 0
  end

and complete_destage t =
  let d = t.p_destage in
  t.busy <- false;
  t.cur_cyl <- cyl_of_lbn t (d.d_lbn + d.d_nfrags - 1);
  t.ndestages <- t.ndestages + 1;
  t.nv_used <- t.nv_used - d.d_nfrags;
  Hashtbl.remove t.nv_resident d.d_lbn;
  (* let queued foreground requests go first *)
  t.on_idle ();
  maybe_destage t

(* Land one contiguous *physical* run on the media and notify the
   observers. Observers always see physical addresses, so a recorded
   delta log materializes the physical image (spares and remap-table
   cell included) at any boundary. *)
let apply_phys_run t ~phys ~src ~len cells =
  let pre =
    match t.delta_observer with
    | Some _ when len > 0 ->
      Some (Array.init len (fun i -> Volume.read t.image (phys + i)))
    | Some _ | None -> None
  in
  for i = 0 to len - 1 do
    Volume.set t.image (phys + i) cells.(src + i)
  done;
  match t.delta_observer, pre with
  | Some f, Some pre ->
    f ~lbn:phys ~pre
      ~post:(Array.init len (fun i -> Types.copy_cell cells.(src + i)))
  | (Some _ | None), _ -> ()

(* Drop the cached streams a write of [lbn, lbn + nfrags) overlaps;
   the list is rebuilt only when one does. *)
let invalidate_streams t ~lbn ~nfrags =
  let overlaps s = s.limit > lbn && s.next_lbn < lbn + nfrags in
  if List.exists overlaps t.streams then
    t.streams <- List.filter (fun s -> not (overlaps s)) t.streams

let apply_write t ~lbn ~nfrags cells =
  if not (has_remaps t) then begin
    (* pre-images are captured before the blit so a delta observer can
       undo the write as well as replay it *)
    let pre =
      match t.delta_observer with
      | Some _ when nfrags > 0 ->
        Some (Array.init nfrags (fun i -> Volume.read t.image (lbn + i)))
      | Some _ | None -> None
    in
    for i = 0 to nfrags - 1 do
      Volume.set t.image (lbn + i) cells.(i)
    done;
    (* a write invalidates overlapping cached streams *)
    invalidate_streams t ~lbn ~nfrags;
    match t.delta_observer, pre with
    | Some f, Some pre ->
      f ~lbn ~pre
        ~post:(Array.init nfrags (fun i -> Types.copy_cell cells.(i)))
    | (Some _ | None), _ -> ()
  end
  else begin
    (* split the logical extent into contiguous physical runs (a
       remapped fragment redirects to its spare) and land each run
       separately; stream invalidation stays logical, since streams
       are keyed by the logical addresses reads present *)
    invalidate_streams t ~lbn ~nfrags;
    let i = ref 0 in
    while !i < nfrags do
      let start = phys_of t (lbn + !i) in
      let len = ref 1 in
      while
        !i + !len < nfrags && phys_of t (lbn + !i + !len) = start + !len
      do
        incr len
      done;
      apply_phys_run t ~phys:start ~src:!i ~len:!len cells;
      i := !i + !len
    done
  end

(* Refresh the checksum region for [nfrags] payload cells acknowledged
   at logical [lbn] — the ack-time half of the end-to-end argument
   (see the [csum] field comment). *)
let ack_csums t ~lbn ~nfrags cells =
  match t.csum with
  | None -> ()
  | Some ca ->
    for i = 0 to nfrags - 1 do
      ca.(lbn + i) <- Types.cell_digest cells.(i)
    done

(* Completion of the stashed foreground operation: same sequence as
   the seed's per-submit closure, reading the [p_*] fields instead of
   captured variables. The fields are read out (and [p_on_done] and
   [p_payload] dropped) before [on_done] runs, because the callback
   routinely submits the next operation and re-fills them. *)
let complete_op t =
  let lbn = t.p_lbn and nfrags = t.p_nfrags and op = t.p_op in
  let payload = t.p_payload and verdict = t.p_verdict in
  let svc = Float.Array.get t.fl 5 in
  let nvram_hit = t.p_nvram_hit in
  let on_done = t.p_on_done in
  t.p_on_done <- no_done;
  t.p_payload <- None;
  t.busy <- false;
  if not nvram_hit then t.cur_cyl <- cyl_of_lbn t (lbn + nfrags - 1);
  t.serviced <- t.serviced + 1;
  Float.Array.set t.fl 0 (Float.Array.get t.fl 0 +. svc);
  match verdict with
  | Fault.Failed { err; applied } ->
    (* a torn write: only the leading [applied] fragments reached
       the media before the failure *)
    (match op, payload with
     | Write, Some cells when applied > 0 ->
       apply_write t ~lbn ~nfrags:applied cells;
       ack_csums t ~lbn ~nfrags:applied cells
     | _ -> ());
    on_done (Error err) svc;
    maybe_destage t
  | Fault.Silent s ->
    (* the device lies: the attempt reports success *)
    let result =
      match op, s with
      | Read, Fault.Flip_read { frag } ->
        advance_stream t lbn nfrags;
        let cells =
          Array.init nfrags (fun i -> Volume.read t.image (phys_of t (lbn + i)))
        in
        let i = frag - lbn in
        if i >= 0 && i < nfrags then
          cells.(i) <- Fault.corrupt t.fault cells.(i);
        Some cells
      | Write, Fault.Lost_write ->
        (* acknowledged, never applied: digests refresh, media stays *)
        (match payload with
         | Some cells -> ack_csums t ~lbn ~nfrags cells
         | None -> ());
        None
      | Write, Fault.Misdirect_write { target } ->
        (match payload with
         | Some cells ->
           ack_csums t ~lbn ~nfrags cells;
           (* the payload lands on the victim extent instead; the
              victim's digests are *not* refreshed (the device does
              not know it wrote there), so both sectors verify dirty *)
           let len = min nfrags (t.media - target) in
           if len > 0 then apply_write t ~lbn:target ~nfrags:len cells
         | None -> ());
        None
      | Read, (Fault.Lost_write | Fault.Misdirect_write _) ->
        advance_stream t lbn nfrags;
        Some
          (Array.init nfrags (fun i -> Volume.read t.image (phys_of t (lbn + i))))
      | Write, Fault.Flip_read _ ->
        (match payload with
         | Some cells ->
           if not nvram_hit then begin
             apply_write t ~lbn ~nfrags cells;
             ack_csums t ~lbn ~nfrags cells
           end;
           None
         | None -> None)
    in
    on_done (Ok result) svc;
    maybe_destage t
  | Fault.Ok_attempt | Fault.Stalled ->
    let result =
      match op with
      | Read ->
        advance_stream t lbn nfrags;
        if has_remaps t then
          Some
            (Array.init nfrags (fun i ->
                 Volume.read t.image (phys_of t (lbn + i))))
        else Some (Array.init nfrags (fun i -> Volume.read t.image (lbn + i)))
      | Write ->
        (match payload with
         | Some cells ->
           if not nvram_hit then apply_write t ~lbn ~nfrags cells;
           ack_csums t ~lbn ~nfrags cells;
           None
         | None -> None)
    in
    on_done (Ok result) svc;
    maybe_destage t

let submit t ~lbn ~nfrags ~op ~payload ~on_done =
  if t.busy then invalid_arg "Disk.submit: device busy";
  if nfrags <= 0 || lbn < 0 || lbn + nfrags > t.media then
    invalid_arg "Disk.submit: address out of range";
  (match op, payload with
   | Write, None -> invalid_arg "Disk.submit: write without payload"
   | Write, Some p when Array.length p <> nfrags ->
     invalid_arg "Disk.submit: payload length mismatch"
   | Write, Some _ | Read, _ -> ());
  let now = Su_sim.Engine.now t.engine in
  let is_write = match op with Write -> true | Read -> false in
  (* a write to an extent already buffered coalesces in place: no new
     space, no extra destage (the destage writes the latest contents) *)
  let nvram_coalesce =
    is_write && t.nvram_frags > 0
    && (match Hashtbl.find_opt t.nv_resident lbn with
        | Some n -> n = nfrags
        | None -> false)
  in
  let nvram_hit =
    nvram_coalesce
    || (is_write && t.nvram_frags > 0 && t.nv_used + nfrags <= t.nvram_frags)
  in
  (* the fault model only covers media operations; an NVRAM-accepted
     write is a RAM copy and cannot fail or tear *)
  let verdict =
    if nvram_hit then Fault.Ok_attempt
    else if has_remaps t then
      Fault.judge t.fault ~phys:(phys_of t) ~media:t.media
        ~op:(match op with Read -> `Read | Write -> `Write)
        ~lbn ~nfrags ()
    else
      Fault.judge t.fault ~media:t.media
        ~op:(match op with Read -> `Read | Write -> `Write)
        ~lbn ~nfrags ()
  in
  let svc =
    if nvram_hit then nvram_write_time t nfrags
    else
      let base = service_time_for t ~lbn ~nfrags ~op ~now in
      match verdict with
      | Fault.Stalled -> base *. (Fault.config t.fault).Fault.stall_factor
      | Fault.Ok_attempt | Fault.Failed _ | Fault.Silent _ -> base
  in
  t.busy <- true;
  if nvram_hit then begin
    (* durable on acceptance: NVRAM survives a crash *)
    (match payload with
     | Some cells -> apply_write t ~lbn ~nfrags cells
     | None -> ());
    if not nvram_coalesce then begin
      t.nv_used <- t.nv_used + nfrags;
      Hashtbl.replace t.nv_resident lbn nfrags;
      Queue.add { d_lbn = lbn; d_nfrags = nfrags } t.nv_queue
    end
  end;
  t.p_lbn <- lbn;
  t.p_nfrags <- nfrags;
  t.p_op <- op;
  t.p_payload <- payload;
  t.p_verdict <- verdict;
  Float.Array.set t.fl 5 svc;
  t.p_nvram_hit <- nvram_hit;
  t.p_on_done <- on_done;
  Su_sim.Engine.after_handler t.engine svc t.done_h 0

let create ~engine ~params ~nfrags ?(nvram_frags = 0) ?(fault = Fault.none)
    ?(spare_frags = 0) ?(checksums = false) () =
  if nfrags > Disk_params.capacity_frags params then
    invalid_arg "Disk.create: file system larger than the drive";
  if spare_frags < 0 then invalid_arg "Disk.create: negative spare pool";
  (* spares (and the remap-table cell) live past the addressable
     media; the checksum region takes one more reserved cell past the
     spares *)
  let extra_remap = if spare_frags > 0 then spare_frags + 1 else 0 in
  let extra = extra_remap + if checksums then 1 else 0 in
  let csum_slot = nfrags + extra_remap in
  let csum =
    if checksums then
      Some (Array.make nfrags (Types.cell_digest Types.Empty))
    else None
  in
  let t =
    {
      engine;
      params;
      fault = Fault.create fault;
      image = Volume.create (nfrags + extra);
      media = nfrags;
      csum;
      csum_slot;
      remap =
        (if spare_frags > 0 then
           Some (Remap.create ~media:nfrags ~nspares:spare_frags)
         else None);
      nremaps = 0;
      cur_cyl = 0;
      busy = false;
      streams = [];
      serviced = 0;
      fl = Float.Array.make 8 0.0;
      nvram_frags;
      nv_used = 0;
      nv_queue = Queue.create ();
      nv_resident = Hashtbl.create 64;
      ndestages = 0;
      on_idle = (fun () -> ());
      delta_observer = None;
      done_h = Su_sim.Engine.null;
      destage_h = Su_sim.Engine.null;
      p_lbn = 0;
      p_nfrags = 0;
      p_op = Read;
      p_payload = None;
      p_verdict = Fault.Ok_attempt;
      p_nvram_hit = false;
      p_on_done = no_done;
      p_destage = { d_lbn = 0; d_nfrags = 0 };
      mounted = None;
    }
  in
  Float.Array.set t.fl 6 (Disk_params.rotation_time params);
  Float.Array.set t.fl 7
    (sqrt (float_of_int (params.Disk_params.cylinders - 2)));
  t.done_h <- Su_sim.Engine.register engine (fun _ -> complete_op t);
  t.destage_h <- Su_sim.Engine.register engine (fun _ -> complete_destage t);
  (* boxed as-is in the volume, so [t.csum] keeps aliasing the stored
     cell exactly as the legacy cell-array image did *)
  (match csum with
   | Some ca -> Volume.set t.image csum_slot (Types.Csum ca)
   | None -> ());
  t

let install t lbn cell =
  if lbn < 0 || lbn >= Volume.length t.image then
    invalid_arg "Disk.install: address out of range";
  let phys = if lbn < t.media then phys_of t lbn else lbn in
  Volume.set t.image phys cell;
  match t.csum with
  | Some ca when lbn < t.media -> ca.(lbn) <- Types.cell_digest cell
  | Some _ | None -> ()

(* Load a persisted checksum region (a [Types.Csum] cell from a prior
   incarnation's image) over the live one, replacing the digests
   [install] computed from the installed cells — corruption that
   predates the mount therefore stays detectable. *)
let install_csum t cell =
  match t.csum, cell with
  | Some ca, Types.Csum src ->
    Array.blit src 0 ca 0 (min (Array.length src) (Array.length ca))
  | (Some _ | None), _ -> ()

(* The array is mounted by reference: its cells are neither encoded
   nor copied, only digested for the checksum region. A captured
   checksum region goes through [install_csum], never positionally (the
   source layout's slot may differ from ours), so the cell it sat in
   keeps what it held. [Empty] media cells leave their digest alone:
   the fresh region starts at the [Empty] digest, so mount cost follows
   the cells in use. *)
let install_image t cells =
  if Array.length cells > Volume.length t.image then
    invalid_arg "Disk.install_image: image larger than the device";
  if has_remaps t then invalid_arg "Disk.install_image: device already remapped";
  let kept = ref [] in
  Array.iteri
    (fun i c ->
      match c, t.csum with
      | Types.Empty, _ -> ()
      | Types.Csum _, _ ->
        kept := (i, Volume.peek t.image i) :: !kept;
        install_csum t c
      | _, Some ca when i < t.media -> ca.(i) <- Types.cell_digest c
      | _, (Some _ | None) -> ())
    cells;
  Volume.mount t.image cells;
  List.iter (fun (i, c) -> Volume.set t.image i c) !kept;
  t.mounted <- Some cells

(* Every cell the volume does not read through the mounted array —
   stored since the mount, or a [Csum] cell's slot, or past its end —
   is read back into that array; the rest already are its cells. *)
let take_image t =
  match t.mounted with
  | None -> invalid_arg "Disk.take_image: no image installed"
  | Some base ->
    t.mounted <- None;
    let n = Volume.length t.image in
    let out =
      if Array.length base = n then base
      else Array.append base (Array.make (n - Array.length base) Types.Empty)
    in
    Volume.iter_written t.image (fun i -> out.(i) <- Volume.read t.image i);
    out

let peek t lbn =
  if lbn < 0 || lbn >= Volume.length t.image then
    invalid_arg "Disk.peek: address out of range";
  if lbn < t.media then Volume.peek t.image (phys_of t lbn)
  else Volume.peek t.image lbn

let frag_digest t lbn =
  if lbn < 0 || lbn >= Volume.length t.image then
    invalid_arg "Disk.frag_digest: address out of range";
  if lbn < t.media then Volume.digest t.image (phys_of t lbn)
  else Volume.digest t.image lbn

let image_snapshot t = Volume.snapshot t.image

let image_stats t = Volume.stats t.image

(* --- bad-sector remapping --------------------------------------------- *)

(* The remap table is persisted as an ordinary observed write of its
   reserved cell, so crash-materialized images carry it and
   [reload_remap] finds it at mount. *)
let persist_remap t r =
  let slot = Remap.table_slot r in
  let cell = Remap.cell r in
  let pre =
    match t.delta_observer with
    | Some _ -> Some [| Volume.read t.image slot |]
    | None -> None
  in
  Volume.set t.image slot cell;
  match t.delta_observer, pre with
  | Some f, Some pre -> f ~lbn:slot ~pre ~post:[| Types.copy_cell cell |]
  | (Some _ | None), _ -> ()

let try_remap t ~lbn =
  match t.remap with
  | None -> false
  | Some r ->
    if lbn < 0 || lbn >= t.media then false
    else (
      match Remap.remap r lbn with
      | None -> false (* spare pool exhausted *)
      | Some _phys ->
        t.nremaps <- t.nremaps + 1;
        persist_remap t r;
        true)

let reload_remap t =
  match t.remap with
  | None -> ()
  | Some r -> Remap.load r (Volume.peek t.image (Remap.table_slot r))

(* The logical view: every remap entry resolved to its spare's content
   (decoded copies), and the checksum region carried right after the
   media so checkers of a rebuilt replacement drive keep end-to-end
   verification. *)
let logical_snapshot t =
  let total = Volume.length t.image in
  if total <= t.media then Array.init total (fun i -> Volume.read t.image i)
  else begin
    let logical = Array.init t.media (fun i -> Volume.read t.image i) in
    (match Volume.peek t.image t.media with
     | Types.Rmap entries ->
       List.iter
         (fun (lbn, phys) ->
            if lbn >= 0 && lbn < t.media && phys < total then
              logical.(lbn) <- Volume.read t.image phys)
         entries
     | _ -> ());
    let rec find_csum i =
      if i >= total then None
      else
        match Volume.peek t.image i with
        | Types.Csum _ -> Some (Volume.read t.image i)
        | _ -> find_csum (i + 1)
    in
    match find_csum t.media with
    | Some c -> Array.append logical [| c |]
    | None -> logical
  end
