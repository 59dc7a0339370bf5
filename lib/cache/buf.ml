open Su_fstypes

type content = Cmeta of Types.meta | Cdata of Types.stamp option array

type aux = ..

type t = {
  key : int;
  mutable nfrags : int;
  mutable content : content;
  mutable dirty : bool;
  mutable io_count : int;
  mutable io_locked : bool;
  mutable valid : bool;
  mutable refcount : int;
  lru : t Su_util.Lru.node;
  mutable wflag : bool;
  mutable wdeps : int list;
  mutable aux : aux option;
  mutable sticky : bool;
  mutable syncer_marked : bool;
  lock_waiters : Su_sim.Sync.Waitq.t;
  mutable write_waiters : (unit -> unit) list;
}

let meta t =
  match t.content with
  | Cmeta m -> m
  | Cdata _ -> invalid_arg "Buf.meta: data buffer"

let data t =
  match t.content with
  | Cdata d -> d
  | Cmeta _ -> invalid_arg "Buf.data: metadata buffer"

let meta_cells m ~nfrags =
  Array.init nfrags (fun i -> if i = 0 then Types.Meta m else Types.Pad)

let payload content ~nfrags =
  match content with
  | Cmeta m -> meta_cells (Types.snapshot_meta m) ~nfrags
  | Cdata d ->
    if Array.length d <> nfrags then
      invalid_arg "Buf.payload: data length mismatch";
    Array.map
      (function Some s -> Types.Frag s | None -> Types.Empty)
      d

let of_cells cells =
  if Array.length cells = 0 then invalid_arg "Buf.of_cells: empty extent";
  match cells.(0) with
  | Types.Meta m -> Cmeta m
  | Types.Frag _ | Types.Empty | Types.Pad | Types.Jlog _ | Types.Rmap _
  | Types.Csum _ ->
    Cdata
      (Array.map
         (function
           | Types.Frag s -> Some s
           | Types.Empty | Types.Pad | Types.Meta _ | Types.Jlog _
           | Types.Rmap _ | Types.Csum _ -> None)
         cells)
