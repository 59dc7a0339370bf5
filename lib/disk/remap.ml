open Su_fstypes

type t = {
  media : int;  (* addressable fragments; table cell lives at [media] *)
  nspares : int;
  tbl : (int, int) Hashtbl.t;  (* logical -> physical spare *)
  mutable order : (int * int) list;  (* reverse allocation order *)
  mutable next : int;  (* next unallocated spare index, 0-based *)
}

let create ~media ~nspares =
  { media; nspares; tbl = Hashtbl.create 16; order = []; next = 0 }

let table_slot t = t.media
let spare_base t = t.media + 1
let size t = Hashtbl.length t.tbl
let nspares t = t.nspares
let spares_left t = t.nspares - t.next

let lookup t lbn =
  match Hashtbl.find_opt t.tbl lbn with Some phys -> phys | None -> lbn

let entries t = List.rev t.order

let remap t lbn =
  if t.next >= t.nspares then None
  else begin
    let phys = spare_base t + t.next in
    t.next <- t.next + 1;
    (* a re-remap (the spare itself went bad is not modelled; this
       covers remapping the same logical sector twice) replaces the
       entry but still consumes a fresh spare *)
    if Hashtbl.mem t.tbl lbn then
      t.order <- List.filter (fun (l, _) -> l <> lbn) t.order;
    Hashtbl.replace t.tbl lbn phys;
    t.order <- (lbn, phys) :: t.order;
    Some phys
  end

let cell t = Types.Rmap (entries t)

let load t cells =
  match cells with
  | Types.Rmap es ->
    Hashtbl.reset t.tbl;
    t.order <- [];
    t.next <- 0;
    List.iter
      (fun (lbn, phys) ->
         Hashtbl.replace t.tbl lbn phys;
         t.order <- (lbn, phys) :: t.order;
         let idx = phys - spare_base t + 1 in
         if idx > t.next then t.next <- idx)
      es
  | Types.Empty -> ()
  | _ -> invalid_arg "Remap.load: not a remap-table cell"
