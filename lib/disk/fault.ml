open Su_fstypes

type error =
  | Transient of { op : [ `Read | `Write ]; lbn : int }
  | Bad_sector of { lbn : int }
  | Timeout of { elapsed : float; limit : float }
  | Checksum of { lbn : int }

let error_to_string = function
  | Transient { op; lbn } ->
    Printf.sprintf "transient %s error at lbn %d"
      (match op with `Read -> "read" | `Write -> "write")
      lbn
  | Bad_sector { lbn } -> Printf.sprintf "bad sector at lbn %d" lbn
  | Timeout { elapsed; limit } ->
    Printf.sprintf "request timeout (%.1f ms > %.1f ms)" (1000.0 *. elapsed)
      (1000.0 *. limit)
  | Checksum { lbn } ->
    Printf.sprintf "unrepairable checksum mismatch at lbn %d" lbn

type silent =
  | Flip_read of { frag : int }
  | Lost_write
  | Misdirect_write of { target : int }

type config = {
  seed : int;
  read_fail : float;
  write_fail : float;
  stall : float;
  stall_factor : float;
  bad_sectors : int list;
  torn_writes : bool;
  flip_read : float;
  lost_write : float;
  misdirect_write : float;
  flip_at : int list;
  lose_at : int list;
  misdirect_at : (int * int) list;
}

let none =
  {
    seed = 0;
    read_fail = 0.0;
    write_fail = 0.0;
    stall = 0.0;
    stall_factor = 1.0;
    bad_sectors = [];
    torn_writes = false;
    flip_read = 0.0;
    lost_write = 0.0;
    misdirect_write = 0.0;
    flip_at = [];
    lose_at = [];
    misdirect_at = [];
  }

let transient ?(seed = 42) ?(rate = 0.02) () =
  {
    none with
    seed;
    read_fail = rate;
    write_fail = rate;
    stall = rate /. 4.0;
    stall_factor = 50.0;
    torn_writes = true;
  }

type t = {
  cfg : config;
  rng : Su_util.Rng.t;
  bad : (int, unit) Hashtbl.t;
  flip_at : (int, unit) Hashtbl.t;  (* one-shot: consumed on injection *)
  lose_at : (int, unit) Hashtbl.t;
  misdirect_at : (int, int) Hashtbl.t;
  mutable injected : int;
  mutable silent_injected : int;
}

let create cfg =
  let bad = Hashtbl.create 8 in
  List.iter (fun lbn -> Hashtbl.replace bad lbn ()) cfg.bad_sectors;
  let flip_at = Hashtbl.create 4 and lose_at = Hashtbl.create 4 in
  let misdirect_at = Hashtbl.create 4 in
  List.iter (fun lbn -> Hashtbl.replace flip_at lbn ()) cfg.flip_at;
  List.iter (fun lbn -> Hashtbl.replace lose_at lbn ()) cfg.lose_at;
  List.iter
    (fun (lbn, target) -> Hashtbl.replace misdirect_at lbn target)
    cfg.misdirect_at;
  {
    cfg;
    rng = Su_util.Rng.create cfg.seed;
    bad;
    flip_at;
    lose_at;
    misdirect_at;
    injected = 0;
    silent_injected = 0;
  }

let config t = t.cfg

let enabled t =
  t.cfg.read_fail > 0.0 || t.cfg.write_fail > 0.0 || t.cfg.stall > 0.0
  || Hashtbl.length t.bad > 0
  || t.cfg.flip_read > 0.0 || t.cfg.lost_write > 0.0
  || t.cfg.misdirect_write > 0.0
  || Hashtbl.length t.flip_at > 0
  || Hashtbl.length t.lose_at > 0
  || Hashtbl.length t.misdirect_at > 0

type verdict =
  | Ok_attempt
  | Stalled
  | Failed of { err : error; applied : int }
  | Silent of silent

let ident_phys lbn = lbn

let first_bad t ~phys ~lbn ~nfrags =
  (* scan physical addresses (so a remapped fragment escapes its old
     bad sector) but report the logical one *)
  let rec go i = if i >= nfrags then None
    else if Hashtbl.mem t.bad (phys (lbn + i)) then Some (lbn + i)
    else go (i + 1)
  in
  go 0

(* One-shot targeted silent faults: the first attempt of the right
   kind that touches the listed sector gets the fault, then the entry
   is consumed. Scanned before the probabilistic model so a campaign
   injection never depends on the RNG stream. *)
let targeted t ~op ~lbn ~nfrags =
  let rec scan i =
    if i >= nfrags then None
    else
      let f = lbn + i in
      match op with
      | `Read when Hashtbl.mem t.flip_at f ->
        Hashtbl.remove t.flip_at f;
        Some (Flip_read { frag = f })
      | `Write when Hashtbl.mem t.lose_at f ->
        Hashtbl.remove t.lose_at f;
        Some Lost_write
      | `Write when Hashtbl.mem t.misdirect_at f ->
        let target = Hashtbl.find t.misdirect_at f in
        Hashtbl.remove t.misdirect_at f;
        Some (Misdirect_write { target })
      | `Read | `Write -> scan (i + 1)
  in
  scan 0

let judge t ?(phys = ident_phys) ?(media = 0) ~op ~lbn ~nfrags () =
  if not (enabled t) then Ok_attempt
  else
    match targeted t ~op ~lbn ~nfrags with
    | Some s ->
      t.injected <- t.injected + 1;
      t.silent_injected <- t.silent_injected + 1;
      Silent s
    | None ->
      match first_bad t ~phys ~lbn ~nfrags with
      | Some bad_lbn ->
        t.injected <- t.injected + 1;
        (* a write reaches the media up to (not including) the bad
           fragment; a read returns nothing *)
        let applied =
          if op = `Write && t.cfg.torn_writes then bad_lbn - lbn else 0
        in
        Failed { err = Bad_sector { lbn = bad_lbn }; applied }
      | None ->
        let fail_p =
          match op with `Read -> t.cfg.read_fail | `Write -> t.cfg.write_fail
        in
        let draw = Su_util.Rng.float t.rng 1.0 in
        if draw < fail_p then begin
          t.injected <- t.injected + 1;
          let applied =
            if op = `Write && t.cfg.torn_writes && nfrags > 1 then
              Su_util.Rng.int t.rng nfrags (* 0 .. nfrags-1: a strict prefix *)
            else 0
          in
          Failed { err = Transient { op; lbn }; applied }
        end
        else if draw < fail_p +. t.cfg.stall then begin
          t.injected <- t.injected + 1;
          Stalled
        end
        else begin
          (* the silent classes report success, so they are judged
             last; extra random numbers are drawn only when a silent
             rate is nonzero, keeping seeded replays of the historical
             fail-stop configurations bit-identical *)
          let silent_p =
            match op with
            | `Read -> t.cfg.flip_read
            | `Write -> t.cfg.lost_write +. t.cfg.misdirect_write
          in
          if silent_p <= 0.0 then Ok_attempt
          else
            let d2 = Su_util.Rng.float t.rng 1.0 in
            match op with
            | `Read ->
              if d2 < t.cfg.flip_read then begin
                t.injected <- t.injected + 1;
                t.silent_injected <- t.silent_injected + 1;
                let off =
                  if nfrags > 1 then Su_util.Rng.int t.rng nfrags else 0
                in
                Silent (Flip_read { frag = lbn + off })
              end
              else Ok_attempt
            | `Write ->
              if d2 < t.cfg.lost_write then begin
                t.injected <- t.injected + 1;
                t.silent_injected <- t.silent_injected + 1;
                Silent Lost_write
              end
              else if d2 < t.cfg.lost_write +. t.cfg.misdirect_write then begin
                t.injected <- t.injected + 1;
                t.silent_injected <- t.silent_injected + 1;
                if media <= 0 then Silent Lost_write
                else begin
                  (* a misdirected write needs a victim; one draw, then
                     shift past the request's own extent if it landed
                     inside it *)
                  let target = Su_util.Rng.int t.rng media in
                  let target =
                    if target >= lbn && target < lbn + nfrags then
                      (target + nfrags) mod media
                    else target
                  in
                  if target >= lbn && target < lbn + nfrags then
                    Silent Lost_write (* tiny media: no victim exists *)
                  else Silent (Misdirect_write { target })
                end
              end
              else Ok_attempt
        end

let injected t = t.injected
let silent_injected t = t.silent_injected

(* --- payload corruption ---------------------------------------------- *)

(* Flip "one bit" at the typed-cell level: return a cell that is
   structurally valid, plausible, and guaranteed to digest differently
   (every branch XORs a nonzero bit into an integer field or toggles a
   constructor). Mutable structure is deep-copied first — the caller
   hands us a private copy anyway, but corruption must never alias the
   media. *)
let corrupt_cell rng cell =
  let flip_bit v = v lxor (1 lsl Su_util.Rng.int rng 6) in
  match Types.copy_cell cell with
  | Types.Empty -> Types.Pad
  | Types.Pad -> Types.Empty
  | Types.Frag Types.Zeroed ->
    Types.Frag
      (Types.Written
         { inum = 1 + Su_util.Rng.int rng 64; gen = 1; flbn = 0 })
  | Types.Frag (Types.Written { inum; gen; flbn }) ->
    Types.Frag (Types.Written { inum = flip_bit inum; gen; flbn })
  | Types.Meta (Types.Superblock sb) ->
    Types.Meta
      (Types.Superblock { sb with Types.sb_nfrags = flip_bit sb.Types.sb_nfrags })
  | Types.Meta (Types.Cgroup cg) as cell' ->
    let i = Su_util.Rng.int rng (Bytes.length cg.Types.frag_map) in
    Bytes.set cg.Types.frag_map i
      (Char.chr (Char.code (Bytes.get cg.Types.frag_map i) lxor 1));
    cell'
  | Types.Meta (Types.Inodes ds) as cell' ->
    let d = ds.(Su_util.Rng.int rng (Array.length ds)) in
    d.Types.size <- flip_bit d.Types.size;
    d.Types.ftype <-
      (match d.Types.ftype with
       | Types.F_free -> Types.F_reg
       | Types.F_reg | Types.F_dir -> d.Types.ftype);
    cell'
  | Types.Meta (Types.Dir entries) as cell' ->
    let i = Su_util.Rng.int rng (Array.length entries) in
    (match entries.(i) with
     | Some e ->
       entries.(i) <-
         Some { e with Types.inum = flip_bit e.Types.inum }
     | None ->
       entries.(i) <-
         Some { Types.name = "\001rot"; inum = 1 + Su_util.Rng.int rng 64 });
    cell'
  | Types.Meta (Types.Indirect ptrs) as cell' ->
    let i = Su_util.Rng.int rng (Array.length ptrs) in
    ptrs.(i) <- flip_bit ptrs.(i);
    cell'
  | Types.Jlog { seq; recs } -> Types.Jlog { seq = flip_bit seq; recs }
  | Types.Rmap entries ->
    Types.Rmap
      (match entries with
       | (l, s) :: rest -> (flip_bit l, s) :: rest
       | [] -> [ (1, 1) ])
  | Types.Csum a as cell' ->
    if Array.length a > 0 then begin
      let i = Su_util.Rng.int rng (Array.length a) in
      a.(i) <- flip_bit a.(i)
    end;
    cell'

let corrupt t cell = corrupt_cell t.rng cell
