open Su_fstypes

type t = {
  d_lbn : int;
  d_pre : Types.cell array;
  d_post : Types.cell array;
}

let v ~lbn ~pre ~post =
  if Array.length pre <> Array.length post then
    invalid_arg "Delta.v: pre/post length mismatch";
  { d_lbn = lbn; d_pre = pre; d_post = post }

let apply img d =
  Array.blit d.d_post 0 img d.d_lbn (Array.length d.d_post)

let undo img d = Array.blit d.d_pre 0 img d.d_lbn (Array.length d.d_pre)

type cursor = {
  c_log : t array;
  c_base : Types.cell array;
  mutable c_pos : int;
  mutable c_csum : int list;  (* ascending: the slots of [c_base] holding a [Csum] cell *)
}

let is_csum = function Types.Csum _ -> true | _ -> false

(* Bring [c_csum] up to date over [c_base.(lbn .. lbn + len - 1)]. *)
let track c lbn len =
  for i = lbn to lbn + len - 1 do
    let listed = c.c_csum <> [] && List.mem i c.c_csum in
    if is_csum c.c_base.(i) then begin
      if not listed then c.c_csum <- List.merge Int.compare [ i ] c.c_csum
    end
    else if listed then c.c_csum <- List.filter (( <> ) i) c.c_csum
  done

let cursor ~initial ~log =
  let c = { c_log = log; c_base = Array.copy initial; c_pos = 0; c_csum = [] } in
  track c 0 (Array.length initial);
  c

let seek c k =
  if k < 0 || k > Array.length c.c_log then
    invalid_arg "Delta.seek: boundary out of range";
  while c.c_pos < k do
    let d = c.c_log.(c.c_pos) in
    apply c.c_base d;
    track c d.d_lbn (Array.length d.d_post);
    c.c_pos <- c.c_pos + 1
  done;
  while c.c_pos > k do
    c.c_pos <- c.c_pos - 1;
    let d = c.c_log.(c.c_pos) in
    undo c.c_base d;
    track c d.d_lbn (Array.length d.d_pre)
  done

let position c = c.c_pos
let image c = c.c_base
let log c = c.c_log
let csum_slots c = c.c_csum
