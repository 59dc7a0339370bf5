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
}

let cursor ~initial ~log = { c_log = log; c_base = Array.copy initial; c_pos = 0 }

let seek c k =
  if k < 0 || k > Array.length c.c_log then
    invalid_arg "Delta.seek: boundary out of range";
  while c.c_pos < k do
    apply c.c_base c.c_log.(c.c_pos);
    c.c_pos <- c.c_pos + 1
  done;
  while c.c_pos > k do
    c.c_pos <- c.c_pos - 1;
    undo c.c_base c.c_log.(c.c_pos)
  done

let position c = c.c_pos
let image c = c.c_base
let log c = c.c_log
