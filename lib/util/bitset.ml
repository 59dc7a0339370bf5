(* Hierarchical bitset over a dense non-negative integer universe.

   The driver's dispatch index needs three operations at event rates:
   membership, set/clear, and "smallest member >= i" (C-LOOK head
   selection, FCFS minimum, WAW interval scans). Functional Int sets
   give O(log n) with an allocation per operation; this structure
   gives O(1) set/clear/mem and O(levels) next_geq with zero
   allocation.

   Layout: [levels.(0)] holds the membership bits, 32 per word (32
   rather than 63 so word/bit splits are single shifts/masks on any
   OCaml int width). Each word of [levels.(k+1)] summarizes 32 words
   of [levels.(k)] — bit [j] of [levels.(k+1).(w)] is set iff
   [levels.(k).(w*32+j)] is nonzero — and the top level is a single
   word, so an empty region is skipped 32x faster per level up.
   Capacity doubles on demand; summaries for the existing prefix stay
   valid across growth because new words are zero. *)

type t = { mutable levels : int array array }

let create ?(capacity = 0) () =
  let t = { levels = [||] } in
  if capacity > 0 then begin
    (* build via the growth path below *)
    let rec sizes acc n = if n <= 1 then 1 :: acc else sizes (n :: acc) ((n + 31) / 32) in
    let words = (capacity + 31) / 32 in
    let lvls = sizes [] words |> List.rev in
    t.levels <- Array.of_list (List.map (fun n -> Array.make n 0) lvls)
  end;
  t

let capacity t =
  if Array.length t.levels = 0 then 0 else 32 * Array.length t.levels.(0)

let is_empty t =
  let nl = Array.length t.levels in
  nl = 0 || t.levels.(nl - 1).(0) = 0

(* Grow so that bit [i] is addressable: double the word count until it
   covers [i], rebuild the level arrays and copy the old prefixes. *)
let grow t i =
  let old_words = if Array.length t.levels = 0 then 0 else Array.length t.levels.(0) in
  let words = ref (max 1 old_words) in
  while !words * 32 <= i do
    words := !words * 2
  done;
  let rec sizes acc n = if n <= 1 then 1 :: acc else sizes (n :: acc) ((n + 31) / 32) in
  let lvls = sizes [] !words |> List.rev in
  let nlevels = Array.of_list (List.map (fun n -> Array.make n 0) lvls) in
  Array.iteri
    (fun k old ->
      Array.blit old 0 nlevels.(k) 0 (Array.length old))
    t.levels;
  (* a level that did not exist before starts empty: summarize the
     nonzero words of the level below it *)
  for k = max 1 (Array.length t.levels) to Array.length nlevels - 1 do
    let above = nlevels.(k) in
    Array.iteri
      (fun w word ->
        if word <> 0 then
          above.(w lsr 5) <- above.(w lsr 5) lor (1 lsl (w land 31)))
      nlevels.(k - 1)
  done;
  t.levels <- nlevels

let mem t i =
  i >= 0
  && Array.length t.levels > 0
  && i lsr 5 < Array.length t.levels.(0)
  && t.levels.(0).(i lsr 5) land (1 lsl (i land 31)) <> 0

(* The per-level walks are top-level functions over [levels], not
   closures local to [set]/[clear]/[next_geq]: without flambda a local
   recursive function capturing [t] is allocated on every call. *)
let rec set_up levels lvl i =
  let w = i lsr 5 and b = i land 31 in
  let a = levels.(lvl) in
  let old = a.(w) in
  a.(w) <- old lor (1 lsl b);
  (* a word that was already nonzero is already summarized above *)
  if old = 0 && lvl + 1 < Array.length levels then set_up levels (lvl + 1) w

let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  if i >= capacity t then grow t i;
  set_up t.levels 0 i

let rec clear_up levels lvl i =
  let w = i lsr 5 and b = i land 31 in
  let a = levels.(lvl) in
  let nw = a.(w) land lnot (1 lsl b) in
  a.(w) <- nw;
  if nw = 0 && lvl + 1 < Array.length levels then clear_up levels (lvl + 1) w

let clear t i = if i >= 0 && i < capacity t then clear_up t.levels 0 i

(* Number of trailing zeros of a nonzero 32-bit value, branch-chain
   binary search — no table, no allocation. *)
let ntz m =
  let x = m land (-m) in
  let n = ref 31 in
  if x land 0x0000FFFF <> 0 then n := !n - 16;
  if x land 0x00FF00FF <> 0 then n := !n - 8;
  if x land 0x0F0F0F0F <> 0 then n := !n - 4;
  if x land 0x33333333 <> 0 then n := !n - 2;
  if x land 0x55555555 <> 0 then n := !n - 1;
  !n

(* Climb: at [lvl], look for a set bit at position >= idx; within the
   current word it is a mask test, otherwise the next word up a level
   summarizes everything to the right. Descend: a set summary bit names
   a nonzero word below; follow lowest bits back to level 0. *)
let rec next_up levels lvl idx =
  if lvl >= Array.length levels then -1
  else
    let w = idx lsr 5 in
    let a = levels.(lvl) in
    if w >= Array.length a then -1
    else
      let m = a.(w) land ((-1) lsl (idx land 31)) in
      if m <> 0 then next_down levels lvl ((w lsl 5) lor ntz m)
      else next_up levels (lvl + 1) (w + 1)

and next_down levels lvl pos =
  if lvl = 0 then pos
  else
    let m = levels.(lvl - 1).(pos) in
    next_down levels (lvl - 1) ((pos lsl 5) lor ntz m)

let next_geq t i = next_up t.levels 0 (if i < 0 then 0 else i)

let min_elt t = next_geq t 0

let iter t f =
  let rec go i = match next_geq t i with -1 -> () | j -> f j; go (j + 1) in
  go 0
