(* Unit and property tests for su_util. *)
open Su_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_rng_range () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.int_range r 5 8 in
    Alcotest.(check bool) "in range" true (x >= 5 && x <= 8)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  Alcotest.(check bool) "streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_substream () =
  (* same family from equal seeds; derivation leaves the parent alone *)
  let a = Rng.create 9 and b = Rng.create 9 in
  let sa = Rng.substream a 3 and sb = Rng.substream b 3 in
  Alcotest.(check int64) "same seed, same substream" (Rng.bits64 sa)
    (Rng.bits64 sb);
  Alcotest.(check int64) "parent not perturbed" (Rng.bits64 a) (Rng.bits64 b);
  (* distinct indices are independent streams *)
  let c = Rng.create 9 in
  let s0 = Rng.substream c 0 and s1 = Rng.substream c 1 in
  Alcotest.(check bool) "indices differ" true (Rng.bits64 s0 <> Rng.bits64 s1);
  (* draws from one substream never move another *)
  let d = Rng.create 9 in
  let before = Rng.bits64 (Rng.substream d 1) in
  ignore (Rng.bits64 (Rng.substream d 0));
  Alcotest.(check int64) "sibling draws don't interfere" before
    (Rng.bits64 (Rng.substream d 1));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.substream: negative index") (fun () ->
      ignore (Rng.substream (Rng.create 1) (-1)))

let test_rng_weighted () =
  let r = Rng.create 3 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 3000 do
    let x = Rng.weighted r [ (1, "a"); (2, "b"); (0, "c") ] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  Alcotest.(check bool) "c never drawn" true (not (Hashtbl.mem counts "c"));
  let a = Hashtbl.find counts "a" and b = Hashtbl.find counts "b" in
  Alcotest.(check bool) "b roughly twice a" true (b > a)

let test_lru_append_order () =
  let l = Lru.create () in
  let mk i = Lru.make ~stamp:i i in
  let nodes = List.map mk [ 1; 2; 3 ] in
  List.iter (Lru.append l) nodes;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Lru.to_list l);
  Alcotest.(check (option int)) "head is oldest" (Some 1) (Lru.head l)

let test_lru_remove_relinks () =
  let l = Lru.create () in
  let mk i = Lru.make ~stamp:i i in
  let n1 = mk 1 and n2 = mk 2 and n3 = mk 3 in
  List.iter (Lru.append l) [ n1; n2; n3 ];
  Lru.remove l n2;
  Alcotest.(check (list int)) "middle gone" [ 1; 3 ] (Lru.to_list l);
  Lru.remove l n2;
  Alcotest.(check int) "double remove is a no-op" 2 (Lru.length l);
  Lru.remove l n1;
  Lru.remove l n3;
  Alcotest.(check bool) "empty" true (Lru.is_empty l);
  (* removed nodes are reusable *)
  Lru.append l n2;
  Alcotest.(check (list int)) "reinserted" [ 2 ] (Lru.to_list l)

let test_lru_touch_moves_to_tail () =
  let l = Lru.create () in
  let mk i = Lru.make ~stamp:i i in
  let n1 = mk 1 and n2 = mk 2 and n3 = mk 3 in
  List.iter (Lru.append l) [ n1; n2; n3 ];
  (* a touch = fresh maximal stamp + remove/append *)
  n1.Lru.stamp <- 4;
  Lru.remove l n1;
  Lru.append l n1;
  Alcotest.(check (list int)) "touched moves last" [ 2; 3; 1 ] (Lru.to_list l);
  Alcotest.(check (list int)) "stamps ascending" [ 2; 3; 4 ] (Lru.stamps l)

let prop_lru_matches_model =
  (* random append/touch/move/remove trace against a sorted-list model *)
  QCheck.Test.make ~name:"lru lists match a stamp-sorted model" ~count:200
    QCheck.(list (pair (int_bound 3) (int_bound 9)))
    (fun ops ->
      let a = Lru.create () and b = Lru.create () in
      let nodes = Array.init 10 (fun i -> Lru.make i) in
      let where = Array.make 10 `Out in
      let counter = ref 0 in
      let model = ref [] in
      (* model: (id, stamp, side) sorted by stamp *)
      List.iter
        (fun (op, i) ->
          let n = nodes.(i) in
          match op, where.(i) with
          | 0, `Out ->
            (* enter side a with a fresh stamp *)
            incr counter;
            n.Lru.stamp <- !counter;
            Lru.append a n;
            where.(i) <- `A;
            model := (i, !counter, `A) :: !model
          | 1, (`A | `B) ->
            (* touch: fresh stamp, move to tail of its list *)
            incr counter;
            n.Lru.stamp <- !counter;
            let l = if where.(i) = `A then a else b in
            Lru.remove l n;
            Lru.append l n;
            model :=
              (i, !counter, where.(i))
              :: List.filter (fun (j, _, _) -> j <> i) !model
          | 2, (`A | `B) ->
            (* move to the tail of the other list with a fresh stamp *)
            let src, dst, side =
              if where.(i) = `A then (a, b, `B) else (b, a, `A)
            in
            incr counter;
            n.Lru.stamp <- !counter;
            Lru.remove src n;
            Lru.append dst n;
            where.(i) <- side;
            model :=
              (i, !counter, side)
              :: List.filter (fun (j, _, _) -> j <> i) !model
          | 3, (`A | `B) ->
            let l = if where.(i) = `A then a else b in
            Lru.remove l n;
            where.(i) <- `Out;
            model := List.filter (fun (j, _, _) -> j <> i) !model
          | _ -> ())
        ops;
      let expect side =
        List.filter (fun (_, _, sd) -> sd = side) !model
        |> List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2)
        |> List.map (fun (j, _, _) -> j)
      in
      let even v = v mod 2 = 0 in
      Lru.to_list a = expect `A
      && Lru.to_list b = expect `B
      && Lru.filter even a = List.filter even (expect `A)
      && Lru.length a + Lru.length b = List.length !model
      && Lru.stamps a = List.sort compare (Lru.stamps a)
      && Lru.stamps b = List.sort compare (Lru.stamps b))

let test_table_render () =
  let t = Text_table.create ~title:"T" ~headers:[ "a"; "bb" ] in
  Text_table.add_row t [ "x"; "1" ];
  Text_table.add_row t [ "longer" ];
  let out = Text_table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  Alcotest.(check bool) "pads short rows" true
    (String.split_on_char '\n' out |> List.length >= 5)

(* --- Pool: the Domain-based work pool ---------------------------------- *)

let test_pool_ordering () =
  (* results land at their job index no matter which worker ran them *)
  let n = 200 in
  let r = Pool.map ~jobs:4 n (fun i -> i * i) in
  Alcotest.(check int) "length" n (Array.length r);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
    r;
  let serial = Pool.map n (fun i -> i * i) in
  Alcotest.(check bool) "serial identical" true (r = serial)

let test_pool_jobs_zero () =
  (* jobs:0 resolves to one worker per core and still merges in order *)
  Alcotest.(check bool) "recommended >= 1" true (Pool.recommended () >= 1);
  Alcotest.(check int) "resolve 0" (Pool.recommended ()) (Pool.resolve_jobs 0);
  Alcotest.(check int) "resolve 3" 3 (Pool.resolve_jobs 3);
  let r = Pool.map ~jobs:0 50 (fun i -> i + 1) in
  Alcotest.(check int) "slot 49" 50 r.(49)

let test_pool_exception () =
  (* the smallest failing index wins, matching what a serial run would
     raise first *)
  match Pool.map ~jobs:4 100 (fun i -> if i >= 40 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "original exn" "boom" m

let test_pool_map_with_init () =
  (* each worker gets private state from init; a worker's jobs see its
     counter advance 1, 2, 3, ... with no interleaving from others *)
  let next_id = Atomic.make 0 in
  let r =
    Pool.map_with ~jobs:3
      ~init:(fun () -> (Atomic.fetch_and_add next_id 1, ref 0))
      60
      (fun (wid, acc) i ->
        incr acc;
        (i, wid, !acc))
  in
  Alcotest.(check int) "every job ran" 60 (Array.length r);
  Array.iteri (fun i (j, _, _) -> Alcotest.(check int) "index" i j) r;
  let per_worker = Hashtbl.create 8 in
  Array.iter
    (fun (_, wid, c) ->
      let expect = (try Hashtbl.find per_worker wid with Not_found -> 0) + 1 in
      Alcotest.(check int)
        (Printf.sprintf "worker %d counter monotone" wid)
        expect c;
      Hashtbl.replace per_worker wid expect)
    r;
  let total = Hashtbl.fold (fun _ c acc -> c + acc) per_worker 0 in
  Alcotest.(check int) "counters partition the jobs" 60 total

let test_pool_nested_serial () =
  (* a map launched from inside a worker degrades to serial instead of
     oversubscribing with nested domains *)
  let r =
    Pool.map ~jobs:2 4 (fun i ->
        let inner = Pool.map ~jobs:4 3 (fun j -> (10 * i) + j) in
        (Pool.in_worker (), Array.to_list inner))
  in
  (* assertions run on the calling domain: Alcotest's state is not
     domain-safe *)
  Array.iter
    (fun (in_worker, _) -> Alcotest.(check bool) "in worker" true in_worker)
    r;
  Alcotest.(check bool) "outside worker again" false (Pool.in_worker ());
  Alcotest.(check (list int)) "nested results" [ 30; 31; 32 ] (snd r.(3))

let test_pool_empty_and_single () =
  Alcotest.(check int) "n=0" 0 (Array.length (Pool.map ~jobs:4 0 (fun i -> i)));
  let one = Pool.map ~jobs:4 1 (fun i -> i + 7) in
  Alcotest.(check int) "n=1" 7 one.(0)

(* --- hierarchical bitset vs. IntSet model ---------------------------- *)

module IntSet = Set.Make (Int)

let prop_bitset_matches_intset =
  let print_ops ops =
    String.concat ";"
      (List.map
         (function
           | `Set i -> Printf.sprintf "+%d" i
           | `Clear i -> Printf.sprintf "-%d" i
           | `Next i -> Printf.sprintf "?%d" i)
         ops)
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun i -> `Set i) (int_bound 2000));
          (2, map (fun i -> `Clear i) (int_bound 2000));
          (2, map (fun i -> `Next i) (int_bound 2100));
        ])
  in
  let arb = QCheck.make ~print:print_ops QCheck.Gen.(list_size (1 -- 200) gen_op) in
  QCheck.Test.make ~name:"bitset matches IntSet model" ~count:300 arb
    (fun ops ->
      let b = Bitset.create () in
      let model = ref IntSet.empty in
      List.for_all
        (function
          | `Set i ->
            Bitset.set b i;
            model := IntSet.add i !model;
            Bitset.mem b i
          | `Clear i ->
            Bitset.clear b i;
            model := IntSet.remove i !model;
            not (Bitset.mem b i)
          | `Next i ->
            let expect =
              match IntSet.find_first_opt (fun x -> x >= i) !model with
              | Some x -> x
              | None -> -1
            in
            Bitset.next_geq b i = expect
            && Bitset.min_elt b
               = (match IntSet.min_elt_opt !model with
                  | Some x -> x
                  | None -> -1)
            && Bitset.is_empty b = IntSet.is_empty !model)
        ops)

(* Itbl backs the driver's dispatch index; check it against the stdlib
   hash table. Keys are drawn from a small range against a tiny
   initial capacity so probe clusters, growth, and backward-shift
   deletion inside clusters are all exercised. *)
let prop_itbl_matches_model =
  let print_ops ops =
    String.concat " "
      (List.map
         (function
           | `Set (k, v) -> Printf.sprintf "%d:=%d" k v
           | `Remove k -> Printf.sprintf "-%d" k
           | `Get k -> Printf.sprintf "?%d" k)
         ops)
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k v -> `Set (k, v)) (int_bound 64) (int_bound 1000));
          (2, map (fun k -> `Remove k) (int_bound 64));
          (2, map (fun k -> `Get k) (int_bound 64));
        ])
  in
  let arb =
    QCheck.make ~print:print_ops QCheck.Gen.(list_size (1 -- 300) gen_op)
  in
  QCheck.Test.make ~name:"itbl matches Hashtbl model" ~count:300 arb
    (fun ops ->
      let t = Itbl.create ~capacity:8 ~absent:(-1) () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (function
          | `Set (k, v) ->
            Itbl.set t k v;
            Hashtbl.replace model k v;
            Itbl.get t k = v
          | `Remove k ->
            Itbl.remove t k;
            Hashtbl.remove model k;
            (not (Itbl.mem t k)) && Itbl.get t k = -1
          | `Get k ->
            Itbl.get t k
            = (match Hashtbl.find_opt model k with Some v -> v | None -> -1)
            && Itbl.mem t k = Hashtbl.mem model k)
        ops
      && Itbl.length t = Hashtbl.length model
      &&
      let pairs = ref [] in
      Itbl.iter (fun k v -> pairs := (k, v) :: !pairs) t;
      List.sort compare !pairs
      = List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

let test_itbl_basics () =
  let t = Itbl.create ~capacity:8 ~absent:0 () in
  Alcotest.(check int) "absent for unbound" 0 (Itbl.get t 42);
  Alcotest.(check bool) "mem unbound" false (Itbl.mem t 42);
  Itbl.set t 42 7;
  Alcotest.(check int) "bound" 7 (Itbl.get t 42);
  Itbl.set t 42 8;
  Alcotest.(check int) "rebound replaces" 8 (Itbl.get t 42);
  Alcotest.(check int) "length counts keys" 1 (Itbl.length t);
  (* force growth past the initial capacity, then delete half: the
     survivors must stay reachable through shifted probe chains *)
  for k = 0 to 15 do
    Itbl.set t k (k * 10)
  done;
  for k = 0 to 15 do
    if k mod 2 = 0 then Itbl.remove t k
  done;
  for k = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "key %d after churn" k)
      (if k mod 2 = 1 then k * 10 else 0)
      (Itbl.get t k)
  done;
  Alcotest.(check int) "length after churn" 9 (Itbl.length t);
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Itbl.set: negative key") (fun () -> Itbl.set t (-1) 1)

let test_bitset_growth_and_bounds () =
  let b = Bitset.create () in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Alcotest.(check int) "next on empty" (-1) (Bitset.next_geq b 0);
  Bitset.set b 0;
  Bitset.set b 100_000;
  Alcotest.(check bool) "low member" true (Bitset.mem b 0);
  Alcotest.(check bool) "high member after growth" true (Bitset.mem b 100_000);
  Alcotest.(check int) "skips the gap" 100_000 (Bitset.next_geq b 1);
  Alcotest.(check int) "negative query clamps" 0 (Bitset.next_geq b (-5));
  Bitset.clear b 0;
  Alcotest.(check int) "min after clear" 100_000 (Bitset.min_elt b);
  Bitset.clear b 100_000;
  Alcotest.(check bool) "empty again" true (Bitset.is_empty b);
  (* members are visited in increasing order *)
  List.iter (Bitset.set b) [ 9; 3; 500; 77 ];
  let seen = ref [] in
  Bitset.iter b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter ascending" [ 3; 9; 77; 500 ]
    (List.rev !seen);
  (* set, clear and next_geq within the capacity allocate nothing (a
     closure per call would be ~10 words each) *)
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for i = 0 to 999 do
    Bitset.set b (i * 7);
    acc := !acc + Bitset.next_geq b (i * 3);
    Bitset.clear b (i * 7)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Printf.sprintf "3000 calls cost %.0f words" words)
    true (words < 100.0);
  (* growth that adds a summary level must summarize the members
     already there, or clearing the new member empties the top *)
  let g = Bitset.create () in
  Bitset.set g 5;
  Bitset.set g 2000;
  Bitset.clear g 2000;
  Alcotest.(check bool) "old member survives a new level" false
    (Bitset.is_empty g);
  Alcotest.(check int) "and is still the minimum" 5 (Bitset.min_elt g)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng range" `Quick test_rng_range;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng substream" `Quick test_rng_substream;
    Alcotest.test_case "rng weighted" `Quick test_rng_weighted;
    Alcotest.test_case "lru append order" `Quick test_lru_append_order;
    Alcotest.test_case "lru remove relinks" `Quick test_lru_remove_relinks;
    Alcotest.test_case "lru touch moves to tail" `Quick test_lru_touch_moves_to_tail;
    QCheck_alcotest.to_alcotest prop_lru_matches_model;
    QCheck_alcotest.to_alcotest prop_bitset_matches_intset;
    Alcotest.test_case "bitset growth and bounds" `Quick
      test_bitset_growth_and_bounds;
    QCheck_alcotest.to_alcotest prop_itbl_matches_model;
    Alcotest.test_case "itbl basics" `Quick test_itbl_basics;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
    Alcotest.test_case "pool jobs=0 resolves" `Quick test_pool_jobs_zero;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool per-worker init" `Quick test_pool_map_with_init;
    Alcotest.test_case "pool nested maps run serial" `Quick
      test_pool_nested_serial;
    Alcotest.test_case "pool empty and single" `Quick
      test_pool_empty_and_single;
  ]
