type 'a node = {
  value : 'a;
  mutable stamp : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable in_list : bool;
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable length : int;
}

let make ?(stamp = 0) value =
  { value; stamp; prev = None; next = None; in_list = false }

let create () = { head = None; tail = None; length = 0 }
let length t = t.length
let is_empty t = t.length = 0

let append t n =
  if n.in_list then invalid_arg "Lru.append: node already in a list";
  n.prev <- t.tail;
  n.next <- None;
  (match t.tail with
   | None -> t.head <- Some n
   | Some tl -> tl.next <- Some n);
  t.tail <- Some n;
  n.in_list <- true;
  t.length <- t.length + 1

let remove t n =
  if n.in_list then begin
    (match n.prev with
     | None -> t.head <- n.next
     | Some p -> p.next <- n.next);
    (match n.next with
     | None -> t.tail <- n.prev
     | Some nx -> nx.prev <- n.prev);
    n.prev <- None;
    n.next <- None;
    n.in_list <- false;
    t.length <- t.length - 1
  end

let first t = t.head
let head t = Option.map (fun n -> n.value) t.head

(* walk from the tail so the result comes out head first without a
   reversal: the returned list is the only allocation *)
let filter f t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (if f n.value then n.value :: acc else acc) n.prev
  in
  go [] t.tail

let to_list t = filter (fun _ -> true) t

let stamps t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (n.stamp :: acc) n.prev
  in
  go [] t.tail
