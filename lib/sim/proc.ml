type handle = {
  pname : string;
  mutable cpu : float;
  mutable dead : bool;
  mutable waiters : (unit -> unit) list;
}

exception Process_failure of string * exn

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Engines run one at a time *per domain*, so the "current process"
   register is domain-local: each worker domain of a {!Su_util.Pool}
   fan-out gets its own, and concurrently running simulated worlds
   cannot clobber each other's. It is saved and restored around every
   resumption so nested wake-ups cannot clobber it either. *)
let current_key : handle option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let name h = h.pname
let finished h = h.dead
let cpu_time h = h.cpu
let charge_cpu h dt = h.cpu <- h.cpu +. dt

let self_opt () = !(current ())

let self () =
  match !(current ()) with
  | Some h -> h
  | None -> invalid_arg "Proc.self: not in process context"

(* [f x] with [self] as the current process, restoring the previous
   one however [f] ends. [f] is a closed function on the resume path,
   so a resumption allocates nothing here. *)
let as_current self f x =
  let cur = current () in
  let saved = !cur in
  cur := self;
  match f x with
  | () -> cur := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    cur := saved;
    Printexc.raise_with_backtrace e bt

(* Only feeds default process names; atomic so concurrent domains can
   spawn without a race (names stay unique, not globally dense). *)
let counter = Atomic.make 0

let spawn engine ?name f =
  let pname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "proc-%d" (Atomic.fetch_and_add counter 1 + 1)
  in
  let h = { pname; cpu = 0.0; dead = false; waiters = [] } in
  let self = Some h in
  let finish () =
    h.dead <- true;
    let ws = h.waiters in
    h.waiters <- [];
    List.iter (fun w -> Engine.soon engine w) ws
  in
  let body () =
    let open Effect.Deep in
    match_with f ()
      {
        retc = (fun () -> finish ());
        exnc = (fun e -> finish (); raise (Process_failure (pname, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let resumed = ref false in
                  let resume () =
                    if !resumed then
                      invalid_arg "Proc: continuation resumed twice";
                    resumed := true;
                    as_current self (fun k -> continue k ()) k
                  in
                  register resume)
            | _ -> None);
      }
  in
  Engine.soon engine (fun () -> as_current self body ());
  h

let suspend register = Effect.perform (Suspend register)

let sleep engine dt =
  suspend (fun resume -> Engine.after engine dt resume)

let join engine h =
  if not h.dead then
    suspend (fun resume -> h.waiters <- resume :: h.waiters)
  else ignore engine

let join_all engine hs = List.iter (join engine) hs

module Ivar = struct
  type 'a state = Empty of (unit -> unit) list | Full of 'a
  type 'a t = { engine : Engine.t; mutable state : 'a state }

  let create engine = { engine; state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      t.state <- Full v;
      List.iter (fun w -> Engine.soon t.engine w) waiters

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false

  let peek t = match t.state with Full v -> Some v | Empty _ -> None

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match t.state with
          | Full _ -> Engine.soon t.engine resume
          | Empty waiters -> t.state <- Empty (resume :: waiters));
      (match t.state with
       | Full v -> v
       | Empty _ -> invalid_arg "Ivar.read: woken while empty")
end
