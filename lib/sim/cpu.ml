type job = { duration : float; resume : unit -> unit; owner : Proc.handle option }

type t = {
  engine : Engine.t;
  mutable busy : bool;
  mutable served : float;
  queue : job Queue.t;
  mutable running : job;  (* the job whose completion is scheduled *)
  mutable complete : Engine.handler;
}

let idle = { duration = 0.0; resume = ignore; owner = None }

let account t duration owner =
  t.served <- t.served +. duration;
  match owner with Some h -> Proc.charge_cpu h duration | None -> ()

let start t job =
  t.busy <- true;
  t.running <- job;
  Engine.after_handler t.engine job.duration t.complete 0

let complete t _ =
  let job = t.running in
  t.running <- idle;
  account t job.duration job.owner;
  if Queue.is_empty t.queue then begin
    (* idle before the owner runs on, so that its next back-to-back
       charge can finish in place. One that cannot is scheduled as the
       owner makes it: the same (time, seq) place as queueing it here
       and starting it once [resume] returns, since the owner parks at
       that charge and nothing runs in between *)
    t.busy <- false;
    job.resume ()
  end
  else begin
    job.resume ();
    start t (Queue.pop t.queue)
  end

let create engine =
  let t =
    { engine; busy = false; served = 0.0; queue = Queue.create ();
      running = idle; complete = Engine.null }
  in
  t.complete <- Engine.register engine (complete t);
  t

let consume t seconds =
  if seconds > 0.0 then
    match Proc.self_opt () with
    | Some _ as owner
      when (not t.busy)
           && Engine.advance t.engine (Engine.now t.engine +. seconds) ->
      account t seconds owner
    | owner ->
      (* outside a process this raises [Effect.Unhandled] *)
      Proc.suspend (fun resume ->
          let job = { duration = seconds; resume; owner } in
          if t.busy then Queue.add job t.queue else start t job)

let busy_time t = t.served
