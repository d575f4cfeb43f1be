(* Aggregated broadcast channels (Section 2.7): a virtual channel that runs
   n broadcast instances in parallel — one per sender — and allocates a new
   instance for a sender whenever its current one delivers.  The channel
   guarantees agreement (reliable) or only consistency (consistent) but no
   ordering; it exchanges no messages of its own.

   Termination: to close, a party sends a termination request as its last
   message; on delivering t+1 such requests the channel aborts the live
   instances and terminates. *)

module type BROADCAST = sig
  type t

  val create :
    Runtime.t -> pid:string -> sender:int -> on_deliver:(string -> unit) -> t

  val send : t -> string -> unit
  val abort : t -> unit
end

module Make (B : BROADCAST) = struct
  type t = {
    rt : Runtime.t;
    pid : string;
    on_deliver : sender:int -> string -> unit;
    on_close : unit -> unit;
    mutable instances : B.t array;        (* current instance per sender *)
    seqs : int array;                     (* current instance number *)
    pending : string Queue.t;             (* our queued sends *)
    mutable sending : bool;               (* our current instance is in use *)
    term_requests : (int, unit) Hashtbl.t;
    mutable closing : bool;
    mutable closed : bool;
  }

  let frame_payload (s : string) : string = "\x01" ^ s
  let frame_term : string = "\x00"

  let instance_pid (pid : string) (sender : int) (seq : int) : string =
    Printf.sprintf "%s/%d.%d" pid sender seq

  (* Start this party's next broadcast if one is queued and the current
     instance is free. *)
  let rec pump (t : t) : unit =
    if not t.closed && not t.sending then begin
      match Queue.take_opt t.pending with
      | None -> ()
      | Some framed ->
        t.sending <- true;
        B.send t.instances.(t.rt.Runtime.me) framed
    end

  and deliver (t : t) (sender : int) (framed : string) : unit =
    if not t.closed then begin
      (* Roll the sender's instance forward. *)
      t.seqs.(sender) <- t.seqs.(sender) + 1;
      t.instances.(sender) <-
        make_instance t sender t.seqs.(sender);
      if sender = t.rt.Runtime.me then begin
        t.sending <- false;
        pump t
      end;
      if framed = frame_term then begin
        Hashtbl.replace t.term_requests sender ();
        if Hashtbl.length t.term_requests >= Config.one_honest t.rt.Runtime.cfg
        then begin
          t.closed <- true;
          Array.iter B.abort t.instances;
          t.on_close ()
        end
      end
      else if String.length framed >= 1 && framed.[0] = '\x01' then begin
        Trace.Ctx.incr t.rt.Runtime.trace "bcast.deliveries";
        let tr = t.rt.Runtime.trace in
        if Trace.Ctx.enabled tr then
          Trace.Ctx.instant tr ~pid:t.pid ~cat:"bcast"
            ~args:[ ("sender", Trace.Event.Int sender) ]
            "channel_deliver";
        t.on_deliver ~sender (String.sub framed 1 (String.length framed - 1))
      end
    end

  and make_instance (t : t) (sender : int) (seq : int) : B.t =
    B.create t.rt ~pid:(instance_pid t.pid sender seq) ~sender
      ~on_deliver:(fun framed -> deliver t sender framed)

  let create (rt : Runtime.t) ~(pid : string)
      ~(on_deliver : sender:int -> string -> unit)
      ?(on_close = fun () -> ()) () : t =
    let n = rt.Runtime.cfg.Config.n in
    let t = {
      rt; pid; on_deliver; on_close;
      instances = [||];
      seqs = Array.make n 0;
      pending = Queue.create ();
      sending = false;
      term_requests = Hashtbl.create 4;
      closing = false;
      closed = false;
    }
    in
    t.instances <- Array.init n (fun i -> make_instance t i 0);
    t

  let send (t : t) (payload : string) : unit =
    if t.closed then invalid_arg "Broadcast_channel.send: channel closed";
    if t.closing then invalid_arg "Broadcast_channel.send: channel closing";
    Queue.push (frame_payload payload) t.pending;
    pump t

  let close (t : t) : unit =
    if not t.closing && not t.closed then begin
      t.closing <- true;
      Queue.push frame_term t.pending;
      pump t
    end
end
