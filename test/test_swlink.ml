(* Tests for the sliding-window authenticated link (the paper's planned TCP
   replacement). *)

(* A lossy, reordering datagram channel between two endpoints, driven by
   the event engine. *)
let make_pair ~(seed : string) ~(loss : float) ~(reorder : float) =
  let engine = Sim.Engine.create ~seed () in
  let chaos = Hashes.Drbg.create ~seed:("chaos" ^ seed) in
  let a_delivered = ref [] and b_delivered = ref [] in
  let a = ref None and b = ref None in
  let transmit (dst : Sim.Swlink.endpoint option ref) frame =
    if Hashes.Drbg.float chaos 1.0 >= loss then begin
      let delay = 0.01 +. Hashes.Drbg.float chaos reorder in
      Sim.Engine.schedule engine ~delay (fun () ->
        match !dst with
        | Some ep -> Sim.Swlink.on_datagram ep frame
        | None -> ())
    end
  in
  a := Some (Sim.Swlink.create ~engine ~mac_key:"pair-key" ~rto:0.3
               ~out:(fun f -> transmit b f)
               ~deliver:(fun p -> a_delivered := p :: !a_delivered) ());
  b := Some (Sim.Swlink.create ~engine ~mac_key:"pair-key" ~rto:0.3
               ~out:(fun f -> transmit a f)
               ~deliver:(fun p -> b_delivered := p :: !b_delivered) ());
  (engine, Option.get !a, Option.get !b, a_delivered, b_delivered)

let workload n = List.init n (fun i -> Printf.sprintf "payload-%04d" i)

let suite = [
  Alcotest.test_case "lossless: exactly-once in-order" `Quick (fun () ->
    let engine, a, _b, _ad, bd = make_pair ~seed:"sw1" ~loss:0.0 ~reorder:0.0 in
    List.iter (Sim.Swlink.send a) (workload 100);
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list string)) "in order" (workload 100) (List.rev !bd);
    Alcotest.(check int) "no retransmissions" 0 (Sim.Swlink.retransmissions a));

  Alcotest.test_case "20% loss: still exactly-once in-order" `Quick (fun () ->
    let engine, a, _b, _ad, bd = make_pair ~seed:"sw2" ~loss:0.2 ~reorder:0.0 in
    List.iter (Sim.Swlink.send a) (workload 200);
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list string)) "in order" (workload 200) (List.rev !bd);
    Alcotest.(check bool) "loss forced retransmissions" true
      (Sim.Swlink.retransmissions a > 0));

  Alcotest.test_case "loss + heavy reordering: still exactly-once in-order" `Quick
    (fun () ->
      let engine, a, _b, _ad, bd = make_pair ~seed:"sw3" ~loss:0.15 ~reorder:0.4 in
      List.iter (Sim.Swlink.send a) (workload 150);
      ignore (Sim.Engine.run engine);
      Alcotest.(check (list string)) "in order" (workload 150) (List.rev !bd));

  Alcotest.test_case "both directions at once" `Quick (fun () ->
    let engine, a, b, ad, bd = make_pair ~seed:"sw4" ~loss:0.1 ~reorder:0.1 in
    List.iter (Sim.Swlink.send a) (workload 60);
    List.iter (fun p -> Sim.Swlink.send b ("r:" ^ p)) (workload 60);
    ignore (Sim.Engine.run engine);
    Alcotest.(check (list string)) "a->b" (workload 60) (List.rev !bd);
    Alcotest.(check (list string)) "b->a"
      (List.map (fun p -> "r:" ^ p) (workload 60)) (List.rev !ad));

  Alcotest.test_case "frame tags are HMAC-SHA1 over the NUL-joined fields" `Quick
    (fun () ->
      let engine = Sim.Engine.create ~seed:"sw-tags" () in
      let a_frames = ref [] and b_frames = ref [] in
      let a =
        Sim.Swlink.create ~engine ~mac_key:"pair-key"
          ~out:(fun f -> a_frames := f :: !a_frames) ~deliver:(fun _ -> ()) ()
      in
      let b =
        Sim.Swlink.create ~engine ~mac_key:"pair-key"
          ~out:(fun f -> b_frames := f :: !b_frames) ~deliver:(fun _ -> ()) ()
      in
      let mac fields =
        Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA1 ~key:"pair-key" (String.concat "\x00" fields)
      in
      Sim.Swlink.send a "hello";
      let data = List.hd !a_frames in
      Alcotest.(check string) "data frame"
        (Wire.encode (fun buf ->
           Wire.Enc.u8 buf 0;
           Wire.Enc.int buf 0;
           Wire.Enc.bytes buf "hello";
           Wire.Enc.bytes buf (mac [ "data"; "0"; "hello" ])))
        data;
      Sim.Swlink.on_datagram b data;
      Alcotest.(check string) "ack frame"
        (Wire.encode (fun buf ->
           Wire.Enc.u8 buf 1;
           Wire.Enc.int buf 1;
           Wire.Enc.bytes buf (mac [ "ack"; "1" ])))
        (List.hd !b_frames));

  Alcotest.test_case "window bounds frames in flight" `Quick (fun () ->
    let engine = Sim.Engine.create ~seed:"sw5" () in
    (* a black-hole link: nothing is ever delivered *)
    let a =
      Sim.Swlink.create ~engine ~mac_key:"k" ~window:8 ~rto:1000.0
        ~out:(fun _ -> ()) ~deliver:(fun _ -> ()) ()
    in
    List.iter (Sim.Swlink.send a) (workload 50);
    Alcotest.(check int) "in flight = window" 8 (Sim.Swlink.in_flight a);
    Alcotest.(check int) "rest queued" 42 (Sim.Swlink.backlog_length a));

  Alcotest.test_case "forged acknowledgements are rejected (the TCP DoS)" `Quick
    (fun () ->
      (* The attack the paper describes: an attacker spoofs ACKs so the
         sender discards unacknowledged data.  With authenticated ACKs the
         forged frames are dropped and the data still arrives after the
         real (delayed) delivery. *)
      let engine = Sim.Engine.create ~seed:"sw6" () in
      let delivered = ref [] in
      let b_ref = ref None in
      let a_ref = ref None in
      let a_out frame =
        (* the attacker sees traffic and immediately spoofs a big ACK... *)
        Sim.Engine.schedule engine ~delay:0.001 (fun () ->
          match !a_ref with
          | Some a ->
            let forged =
              Wire.encode (fun buf ->
                Wire.Enc.u8 buf 1;
                Wire.Enc.int buf 1000;
                Wire.Enc.bytes buf (String.make 20 '\000'))
            in
            Sim.Swlink.on_datagram a forged
          | None -> ());
        (* ...while the genuine frame is delivered slowly *)
        Sim.Engine.schedule engine ~delay:0.2 (fun () ->
          match !b_ref with
          | Some b -> Sim.Swlink.on_datagram b frame
          | None -> ())
      in
      let b_out frame =
        Sim.Engine.schedule engine ~delay:0.2 (fun () ->
          match !a_ref with
          | Some a -> Sim.Swlink.on_datagram a frame
          | None -> ())
      in
      a_ref := Some (Sim.Swlink.create ~engine ~mac_key:"secret" ~rto:0.5
                       ~out:a_out ~deliver:(fun _ -> ()) ());
      b_ref := Some (Sim.Swlink.create ~engine ~mac_key:"secret" ~rto:0.5
                       ~out:b_out ~deliver:(fun p -> delivered := p :: !delivered) ());
      let a = Option.get !a_ref in
      List.iter (Sim.Swlink.send a) (workload 20);
      ignore (Sim.Engine.run engine ~until:60.0);
      Alcotest.(check (list string)) "all delivered despite spoofing"
        (workload 20) (List.rev !delivered);
      Alcotest.(check bool) "forgeries were rejected" true
        (Sim.Swlink.rejected_frames a > 0));

  Alcotest.test_case "corrupted data frames are rejected" `Quick (fun () ->
    let engine = Sim.Engine.create ~seed:"sw7" () in
    let delivered = ref [] in
    let b_ref = ref None in
    let a_ref = ref None in
    let flip frame =
      let bytes = Bytes.of_string frame in
      if Bytes.length bytes > 3 then
        Bytes.set bytes 3 (Char.chr (Char.code (Bytes.get bytes 3) lxor 0xff));
      Bytes.to_string bytes
    in
    let count = ref 0 in
    let a_out frame =
      incr count;
      (* corrupt every third frame in flight *)
      let frame = if !count mod 3 = 0 then flip frame else frame in
      Sim.Engine.schedule engine ~delay:0.05 (fun () ->
        match !b_ref with Some b -> Sim.Swlink.on_datagram b frame | None -> ())
    in
    let b_out frame =
      Sim.Engine.schedule engine ~delay:0.05 (fun () ->
        match !a_ref with Some a -> Sim.Swlink.on_datagram a frame | None -> ())
    in
    a_ref := Some (Sim.Swlink.create ~engine ~mac_key:"k" ~rto:0.3
                     ~out:a_out ~deliver:(fun _ -> ()) ());
    b_ref := Some (Sim.Swlink.create ~engine ~mac_key:"k" ~rto:0.3
                     ~out:b_out ~deliver:(fun p -> delivered := p :: !delivered) ());
    List.iter (Sim.Swlink.send (Option.get !a_ref)) (workload 30);
    ignore (Sim.Engine.run engine ~until:60.0);
    Alcotest.(check (list string)) "intact stream" (workload 30) (List.rev !delivered);
    Alcotest.(check bool) "corruption detected" true
      (Sim.Swlink.rejected_frames (Option.get !b_ref) > 0));

  Alcotest.test_case "macs: every tag sent or checked is counted" `Quick (fun () ->
    (* Lossless: the sender tags 10 DATA frames and checks 10 ACKs; the
       receiver checks 10 DATA frames and tags 10 ACKs. *)
    let engine, a, b, _ad, bd = make_pair ~seed:"sw-macs" ~loss:0.0 ~reorder:0.0 in
    List.iter (Sim.Swlink.send a) (workload 10);
    ignore (Sim.Engine.run engine);
    Alcotest.(check int) "delivered" 10 (List.length !bd);
    Alcotest.(check int) "sender" 20 (Sim.Swlink.macs a);
    Alcotest.(check int) "receiver" 20 (Sim.Swlink.macs b));
]
