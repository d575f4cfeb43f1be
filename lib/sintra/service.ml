(* State-machine replication as a library: the pattern the paper motivates
   atomic broadcast with (Schneider's tutorial, [16]) packaged for direct
   use.

   A service is a deterministic transition function [apply : state ->
   request -> state * reply].  Each replica feeds the requests delivered by
   the atomic channel to [apply] in order, so all honest replicas move
   through identical state sequences; requests are identified by
   (submitting replica, client tag) and executed exactly once.  Replies are
   produced at every replica — a client talking to t+1 replicas can match
   answers and is guaranteed one from an honest replica. *)

type 'state t = {
  mutable channel : Atomic_channel.t option;
  apply : 'state -> string -> 'state * string;
  mutable state : 'state;
  mutable executed : int;
  replies : (int * int, string) Hashtbl.t;   (* (origin, tag) -> reply *)
  mutable next_tag : int;
  on_reply : origin:int -> tag:int -> reply:string -> unit;
}

let encode_request ~(tag : int) (request : string) : string =
  Wire.encode (fun b ->
    Wire.Enc.int b tag;
    Wire.Enc.bytes b request)

let decode_request (s : string) : (int * string) option =
  Wire.decode s (fun d ->
    let tag = Wire.Dec.int d in
    let request = Wire.Dec.bytes d in
    (tag, request))

let execute (t : 'state t) ~(sender : int) (payload : string) : unit =
  match decode_request payload with
  | None -> ()   (* garbage from a corrupted frontend: skip deterministically *)
  | Some (tag, request) ->
    let state, reply = t.apply t.state request in
    t.state <- state;
    t.executed <- t.executed + 1;
    Hashtbl.replace t.replies (sender, tag) reply;
    t.on_reply ~origin:sender ~tag ~reply

let create ?(on_reply = fun ~origin:_ ~tag:_ ~reply:_ -> ()) (rt : Runtime.t)
    ~(pid : string) ~(init : 'state)
    ~(apply : 'state -> string -> 'state * string) : 'state t =
  let t = {
    channel = None;
    apply;
    state = init;
    executed = 0;
    replies = Hashtbl.create 64;
    next_tag = 0;
    on_reply;
  }
  in
  t.channel <-
    Some
      (Atomic_channel.create rt ~pid
         ~on_deliver:(fun ~sender payload -> execute t ~sender payload)
         ());
  t

let channel (t : 'state t) : Atomic_channel.t =
  match t.channel with Some c -> c | None -> assert false

(* Submit a request through this replica; returns the tag identifying it in
   [reply] / [on_reply]. *)
let submit (t : 'state t) (request : string) : int =
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Atomic_channel.send (channel t) (encode_request ~tag request);
  tag

let state (t : 'state t) : 'state = t.state
let executed (t : 'state t) : int = t.executed

(* The reply computed for a request submitted via replica [origin]. *)
let reply (t : 'state t) ~(origin : int) ~(tag : int) : string option =
  Hashtbl.find_opt t.replies (origin, tag)

(* A digest of the reply log: identical across honest replicas once they
   have executed the same prefix (useful for cross-replica auditing). *)
let reply_digest (t : 'state t) : string =
  let entries =
    Det.bindings t.replies ~compare:Det.by_int_pair
    |> List.map (fun ((o, g), r) -> Printf.sprintf "%d.%d=%s" o g r)
  in
  (* lint: allow charge-coverage — cross-replica audit helper outside the
     simulation's cost model; a generic service has no Runtime handle *)
  Hashes.Sha256.hex_of_digest (Hashes.Sha256.digest (String.concat ";" entries))
