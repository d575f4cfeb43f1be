(* SHA-256 (FIPS 180-4). Words are 32-bit values kept in OCaml ints and
   masked after every addition. *)

let mask = 0xFFFFFFFF

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;       (* 8 state words *)
  buf : Bytes.t;               (* 64-byte block buffer *)
  w : int array;               (* 16-word message-schedule ring, owned by this hash *)
  mutable buf_len : int;
  mutable total : int;         (* total bytes fed *)
}

(* A zeroed schedule ring.  The literal is allocated inline, where
   [Array.make] is a call into the runtime; [copy] spells out the state
   words for the same reason. *)
let[@inline] ring () = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]

let init () = {
  h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
  buf = Bytes.create 64;
  w = ring ();
  buf_len = 0;
  total = 0;
}

(* An independent context in the same state: the scratch schedule is fresh,
   so feeding either one never disturbs the other. *)
let copy (ctx : ctx) : ctx =
  let h = ctx.h in
  {
    h = [| h.(0); h.(1); h.(2); h.(3); h.(4); h.(5); h.(6); h.(7) |];
    buf = Bytes.copy ctx.buf;
    w = ring ();
    buf_len = ctx.buf_len;
    total = ctx.total;
  }

(* The 32-bit rotations inside Σ and σ come from one doubled word: with
   [x] masked, [x lor (x lsl 32)] shifted right by n < 32 holds
   [rotr x n] in its low 32 bits (the top bit of the copy falls off the
   63-bit int, but no shift below 32 reads it).  Bits above 32 are garbage
   that the next masked addition discards. *)
let[@inline] dup x = x lor (x lsl 32)

(* Schedule word [i >= 16], kept in slot [i mod 16] of a 16-word ring
   that then holds exactly the words the next one needs.  Ring and round
   indices are in bounds by construction, so their loads are unchecked. *)
let[@inline] sched w i =
  let x = Array.unsafe_get w ((i - 15) land 15) in
  let y = Array.unsafe_get w ((i - 2) land 15) in
  let x2 = dup x and y2 = dup y in
  let s0 = (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3) in
  let s1 = (y2 lsr 17) lxor (y2 lsr 19) lxor (y lsr 10) in
  let v = Array.unsafe_get w (i land 15) + s0 + Array.unsafe_get w ((i - 7) land 15) + s1 in
  let v = v land mask in
  Array.unsafe_set w (i land 15) v;
  v

(* Rounds over refs, each reading [a] and [e] once; Ch and Maj take their
   three- and four-operation forms. *)
let compress (ctx : ctx) (block : Bytes.t) (off : int) =
  let w = ctx.w in
  for i = 0 to 15 do
    let x = Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) in
    Array.unsafe_set w i (x land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let a0 = !a and e0 = !e in
    let wi = if i < 16 then Array.unsafe_get w i else sched w i in
    let e2 = dup e0 and a2 = dup a0 in
    let s1 = (e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25) in
    let ch = !g lxor (e0 land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + wi in
    let s0 = (a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22) in
    let maj = (a0 land !b) lor (!c land (a0 lor !b)) in
    hh := !g; g := !f; f := e0;
    e := (!d + t1) land mask;
    d := !c; c := !b; b := a0;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_string (ctx : ctx) (s : string) =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are read in place; compress never writes its block. *)
  let src = Bytes.unsafe_of_string s in
  while n - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

(* Pads in the context's own block buffer: 0x80, zeros, and the 64-bit
   big-endian bit length, with one more block when the length does not fit
   after the 0x80. *)
let finish (ctx : ctx) : string =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n < 56 then Bytes.fill buf (n + 1) (55 - n) '\000'
  else begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end;
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let ctx = init () in
  feed_string ctx s;
  finish ctx

let digest_list (parts : string list) : string =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finish ctx

(* A midstate is a context frozen after absorbing a prefix: nothing feeds
   or finishes it, and [digest_from] resumes a copy, so one midstate serves
   any number of digests and is never disturbed. *)
type midstate = ctx

let midstate (parts : string list) : midstate =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  ctx

let midstate_length (m : midstate) : int = m.total

let digest_from (m : midstate) (parts : string list) : string =
  let ctx = copy m in
  List.iter (feed_string ctx) parts;
  finish ctx

let hex_digits = "0123456789abcdef"

let hex_of_digest (d : string) : string =
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_digits.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[v land 15])
    d;
  Bytes.unsafe_to_string out
