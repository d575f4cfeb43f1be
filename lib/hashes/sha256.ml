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
  w : int array;               (* message-schedule scratch, owned by this hash *)
  mutable buf_len : int;
  mutable total : int;         (* total bytes fed *)
}

let init () = {
  h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
  buf = Bytes.create 64;
  w = Array.make 64 0;
  buf_len = 0;
  total = 0;
}

(* An independent context in the same state: the scratch schedule is fresh,
   so feeding either one never disturbs the other. *)
let copy (ctx : ctx) : ctx = {
  h = Array.copy ctx.h;
  buf = Bytes.copy ctx.buf;
  w = Array.make 64 0;
  buf_len = ctx.buf_len;
  total = ctx.total;
}

(* Rotation without the final mask: bits above 32 are garbage that the
   next masked addition discards.  Only masked words are ever rotated or
   shifted right, so the garbage never reaches the low 32 bits. *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

let compress (ctx : ctx) (block : Bytes.t) (off : int) =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + k.(i) + w.(i) in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := !e;
    e := (!d + t1) land mask;
    d := !c; c := !b; b := !a;
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

let finish (ctx : ctx) : string =
  let bit_len = ctx.total * 8 in
  (* Append 0x80, pad with zeros, then 64-bit big-endian length. *)
  let pad_len =
    let r = (ctx.total + 1) mod 64 in
    if r <= 56 then 56 - r else 120 - r
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail (1 + pad_len + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  feed_string ctx (Bytes.unsafe_to_string tail);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out (4 * i + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (4 * i + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (4 * i + 3) (Char.chr (v land 0xff))
  done;
  Bytes.to_string out

let digest (s : string) : string =
  let ctx = init () in
  feed_string ctx s;
  finish ctx

let digest_list (parts : string list) : string =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finish ctx

(* A midstate is a context frozen after absorbing a prefix.  It keeps no
   scratch schedule: [digest_from] resumes a fresh context from it, so one
   midstate serves any number of digests and is never disturbed. *)
type midstate = {
  m_h : int array;
  m_buf : Bytes.t;
  m_buf_len : int;
  m_total : int;
}

let midstate (parts : string list) : midstate =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  { m_h = ctx.h; m_buf = ctx.buf; m_buf_len = ctx.buf_len; m_total = ctx.total }

let midstate_length (m : midstate) : int = m.m_total

let digest_from (m : midstate) (parts : string list) : string =
  let ctx = {
    h = Array.copy m.m_h;
    buf = Bytes.copy m.m_buf;
    w = Array.make 64 0;
    buf_len = m.m_buf_len;
    total = m.m_total;
  }
  in
  List.iter (feed_string ctx) parts;
  finish ctx

let hex_of_digest (d : string) : string =
  let buf = Buffer.create (2 * String.length d) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
