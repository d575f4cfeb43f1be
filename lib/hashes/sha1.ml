(* SHA-1 (FIPS 180-4) — used by SINTRA for link authentication (HMAC-SHA1)
   and as the 160-bit hash inside the threshold schemes, as in the paper. *)

let mask = 0xFFFFFFFF

type ctx = {
  h : int array;
  buf : Bytes.t;
  w : int array;       (* message-schedule scratch, owned by this hash *)
  mutable buf_len : int;
  mutable total : int;
}

let init () = {
  h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |];
  buf = Bytes.create 64;
  w = Array.make 80 0;
  buf_len = 0;
  total = 0;
}

(* An independent context in the same state: the scratch schedule is fresh,
   so feeding either one never disturbs the other. *)
let copy (ctx : ctx) : ctx = {
  h = Array.copy ctx.h;
  buf = Bytes.copy ctx.buf;
  w = Array.make 80 0;
  buf_len = ctx.buf_len;
  total = ctx.total;
}

(* Rotation without the final mask: bits above 32 are garbage that the
   next masked addition discards.  Every word that is later rotated or
   shifted right is masked first, so the garbage never reaches the low 32
   bits. *)
let rotl x n = (x lsl n) lor (x lsr (32 - n))

let compress (ctx : ctx) (block : Bytes.t) (off : int) =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
  done;
  for i = 16 to 79 do
    w.(i) <- rotl (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1 land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) and e = ref h.(4) in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then (!b land !c) lor (lnot !b land !d), 0x5A827999
      else if i < 40 then !b lxor !c lxor !d, 0x6ED9EBA1
      else if i < 60 then (!b land !c) lor (!b land !d) lor (!c land !d), 0x8F1BBCDC
      else !b lxor !c lxor !d, 0xCA62C1D6
    in
    let tmp = (rotl !a 5 + f + !e + k + w.(i)) land mask in
    e := !d; d := !c;
    c := rotl !b 30 land mask;
    b := !a; a := tmp
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask

let feed_string (ctx : ctx) (s : string) =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
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
  let out = Bytes.create 20 in
  for i = 0 to 4 do
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
