(* SHA-1 (FIPS 180-4).  SINTRA authenticates every point-to-point link with
   HMAC-SHA1, as in the paper; [Hmac] is this module's only user.  Words are
   32-bit values kept in OCaml ints and masked after every addition. *)

let mask = 0xFFFFFFFF

type ctx = {
  h : int array;
  buf : Bytes.t;
  w : int array;       (* 16-word message-schedule ring, owned by this hash *)
  mutable buf_len : int;
  mutable total : int;
}

(* A zeroed schedule ring.  The literal is allocated inline, where
   [Array.make] is a call into the runtime; [copy] spells out the state
   words for the same reason. *)
let[@inline] ring () = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]

let init () = {
  h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |];
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
    h = [| h.(0); h.(1); h.(2); h.(3); h.(4) |];
    buf = Bytes.copy ctx.buf;
    w = ring ();
    buf_len = ctx.buf_len;
    total = ctx.total;
  }

(* Rotation without the final mask: bits above 32 are garbage that the
   next masked addition discards.  Every word that is later rotated or
   shifted right is masked first, so the garbage never reaches the low 32
   bits. *)
let rotl x n = (x lsl n) lor (x lsr (32 - n))

(* Schedule word [i] of the block: the first 16 are read from the block,
   the rest computed; each is kept in slot [i mod 16] of the ring, which
   then holds exactly the 16 words the next one needs.  Ring indices are
   in bounds by construction, so those loads and stores are unchecked. *)
let[@inline] load w block off i =
  let x = Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask in
  Array.unsafe_set w i x;
  x

let[@inline] sched w i =
  let x =
    rotl
      (Array.unsafe_get w ((i - 3) land 15) lxor Array.unsafe_get w ((i - 8) land 15)
       lxor Array.unsafe_get w ((i - 14) land 15) lxor Array.unsafe_get w (i land 15))
      1
    land mask
  in
  Array.unsafe_set w (i land 15) x;
  x

(* One round per stage: the new [e], given the working variables and the
   round's schedule word.  Ch and Maj take their three-operation forms. *)
let[@inline] step1 a b c d e x =
  (e + rotl a 5 + (d lxor (b land (c lxor d))) + 0x5A827999 + x) land mask
let[@inline] step2 a b c d e x = (e + rotl a 5 + (b lxor c lxor d) + 0x6ED9EBA1 + x) land mask
let[@inline] step3 a b c d e x =
  (e + rotl a 5 + ((b land c) lor (d land (b lor c))) + 0x8F1BBCDC + x) land mask
let[@inline] step4 a b c d e x = (e + rotl a 5 + (b lxor c lxor d) + 0xCA62C1D6 + x) land mask

(* Straight-line rounds.  A round writes only its new [e] and rotates [b];
   the five names then change roles, so five rounds bring them back to
   (a, b, c, d, e) with no copying between rounds. *)
let compress (ctx : ctx) (block : Bytes.t) (off : int) =
  let w = ctx.w and h = ctx.h in
  let a = h.(0) and b = h.(1) and c = h.(2) and d = h.(3) and e = h.(4) in
  let e = step1 a b c d e (load w block off 0) and b = rotl b 30 land mask in
  let d = step1 e a b c d (load w block off 1) and a = rotl a 30 land mask in
  let c = step1 d e a b c (load w block off 2) and e = rotl e 30 land mask in
  let b = step1 c d e a b (load w block off 3) and d = rotl d 30 land mask in
  let a = step1 b c d e a (load w block off 4) and c = rotl c 30 land mask in
  let e = step1 a b c d e (load w block off 5) and b = rotl b 30 land mask in
  let d = step1 e a b c d (load w block off 6) and a = rotl a 30 land mask in
  let c = step1 d e a b c (load w block off 7) and e = rotl e 30 land mask in
  let b = step1 c d e a b (load w block off 8) and d = rotl d 30 land mask in
  let a = step1 b c d e a (load w block off 9) and c = rotl c 30 land mask in
  let e = step1 a b c d e (load w block off 10) and b = rotl b 30 land mask in
  let d = step1 e a b c d (load w block off 11) and a = rotl a 30 land mask in
  let c = step1 d e a b c (load w block off 12) and e = rotl e 30 land mask in
  let b = step1 c d e a b (load w block off 13) and d = rotl d 30 land mask in
  let a = step1 b c d e a (load w block off 14) and c = rotl c 30 land mask in
  let e = step1 a b c d e (load w block off 15) and b = rotl b 30 land mask in
  let d = step1 e a b c d (sched w 16) and a = rotl a 30 land mask in
  let c = step1 d e a b c (sched w 17) and e = rotl e 30 land mask in
  let b = step1 c d e a b (sched w 18) and d = rotl d 30 land mask in
  let a = step1 b c d e a (sched w 19) and c = rotl c 30 land mask in
  let e = step2 a b c d e (sched w 20) and b = rotl b 30 land mask in
  let d = step2 e a b c d (sched w 21) and a = rotl a 30 land mask in
  let c = step2 d e a b c (sched w 22) and e = rotl e 30 land mask in
  let b = step2 c d e a b (sched w 23) and d = rotl d 30 land mask in
  let a = step2 b c d e a (sched w 24) and c = rotl c 30 land mask in
  let e = step2 a b c d e (sched w 25) and b = rotl b 30 land mask in
  let d = step2 e a b c d (sched w 26) and a = rotl a 30 land mask in
  let c = step2 d e a b c (sched w 27) and e = rotl e 30 land mask in
  let b = step2 c d e a b (sched w 28) and d = rotl d 30 land mask in
  let a = step2 b c d e a (sched w 29) and c = rotl c 30 land mask in
  let e = step2 a b c d e (sched w 30) and b = rotl b 30 land mask in
  let d = step2 e a b c d (sched w 31) and a = rotl a 30 land mask in
  let c = step2 d e a b c (sched w 32) and e = rotl e 30 land mask in
  let b = step2 c d e a b (sched w 33) and d = rotl d 30 land mask in
  let a = step2 b c d e a (sched w 34) and c = rotl c 30 land mask in
  let e = step2 a b c d e (sched w 35) and b = rotl b 30 land mask in
  let d = step2 e a b c d (sched w 36) and a = rotl a 30 land mask in
  let c = step2 d e a b c (sched w 37) and e = rotl e 30 land mask in
  let b = step2 c d e a b (sched w 38) and d = rotl d 30 land mask in
  let a = step2 b c d e a (sched w 39) and c = rotl c 30 land mask in
  let e = step3 a b c d e (sched w 40) and b = rotl b 30 land mask in
  let d = step3 e a b c d (sched w 41) and a = rotl a 30 land mask in
  let c = step3 d e a b c (sched w 42) and e = rotl e 30 land mask in
  let b = step3 c d e a b (sched w 43) and d = rotl d 30 land mask in
  let a = step3 b c d e a (sched w 44) and c = rotl c 30 land mask in
  let e = step3 a b c d e (sched w 45) and b = rotl b 30 land mask in
  let d = step3 e a b c d (sched w 46) and a = rotl a 30 land mask in
  let c = step3 d e a b c (sched w 47) and e = rotl e 30 land mask in
  let b = step3 c d e a b (sched w 48) and d = rotl d 30 land mask in
  let a = step3 b c d e a (sched w 49) and c = rotl c 30 land mask in
  let e = step3 a b c d e (sched w 50) and b = rotl b 30 land mask in
  let d = step3 e a b c d (sched w 51) and a = rotl a 30 land mask in
  let c = step3 d e a b c (sched w 52) and e = rotl e 30 land mask in
  let b = step3 c d e a b (sched w 53) and d = rotl d 30 land mask in
  let a = step3 b c d e a (sched w 54) and c = rotl c 30 land mask in
  let e = step3 a b c d e (sched w 55) and b = rotl b 30 land mask in
  let d = step3 e a b c d (sched w 56) and a = rotl a 30 land mask in
  let c = step3 d e a b c (sched w 57) and e = rotl e 30 land mask in
  let b = step3 c d e a b (sched w 58) and d = rotl d 30 land mask in
  let a = step3 b c d e a (sched w 59) and c = rotl c 30 land mask in
  let e = step4 a b c d e (sched w 60) and b = rotl b 30 land mask in
  let d = step4 e a b c d (sched w 61) and a = rotl a 30 land mask in
  let c = step4 d e a b c (sched w 62) and e = rotl e 30 land mask in
  let b = step4 c d e a b (sched w 63) and d = rotl d 30 land mask in
  let a = step4 b c d e a (sched w 64) and c = rotl c 30 land mask in
  let e = step4 a b c d e (sched w 65) and b = rotl b 30 land mask in
  let d = step4 e a b c d (sched w 66) and a = rotl a 30 land mask in
  let c = step4 d e a b c (sched w 67) and e = rotl e 30 land mask in
  let b = step4 c d e a b (sched w 68) and d = rotl d 30 land mask in
  let a = step4 b c d e a (sched w 69) and c = rotl c 30 land mask in
  let e = step4 a b c d e (sched w 70) and b = rotl b 30 land mask in
  let d = step4 e a b c d (sched w 71) and a = rotl a 30 land mask in
  let c = step4 d e a b c (sched w 72) and e = rotl e 30 land mask in
  let b = step4 c d e a b (sched w 73) and d = rotl d 30 land mask in
  let a = step4 b c d e a (sched w 74) and c = rotl c 30 land mask in
  let e = step4 a b c d e (sched w 75) and b = rotl b 30 land mask in
  let d = step4 e a b c d (sched w 76) and a = rotl a 30 land mask in
  let c = step4 d e a b c (sched w 77) and e = rotl e 30 land mask in
  let b = step4 c d e a b (sched w 78) and d = rotl d 30 land mask in
  let a = step4 b c d e a (sched w 79) and c = rotl c 30 land mask in
  h.(0) <- (h.(0) + a) land mask;
  h.(1) <- (h.(1) + b) land mask;
  h.(2) <- (h.(2) + c) land mask;
  h.(3) <- (h.(3) + d) land mask;
  h.(4) <- (h.(4) + e) land mask

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
  let out = Bytes.create 20 in
  for i = 0 to 4 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let ctx = init () in
  feed_string ctx s;
  finish ctx
