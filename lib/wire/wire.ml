(* A small binary codec.  Every SINTRA protocol message crosses the simulated
   network as bytes produced here, so wire sizes (and hence the latency and
   bandwidth accounting) are real, and link MACs are computed over real
   encodings.

   Encoding: unsigned LEB128 varints for integers; byte strings are
   length-prefixed; sums are tagged with a u8. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

module Enc = struct
  type t = Buffer.t

  let create () : t = Buffer.create 64

  let u8 (b : t) (v : int) =
    if v < 0 || v > 0xff then invalid_arg "Wire.Enc.u8";
    Buffer.add_char b (Char.chr v)

  (* Unsigned LEB128. *)
  let int (b : t) (v : int) =
    if v < 0 then invalid_arg "Wire.Enc.int: negative";
    let rec go v =
      if v < 0x80 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
        go (v lsr 7)
      end
    in
    go v

  let rec int_length (v : int) : int = if v < 0x80 then 1 else 1 + int_length (v lsr 7)

  let bool (b : t) (v : bool) = u8 b (if v then 1 else 0)

  let bytes (b : t) (s : string) =
    int b (String.length s);
    Buffer.add_string b s

  let list (b : t) (f : t -> 'a -> unit) (xs : 'a list) =
    int b (List.length xs);
    List.iter (fun x -> f b x) xs

  let option (b : t) (f : t -> 'a -> unit) (x : 'a option) =
    match x with
    | None -> u8 b 0
    | Some v -> u8 b 1; f b v

  let to_string (b : t) = Buffer.contents b
end

module Dec = struct
  type t = { s : string; mutable pos : int }

  let of_string s = { s; pos = 0 }

  let ensure (d : t) (n : int) =
    (* [n] can be adversarial (a decoded varint), so compare without the
       overflow in [pos + n]. *)
    if n < 0 || n > String.length d.s - d.pos then
      fail "truncated input (need %d at %d)" n d.pos

  let u8 (d : t) : int =
    ensure d 1;
    let v = Char.code d.s.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let int (d : t) : int =
    let rec go shift acc =
      if shift > 62 then fail "varint too long";
      let c = u8 d in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bool (d : t) : bool =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | v -> fail "bad bool tag %d" v

  let bytes (d : t) : string =
    let n = int d in
    ensure d n;
    let s = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    s

  let list (d : t) (f : t -> 'a) : 'a list =
    let n = int d in
    if n < 0 || n > 1_000_000 then fail "bad list length %d" n;
    List.init n (fun _ -> f d)

  let option (d : t) (f : t -> 'a) : 'a option =
    match u8 d with
    | 0 -> None
    | 1 -> Some (f d)
    | v -> fail "bad option tag %d" v

  let finished (d : t) : bool = d.pos = String.length d.s

  let expect_end (d : t) : unit =
    if not (finished d) then fail "trailing bytes at %d" d.pos
end

(* Encode via a function; decode catching [Decode] into an option. *)
let encode (f : Enc.t -> unit) : string =
  let b = Enc.create () in
  f b;
  Enc.to_string b

(* Like {!decode} but tolerates trailing bytes — for reading a tagged prefix
   and handing the decoder to per-tag logic. *)
let decode_prefix (s : string) (f : Dec.t -> 'a) : 'a option =
  let d = Dec.of_string s in
  match f d with
  | v -> Some v
  | exception Decode _ -> None

let decode (s : string) (f : Dec.t -> 'a) : 'a option =
  let d = Dec.of_string s in
  match
    let v = f d in
    Dec.expect_end d;
    v
  with
  | v -> Some v
  | exception Decode _ -> None
