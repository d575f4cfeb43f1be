(* The write-ahead log: a flat sequence of framed records.

   Frame layout (all integers little-endian):

     +0  u32  len   — length of the payload that follows the header
     +4  u32  crc   — CRC-32 (IEEE) of the payload bytes
     +8  len  payload

   The payload is the Wire encoding of one record, tagged with a leading
   u8.  A record is never mutated in place; compaction rewrites the whole
   device through [rewrite].

   Replay walks the frames from the start and distinguishes two failure
   modes: a TORN tail (fewer bytes remain than the header or the declared
   payload — the normal aftermath of a crash mid-append; the valid prefix
   is kept and the tail dropped) and CORRUPTION (a CRC mismatch or a
   payload that does not decode — the record was fully written and then
   damaged; replay stops and reports the offset, and the operator runbook
   in OPERATIONS.md says what to do next). *)

type record =
  | Round of { round : int; batch : string }
  | Init of { round : int }
  | Snapshot of { checkpoint : Checkpoint.t; state : string }

type status = Complete | Torn of int | Corrupt of int * string

type replay = { records : record list; status : status; bytes : int }

let enc_payload (r : record) : string =
  Wire.encode (fun b ->
    match r with
    | Round { round; batch } ->
      Wire.Enc.u8 b 0;
      Wire.Enc.int b round;
      Wire.Enc.bytes b batch
    | Init { round } ->
      Wire.Enc.u8 b 1;
      Wire.Enc.int b round
    | Snapshot { checkpoint; state } ->
      Wire.Enc.u8 b 2;
      Checkpoint.enc b checkpoint;
      Wire.Enc.bytes b state)

let dec_payload (d : Wire.Dec.t) : record =
  match Wire.Dec.u8 d with
  | 0 ->
    let round = Wire.Dec.int d in
    let batch = Wire.Dec.bytes d in
    Round { round; batch }
  | 1 -> Init { round = Wire.Dec.int d }
  | 2 ->
    let checkpoint = Checkpoint.dec d in
    let state = Wire.Dec.bytes d in
    Snapshot { checkpoint; state }
  | t -> Wire.fail "log record: unknown tag %d" t

let le32 (v : int) : string =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

let read_le32 (s : string) (off : int) : int =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let frame (r : record) : string =
  let payload = enc_payload r in
  le32 (String.length payload) ^ le32 (Crc.digest payload) ^ payload

let append (dev : Device.t) (r : record) : int =
  let bytes = frame r in
  Device.append dev bytes;
  String.length bytes

let rewrite (dev : Device.t) (rs : record list) : int =
  let bytes = String.concat "" (List.map frame rs) in
  Device.rewrite dev bytes;
  String.length bytes

let replay_string (s : string) : replay =
  let len = String.length s in
  let records = ref [] in
  let off = ref 0 in
  let status = ref Complete in
  let continue = ref true in
  while !continue do
    if !off = len then continue := false
    else if len - !off < 8 then begin
      status := Torn !off;
      continue := false
    end
    else begin
      let plen = read_le32 s !off in
      let crc = read_le32 s (!off + 4) in
      if len - !off - 8 < plen then begin
        status := Torn !off;
        continue := false
      end
      else begin
        let payload = String.sub s (!off + 8) plen in
        if Crc.digest payload <> crc then begin
          status := Corrupt (!off, "CRC mismatch");
          continue := false
        end
        else
          match Wire.decode payload dec_payload with
          | None ->
            status := Corrupt (!off, "payload does not decode");
            continue := false
          | Some r ->
            records := r :: !records;
            off := !off + 8 + plen
      end
    end
  done;
  { records = List.rev !records; status = !status; bytes = !off }

let replay (dev : Device.t) : replay = replay_string (Device.contents dev)

(* --- Inspection (store-check) --- *)

let describe (r : record) : string =
  match r with
  | Round { round; batch } ->
    Printf.sprintf "round %-6d  batch %dB" round (String.length batch)
  | Init { round } -> Printf.sprintf "init  %d" round
  | Snapshot { checkpoint; state } ->
    Printf.sprintf "snapshot round %-6d  state %dB  cert %dB"
      checkpoint.Checkpoint.round (String.length state)
      (String.length checkpoint.Checkpoint.cert)

let summary (rp : replay) : string =
  let count p = List.length (List.filter p rp.records) in
  Printf.sprintf "%d record(s) (%d round(s), %d init(s), %d snapshot(s), %dB)"
    (List.length rp.records)
    (count (function Round _ -> true | Init _ | Snapshot _ -> false))
    (count (function Init _ -> true | Round _ | Snapshot _ -> false))
    (count (function Snapshot _ -> true | Round _ | Init _ -> false))
    rp.bytes

let bad_snapshot (rp : replay) : int option =
  List.fold_left
    (fun bad r ->
      match r with
      | Snapshot { checkpoint; state }
        when Hashes.Sha256.digest state <> checkpoint.Checkpoint.digest ->
        Some checkpoint.Checkpoint.round
      | Round _ | Init _ | Snapshot _ -> bad)
    None rp.records
