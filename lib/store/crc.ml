(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
   guarding every log record's payload.  Table-driven, one byte at a time;
   the table is built lazily so a process that never touches the store pays
   nothing.  Arithmetic is on the native int (always >= 32 value bits on
   the platforms we build for), masked back to 32 bits at the end. *)

let poly = 0xEDB88320

let entry (n : int) : int =
  let c = ref n in
  for _ = 1 to 8 do
    c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
  done;
  !c

(* lint: allow global-state — a lookup table: built once, never written *)
let table = lazy (Array.init 256 entry)

let update (crc : int) (s : string) : int =
  let tbl = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let digest (s : string) : int = update 0 s
