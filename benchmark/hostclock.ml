(* Host CPU time, scaled to a reference speed.

   On a shared virtual machine the same instructions cost a different
   amount of CPU time from one minute to the next: another tenant on the
   sibling hyperthread or in the shared cache slows every instruction
   stream alike, by up to a third.  Every host time the benchmark reports
   is therefore CPU time multiplied by [reference_s / c], where [c] is the
   CPU time of a fixed calibration kernel measured right before and right
   after the timed work, and [reference_s] is that kernel's CPU time on an
   idle 2-vCPU Xeon VM.  The kernel is the benchmark's own code, so a
   change to the program under test moves only the timed work, never the
   yardstick. *)

(* One kernel call: multiprecision-style multiply-accumulate over small
   int arrays — the simulator's bignum arithmetic — and a pseudo-random
   walk over a 128 KiB table.  It allocates nothing, so the garbage
   collector, whose work grows with the heap the program under test keeps,
   never runs inside it. *)
let table = Array.init (1 lsl 14) (fun i -> (i * 2654435761) land 0xFFFFFFF)
let a = Array.init 16 (fun j -> (j * 104729) land 0xFFFFFFF)
let b = Array.init 16 (fun j -> (j * 7919) land 0xFFFFFFF)
let r = Array.make 32 0

let kernel () : unit =
  let mask = Array.length table - 1 in
  let k = ref 1 in
  for i = 0 to 199 do
    Array.fill r 0 32 i;
    for x = 0 to 15 do
      for y = 0 to 15 do
        r.(x + y) <- (r.(x + y) + (a.(x) * b.(y))) land 0x3FFFFFFFFFFF
      done
    done;
    for _ = 1 to 64 do
      k := (table.(!k land mask) + r.(!k land 31) + 1) land 0xFFFFFFF
    done
  done;
  ignore (Sys.opaque_identity !k)

let reference_s = 170e-6

(* CPU seconds per kernel call, averaged over about 5 ms, after one call
   that brings the table back into the cache the timed work evicted it
   from. *)
let calibrate () : float =
  kernel ();
  let t0 = Sys.time () in
  let calls = ref 0 in
  while Sys.time () -. t0 < 0.005 do
    kernel ();
    incr calls
  done;
  (Sys.time () -. t0) /. float_of_int !calls

(* Accumulates work done in slices, each scaled by the calibration taken
   on either side of it. *)
type meter = { mutable last : float; mutable raw_s : float; mutable scaled_s : float }

let meter () : meter = { last = calibrate (); raw_s = 0.0; scaled_s = 0.0 }

let slice (m : meter) (f : unit -> 'a) : 'a =
  let t0 = Sys.time () in
  let r = f () in
  let dt = Sys.time () -. t0 in
  let next = calibrate () in
  m.raw_s <- m.raw_s +. dt;
  m.scaled_s <- m.scaled_s +. (dt *. reference_s /. ((m.last +. next) /. 2.0));
  m.last <- next;
  r

(* [f]'s scaled CPU seconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let m = meter () in
  let r = slice m f in
  (r, m.scaled_s)

(* Scaled over raw: what a raw CPU time measured during the meter's work
   is multiplied by. *)
let speed (m : meter) : float = if m.raw_s = 0.0 then 1.0 else m.scaled_s /. m.raw_s
