(* Primality testing and prime generation.

   All randomness is supplied by the caller as a [random_bytes : int -> string]
   function so that generation is deterministic under a seeded DRBG. *)

(* Small primes used for trial division before Miller-Rabin. *)
let small_primes =
  let limit = 2000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

(* Whether a small prime below [n] divides it: one allocation-free
   single-limb remainder per prime. *)
let divisible_by_small_prime (n : Nat.t) : bool =
  let below = match Nat.to_int_opt n with Some v -> v | None -> max_int in
  let rec from i =
    i < Array.length small_primes
    && (let p = small_primes.(i) in
        (p < below && Nat.rem_int n p = 0) || from (i + 1))
  in
  from 0

(* One Miller-Rabin round with witness [a] over the candidate's Montgomery
   context: n - 1 = d * 2^s with d odd, [minus_one] is n - 1 in
   Montgomery form, and the s - 1 squarings stay in the domain. *)
let miller_rabin_round (ctx : Nat.Montgomery.ctx) ~(n_minus_1 : Nat.t)
    ~(minus_one : Nat.Montgomery.residue) (d : Nat.t) (s : int) (a : Nat.t)
    : bool =
  let x = Nat.Montgomery.powmod ctx a d in
  Nat.equal x Nat.one || Nat.equal x n_minus_1
  ||
  let rec square x i =
    i < s
    && (let x = Nat.Montgomery.sqr ctx x in
        Nat.Montgomery.equal x minus_one || square x (i + 1))
  in
  square (Nat.Montgomery.to_mont ctx x) 1

let is_probable_prime ?(rounds = 24) ~(random_bytes : int -> string) (n : Nat.t) : bool =
  match Nat.to_int_opt n with
  | Some v when v < 2 -> false
  | Some 2 | Some 3 -> true
  | _ ->
    if not (Nat.testbit n 0) then false
    else if divisible_by_small_prime n then false
    else begin
      let n_minus_1 = Nat.sub n Nat.one in
      let s = ref 0 in
      let d = ref n_minus_1 in
      while not (Nat.testbit !d 0) do
        d := Nat.shift_right !d 1;
        incr s
      done;
      let ctx = Nat.Montgomery.create n in
      let minus_one = Nat.Montgomery.to_mont ctx n_minus_1 in
      let span = Nat.sub n (Nat.of_int 4) in
      let rec rounds_pass r =
        r > rounds
        || ((* witness in [2, n-2] *)
            let a = Nat.add Nat.two (Nat.random_below ~random_bytes span) in
            miller_rabin_round ctx ~n_minus_1 ~minus_one !d !s a
            && rounds_pass (r + 1))
      in
      rounds_pass 1
    end

(* Generate a random probable prime of exactly [bits] bits. *)
let gen_prime ?(rounds = 24) ~(random_bytes : int -> string) (bits : int) : Nat.t =
  if bits < 2 then invalid_arg "Prime.gen_prime: bits < 2";
  let rec go () =
    let c = Nat.random_bits ~random_bytes bits in
    (* Force the top bit (so the candidate has exactly [bits] bits) and the
       bottom bit (odd). *)
    let c = if Nat.testbit c (bits - 1) then c else Nat.add c (Nat.shift_left Nat.one (bits - 1)) in
    let c = if Nat.testbit c 0 then c else Nat.add c Nat.one in
    if is_probable_prime ~rounds ~random_bytes c then c else go ()
  in
  go ()

(* Generate a safe prime p = 2q + 1 of [bits] bits (q a Sophie Germain prime).
   Used by Shoup threshold RSA. *)
let gen_safe_prime ?(rounds = 24) ~(random_bytes : int -> string) (bits : int) : Nat.t =
  let rec go () =
    let q = gen_prime ~rounds:4 ~random_bytes (bits - 1) in
    let p = Nat.add (Nat.shift_left q 1) Nat.one in
    if divisible_by_small_prime p then go ()
    else if is_probable_prime ~rounds ~random_bytes p
            && is_probable_prime ~rounds ~random_bytes q
    then p
    else go ()
  in
  go ()

(* Generate Schnorr group parameters: primes (p, q) with q | p - 1,
   |q| = qbits, |p| = pbits, and a generator g of the order-q subgroup. *)
let gen_schnorr_group ?(rounds = 24) ~(random_bytes : int -> string) ~pbits ~qbits ()
    : Nat.t * Nat.t * Nat.t =
  let q = gen_prime ~rounds ~random_bytes qbits in
  let rec find_p () =
    (* p = q * k + 1 with k even so that p is odd; draw k of the right size. *)
    let kbits = pbits - qbits in
    let k = Nat.random_bits ~random_bytes kbits in
    let k = if Nat.testbit k (kbits - 1) then k else Nat.add k (Nat.shift_left Nat.one (kbits - 1)) in
    let k = if Nat.testbit k 0 then Nat.add k Nat.one else k in
    let p = Nat.add (Nat.mul q k) Nat.one in
    if Nat.numbits p <> pbits then find_p ()
    else if divisible_by_small_prime p then find_p ()
    else if is_probable_prime ~rounds ~random_bytes p then p
    else find_p ()
  in
  let p = find_p () in
  let p_minus_1 = Nat.sub p Nat.one in
  let cofactor = Nat.div p_minus_1 q in
  let rec find_g () =
    let h = Nat.add Nat.two (Nat.random_below ~random_bytes (Nat.sub p (Nat.of_int 4))) in
    let g = Nat.powmod h cofactor p in
    if Nat.equal g Nat.one then find_g () else g
  in
  let g = find_g () in
  (p, q, g)
