(* Signed arbitrary-precision integers on top of {!Nat}. *)

type sign = Pos | Neg

type t = { sign : sign; mag : Nat.t }

let mk sign mag = if Nat.is_zero mag then { sign = Pos; mag } else { sign; mag }

let zero = { sign = Pos; mag = Nat.zero }
let one = { sign = Pos; mag = Nat.one }
let two = { sign = Pos; mag = Nat.two }
let minus_one = { sign = Neg; mag = Nat.one }

let of_nat mag = { sign = Pos; mag }

let to_nat (a : t) : Nat.t =
  match a.sign with
  | Pos -> a.mag
  | Neg -> invalid_arg "Bigint.to_nat: negative"

let of_int x =
  if x >= 0 then { sign = Pos; mag = Nat.of_int x }
  else { sign = Neg; mag = Nat.of_int (-x) }

let is_zero a = Nat.is_zero a.mag
let is_neg a = a.sign = Neg && not (Nat.is_zero a.mag)

let neg a = mk (match a.sign with Pos -> Neg | Neg -> Pos) a.mag
let abs a = { a with sign = Pos }

let compare (a : t) (b : t) : int =
  match a.sign, b.sign with
  | Pos, Neg -> if is_zero a && is_zero b then 0 else 1
  | Neg, Pos -> if is_zero a && is_zero b then 0 else -1
  | Pos, Pos -> Nat.compare a.mag b.mag
  | Neg, Neg -> Nat.compare b.mag a.mag

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  match a.sign, b.sign with
  | Pos, Pos -> mk Pos (Nat.add a.mag b.mag)
  | Neg, Neg -> mk Neg (Nat.add a.mag b.mag)
  | Pos, Neg | Neg, Pos ->
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (Nat.sub a.mag b.mag)
    else mk b.sign (Nat.sub b.mag a.mag)

let sub a b = add a (neg b)

let mul (a : t) (b : t) : t =
  let sign = if a.sign = b.sign then Pos else Neg in
  mk sign (Nat.mul a.mag b.mag)

(* Truncated division (quotient rounds toward zero), like OCaml's (/). *)
let divmod_trunc (a : t) (b : t) : t * t =
  let q, r = Nat.divmod a.mag b.mag in
  let qs = if a.sign = b.sign then Pos else Neg in
  (mk qs q, mk a.sign r)

(* Euclidean modulus: [erem a m] is in [0, |m|). *)
let erem (a : t) (m : t) : t =
  if Nat.is_zero m.mag then raise Division_by_zero;
  let r = Nat.rem a.mag m.mag in
  if Nat.is_zero r then zero
  else match a.sign with
    | Pos -> of_nat r
    | Neg -> of_nat (Nat.sub m.mag r)

let ediv (a : t) (m : t) : t =
  let r = erem a m in
  fst (divmod_trunc (sub a r) m)

let shift_left a n = mk a.sign (Nat.shift_left a.mag n)

let to_string (a : t) =
  (if is_neg a then "-" else "") ^ Nat.to_string a.mag

let of_string (s : string) : t =
  if s = "" then invalid_arg "Bigint.of_string";
  if s.[0] = '-' then mk Neg (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else of_nat (Nat.of_string s)

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* Extended binary GCD via the classic iterative schoolbook method on signed
   values: returns (g, x, y) with a*x + b*y = g = gcd(|a|, |b|), g >= 0. *)
let rec egcd (a : t) (b : t) : t * t * t =
  if is_zero b then
    if is_neg a then (neg a, minus_one, zero) else (a, one, zero)
  else begin
    let q, r = divmod_trunc a b in
    let g, x, y = egcd b r in
    (g, y, sub x (mul q y))
  end

let gcd (a : t) (b : t) : t =
  let g, _, _ = egcd a b in
  g

(* Modular inverse of a modulo m (m > 1); raises [Not_found] if none. *)
let invmod (a : t) (m : t) : t =
  let g, x, _ = egcd (erem a m) m in
  if not (equal g one) then raise Not_found;
  erem x m

let powmod (base : t) (e : t) (m : t) : t =
  if is_neg e then invalid_arg "Bigint.powmod: negative exponent; use powmod_signed";
  of_nat (Nat.powmod (to_nat (erem base m)) e.mag (to_nat (abs m)))

(* Simultaneous double exponentiation (Shamir's trick) via Nat.powmod2. *)
let powmod2 (b1 : t) (e1 : t) (b2 : t) (e2 : t) (m : t) : t =
  if is_neg e1 || is_neg e2 then
    invalid_arg "Bigint.powmod2: negative exponent; invert the base instead";
  of_nat
    (Nat.powmod2 (to_nat (erem b1 m)) e1.mag (to_nat (erem b2 m)) e2.mag
       (to_nat (abs m)))

(* Exponentiation with a possibly negative exponent: requires the base to be
   invertible modulo m. *)
let powmod_signed (base : t) (e : t) (m : t) : t =
  if is_neg e then powmod (invmod base m) (neg e) m
  else powmod base e m

(* Jacobi symbol (a/n) for odd positive n. *)
let jacobi (a : t) (n : t) : int =
  if is_neg n || not (Nat.testbit n.mag 0) then invalid_arg "Bigint.jacobi: n must be odd positive";
  let rec go a n acc =
    (* invariant: n odd positive, a in [0, n) *)
    if Nat.is_zero a then (if Nat.equal n Nat.one then acc else 0)
    else begin
      (* Pull out factors of two. *)
      let twos = ref 0 in
      let a = ref a in
      while not (Nat.testbit !a 0) do
        a := Nat.shift_right !a 1;
        incr twos
      done;
      let acc =
        if !twos land 1 = 1 then begin
          (* (2/n) = -1 iff n ≡ 3,5 (mod 8) *)
          let n_mod8 = (match Nat.to_int_opt (Nat.rem n (Nat.of_int 8)) with Some v -> v | None -> assert false) in
          if n_mod8 = 3 || n_mod8 = 5 then -acc else acc
        end
        else acc
      in
      (* Quadratic reciprocity flip. *)
      let a_mod4 = (match Nat.to_int_opt (Nat.rem !a (Nat.of_int 4)) with Some v -> v | None -> assert false) in
      let n_mod4 = (match Nat.to_int_opt (Nat.rem n (Nat.of_int 4)) with Some v -> v | None -> assert false) in
      let acc = if a_mod4 = 3 && n_mod4 = 3 then -acc else acc in
      go (Nat.rem n !a) !a acc
    end
  in
  go (Nat.rem (erem a n).mag n.mag) n.mag 1
