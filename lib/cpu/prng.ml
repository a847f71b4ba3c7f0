(* The state lives unboxed in 8 bytes: a mutable [int64] field would
   allocate a fresh box on every draw, and armed runs draw per taken
   branch (the LBR record-drop model). *)
type t = Bytes.t

(* Unchecked: every [t] is exactly 8 bytes long. *)
external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (get_state t 0) golden in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

(* Scaling by 2^-53 is exact, so the product equals the quotient by
   2^53 and costs a multiply instead of a divide. *)
let[@inline] float t =
  let v = Int64.shift_right_logical (next t) 11 in
  Int64.to_float v *. 0x1p-53

let bool t p = float t < p

let choose t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if Array.length weights = 0 || total <= 0.0 then
    invalid_arg "Prng.choose: empty or all-zero weights";
  let mark = float t *. total in
  let rec pick k acc =
    if k = Array.length weights - 1 then k
    else
      let acc = acc +. weights.(k) in
      if mark < acc then k else pick (k + 1) acc
  in
  pick 0 0.0

let split t = create ~seed:(next t)
