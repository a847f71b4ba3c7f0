(* Standard reflected CRC-32, polynomial 0xEDB88320, slicing-by-8.

   The table holds eight 256-entry slices back to back: entry
   [k * 256 + b] is the CRC register after byte [b] followed by [k] zero
   bytes.  Slice 0 is the classic bytewise table; slice [k] extends slice
   [k - 1] by one zero byte.  Eight input bytes then fold into the
   register with eight independent lookups instead of eight dependent
   table steps. *)
let build_tables () =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

(* Built on first use, so a program that never checksums allocates
   nothing for it.  An [Atomic] rather than a [Lazy]: forcing one lazy
   value from two domains at once raises, while two domains racing here
   just build the same table twice. *)
let tables : int array Atomic.t = Atomic.make [||]

let get_tables () =
  let t = Atomic.get tables in
  if Array.length t > 0 then t
  else begin
    let t = build_tables () in
    Atomic.set tables t;
    t
  end

type state = int

let init () = 0xFFFFFFFF

(* Every index below is masked to a byte and offset by a slice base
   below 2048, so the loads from the 2048-entry table cannot go out of
   bounds. *)
let[@inline] lookup (t : int array) slice byte =
  Array.unsafe_get t ((slice * 256) + byte)

let update st ?(off = 0) ?len data =
  let len = match len with Some l -> l | None -> Bytes.length data - off in
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Crc32.update: slice out of range";
  let t = get_tables () in
  let stop = off + len in
  let crc = ref st and i = ref off in
  while !i + 8 <= stop do
    let lo =
      !crc lxor (Int32.to_int (Bytes.get_int32_le data !i) land 0xFFFFFFFF)
    in
    let hi = Int32.to_int (Bytes.get_int32_le data (!i + 4)) land 0xFFFFFFFF in
    crc :=
      lookup t 7 (lo land 0xFF)
      lxor lookup t 6 ((lo lsr 8) land 0xFF)
      lxor lookup t 5 ((lo lsr 16) land 0xFF)
      lxor lookup t 4 (lo lsr 24)
      lxor lookup t 3 (hi land 0xFF)
      lxor lookup t 2 ((hi lsr 8) land 0xFF)
      lxor lookup t 1 ((hi lsr 16) land 0xFF)
      lxor lookup t 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc :=
      lookup t 0 ((!crc lxor Bytes.get_uint8 data !i) land 0xFF)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc

let finish st = st lxor 0xFFFFFFFF

let bytes ?off ?len data = finish (update (init ()) ?off ?len data)
let string s = bytes (Bytes.unsafe_of_string s)

(* Combining two CRCs, as zlib's [crc32_combine]: appending [len2]
   bytes to a message multiplies its register by x^(8 * len2) modulo
   the polynomial P(x), so [crc (a ^ b)] follows from [crc a], [crc b]
   and [len b] alone.  Polynomials are reflected 32-bit words: bit 31
   is x^0. *)

(* [a] times [b] modulo P(x). *)
let multmodp a b =
  let p = ref 0 and b = ref b and m = ref (1 lsl 31) in
  while !m <> 0 do
    if a land !m <> 0 then p := !p lxor !b;
    m := !m lsr 1;
    b := if !b land 1 = 1 then (!b lsr 1) lxor 0xEDB88320 else !b lsr 1
  done;
  !p

(* Entry [n] is x^(2^n) modulo P(x); built on first use, like
   [tables]. *)
let x2n : int array Atomic.t = Atomic.make [||]

let get_x2n () =
  let t = Atomic.get x2n in
  if Array.length t > 0 then t
  else begin
    let t = Array.make 32 (1 lsl 30) (* x^1 *) in
    for n = 1 to 31 do
      t.(n) <- multmodp t.(n - 1) t.(n - 1)
    done;
    Atomic.set x2n t;
    t
  end

(* x^(8 * len) modulo P(x), from the binary digits of [len]: the
   powers of x have period 2^32 - 1, so the table index wraps at 32. *)
let x8nmodp len =
  let t = get_x2n () in
  let p = ref (1 lsl 31) (* x^0 *) and n = ref len and k = ref 3 in
  while !n <> 0 do
    if !n land 1 = 1 then p := multmodp t.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine: negative length";
  multmodp (x8nmodp len2) crc1 lxor crc2
