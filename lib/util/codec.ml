(* The framing of checkpoints and serialized partials: magic, version
   byte, then sections of [length, CRC-32, payload], integers 64-bit
   little-endian.  Each on-disk type writes and reads its own fields
   through these primitives; the frame and the section checks are
   written once, here. *)

exception Bad of string

(* A frame is sized first, then written in place into one [bytes] of
   exactly that size.  Each section's writer runs twice: over a sizer,
   which only advances [at], to learn the section's length; then over
   the frame, after the section's length and CRC slots. *)
type writer = { out : bytes; sizing : bool; mutable at : int }

let w_u8 w v =
  if not w.sizing then Bytes.set_uint8 w.out w.at v;
  w.at <- w.at + 1

let w_i64 w v =
  if not w.sizing then Bytes.set_int64_le w.out w.at (Int64.of_int v);
  w.at <- w.at + 8

let w_bytes w b =
  let n = Bytes.length b in
  if not w.sizing then Bytes.blit b 0 w.out w.at n;
  w.at <- w.at + n

let w_str w s =
  w_i64 w (String.length s);
  w_bytes w (Bytes.unsafe_of_string s)

let w_list w write items =
  w_i64 w (List.length items);
  List.iter (write w) items

let w_ints w a =
  w_i64 w (Array.length a);
  Array.iter (w_i64 w) a

let frame ~magic ~version sections =
  let sizes =
    List.map
      (fun write ->
        let z = { out = Bytes.empty; sizing = true; at = 0 } in
        write z;
        z.at)
      sections
  in
  let header = String.length magic + 1 in
  let total = List.fold_left (fun n len -> n + 16 + len) header sizes in
  let w = { out = Bytes.create total; sizing = false; at = 0 } in
  w_bytes w (Bytes.unsafe_of_string magic);
  w_u8 w version;
  List.iter2
    (fun write len ->
      w_i64 w len;
      let crc_at = w.at in
      w.at <- crc_at + 8;
      write w;
      if w.at <> crc_at + 8 + len then
        invalid_arg "Codec.frame: section size changed";
      Bytes.set_int64_le w.out crc_at
        (Int64.of_int (Crc32.bytes ~off:(crc_at + 8) ~len w.out)))
    sections sizes;
  w.out

type cursor = { data : bytes; mutable pos : int; limit : int }

(* [n > limit - pos] rather than [pos + n > limit]: a length read off
   disk can be large enough to overflow the sum. *)
let need c n =
  if n < 0 || n > c.limit - c.pos then
    raise (Bad "truncated checkpoint state")

let r_i64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let r_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.data c.pos in
  c.pos <- c.pos + 1;
  v

(* Every counted item takes at least one byte, so a count beyond the
   bytes left is damage, caught before anything is allocated for it. *)
let r_count c =
  let n = r_i64 c in
  if n < 0 || n > c.limit - c.pos then raise (Bad "bad count");
  n

let r_str c =
  let n = r_count c in
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let r_list c r = List.init (r_count c) (fun _ -> r c)
let r_ints c = Array.init (r_count c) (fun _ -> r_i64 c)

let r_rest c =
  let b = Bytes.sub c.data c.pos (c.limit - c.pos) in
  c.pos <- c.limit;
  b

(* One CRC-guarded section: bounds the cursor to the payload, runs
   the parser, then checks the parser consumed exactly the payload. *)
let r_section c parse =
  let len = r_i64 c in
  let crc = r_i64 c in
  need c len;
  if Crc32.bytes ~off:c.pos ~len c.data <> crc then
    raise (Bad "section CRC mismatch");
  let sub = { data = c.data; pos = c.pos; limit = c.pos + len } in
  let v = parse sub in
  if sub.pos <> sub.limit then raise (Bad "trailing section bytes");
  c.pos <- c.pos + len;
  v

let unframe ~magic ~version data parse =
  try
    if Bytes.length data < String.length magic + 1 then
      raise (Bad "truncated header");
    if
      not
        (String.equal (Bytes.sub_string data 0 (String.length magic)) magic)
    then raise (Bad "bad magic");
    let c = { data; pos = String.length magic; limit = Bytes.length data } in
    (match r_u8 c with
    | v when v = version -> ()
    | v -> raise (Bad (Printf.sprintf "unsupported version %d" v)));
    let v = parse c in
    if c.pos <> c.limit then raise (Bad "trailing bytes");
    Ok v
  with Bad msg -> Error msg
