(* Checkpoint file for a resumable streaming analysis: which archive
   paths have been fully folded in, plus the serialized merged partial
   ({!Pipeline.Partial.serialize}).  Both are written in the framing
   [Codec] implements: magic, version byte, CRC-guarded length-prefixed
   sections.  Published through Durable, so the file on disk is always
   a complete checkpoint — the previous one or the new one. *)

module Durable = Hbbp_durable.Durable
module Metrics = Hbbp_telemetry.Metrics

module Codec = struct
  exception Bad of string

  let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let w_str buf s =
    w_i64 buf (String.length s);
    Buffer.add_string buf s

  let w_list buf w items =
    w_i64 buf (List.length items);
    List.iter (w buf) items

  let w_ints buf a =
    w_i64 buf (Array.length a);
    Array.iter (w_i64 buf) a

  let frame ~magic ~version sections =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf magic;
    Buffer.add_uint8 buf version;
    List.iter
      (fun write_payload ->
        let p = Buffer.create 1024 in
        write_payload p;
        let payload = Buffer.to_bytes p in
        w_i64 buf (Bytes.length payload);
        w_i64 buf (Hbbp_util.Crc32.bytes payload);
        Buffer.add_bytes buf payload)
      sections;
    Buffer.to_bytes buf

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

  (* One CRC-guarded section: bounds the cursor to the payload, runs
     the parser, then checks the parser consumed exactly the payload. *)
  let r_section c parse =
    let len = r_i64 c in
    let crc = r_i64 c in
    need c len;
    if Hbbp_util.Crc32.bytes ~off:c.pos ~len c.data <> crc then
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
end

open Codec

type t = { done_paths : string list; partial : bytes }

let magic = "HBBPCKPT"
let version = 1

let to_bytes t =
  frame ~magic ~version
    [
      (fun p -> w_list p w_str t.done_paths);
      (fun p -> Buffer.add_bytes p t.partial);
    ]

let of_bytes data =
  unframe ~magic ~version data @@ fun c ->
  let done_paths = r_section c (fun s -> r_list s r_str) in
  let partial =
    r_section c (fun s ->
        let b = Bytes.sub s.data s.pos (s.limit - s.pos) in
        s.pos <- s.limit;
        b)
  in
  { done_paths; partial }

let save t ~path =
  let data = to_bytes t in
  Durable.write_bytes ~path data;
  Metrics.add (Metrics.counter "checkpoint.saves") 1;
  Metrics.add (Metrics.counter "checkpoint.bytes") (Bytes.length data)

let load ~path =
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Some (Error e)
    | text -> Some (of_bytes (Bytes.of_string text))

let remove ~path = if Sys.file_exists path then Sys.remove path
