open Hbbp_program
open Hbbp_cpu
module Crc32 = Hbbp_util.Crc32
module Faults = Hbbp_faults.Faults

type t = {
  workload_name : string;
  ebs_period : int;
  lbr_period : int;
  analysis_images : Image.t list;
  live_kernel_text : (string * bytes) list;
  records : Record.t list;
}

let of_records ~workload_name ~session ~analysis ~live records =
  {
    workload_name;
    ebs_period = Session.ebs_period session;
    lbr_period = Session.lbr_period session;
    analysis_images = Process.images analysis;
    live_kernel_text =
      List.filter_map
        (fun (img : Image.t) ->
          if Ring.equal img.ring Ring.Kernel then
            Some (img.name, Bytes.copy img.code)
          else None)
        (Process.images live);
    records;
  }

let of_session ~workload_name ~session ~analysis ~live =
  of_records ~workload_name ~session ~analysis ~live
    (Session.records session live ~pid:1 ~name:workload_name)

let analysis_process t =
  let images =
    List.map
      (fun (img : Image.t) ->
        match List.assoc_opt img.name t.live_kernel_text with
        | Some live_code when Ring.equal img.ring Ring.Kernel ->
            Image.make ~name:img.name ~base:img.base ~code:live_code
              ~symbols:img.symbols ~ring:img.ring
        | _ -> img)
      t.analysis_images
  in
  Process.create images

(* ------------------------------------------------------------------ *)
(* Binary format                                                       *)

type error = Bad_magic | Bad_version of int | Truncated | Corrupt of string

let pp_error ppf = function
  | Bad_magic -> Format.pp_print_string ppf "bad magic"
  | Bad_version v -> Format.fprintf ppf "unsupported version %d" v
  | Truncated -> Format.pp_print_string ppf "truncated archive"
  | Corrupt what -> Format.fprintf ppf "corrupt archive: %s" what

type section = Header | Images | Kernel_text | Records

let section_name = function
  | Header -> "header"
  | Images -> "images"
  | Kernel_text -> "kernel text"
  | Records -> "records"

type fault =
  | Checksum_mismatch of section
  | Truncated_records of { expected : int option; salvaged : int }
  | Corrupt_records of { index : int; reason : string; salvaged : int }

let pp_fault ppf = function
  | Checksum_mismatch s ->
      Format.fprintf ppf "%s section checksum mismatch" (section_name s)
  | Truncated_records { expected = Some n; salvaged } ->
      Format.fprintf ppf "records truncated: salvaged %d of %d" salvaged n
  | Truncated_records { expected = None; salvaged } ->
      Format.fprintf ppf "records truncated: salvaged %d (total unknown)"
        salvaged
  | Corrupt_records { index; reason; salvaged } ->
      Format.fprintf ppf "record %d corrupt (%s): salvaged %d" index reason
        salvaged

type read = { archive : t; ledger : fault list }

let magic = "HBBPDATA"

(* Version 3: length-prefixed primitives grouped into four sections —
   header, images, kernel text, records — each preceded by (payload
   length, item count, CRC-32).  Readers can verify integrity before
   parsing and salvage the record stream independently of the
   metadata.  A sample's LBR snapshot is its entry count, then two
   zigzag LEB128 varints per entry: its source minus the previous
   entry's target (the sample's ip for entry 0), and its target minus
   its source.  Within one snapshot the addresses lie close together,
   so most deltas take one or two bytes instead of eight. *)
let version = 3

(* -- writer -- *)

(* The encoder sizes before it writes: a record's encoded length
   follows from its fields, so one pass over the fields gives every
   section's length and the archive's.  The result is allocated once,
   at its exact size, and every field is written in place; a section's
   CRC is the only field written after its payload. *)

let z_string s = 8 + String.length s
let z_bytes b = 8 + Bytes.length b

let z_image (img : Image.t) =
  List.fold_left
    (fun n (s : Symbol.t) -> n + z_string s.name + 16)
    (z_string img.name + 8 + 1 + z_bytes img.code + 8)
    img.symbols

(* Zigzag maps a signed delta to an unsigned one, small magnitudes to
   small values: 0, -1, 1, -2 ... become 0, 1, 2, 3 ...  Both directions
   are bijections on the 63-bit ints. *)
let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))

(* LEB128 length of [u], read as an unsigned 63-bit value: seven bits
   per byte, at most nine bytes. *)
let rec z_uvarint u =
  if u land lnot 0x7f = 0 then 1 else 1 + z_uvarint (u lsr 7)

let z_svarint v = z_uvarint (zigzag v)

(* A snapshot's entry count and delta varints; [ip] anchors entry 0. *)
let z_lbr ~ip (lbr : Lbr.snapshot) =
  let n = Lbr.entries lbr in
  let size = ref (z_uvarint n) and prev = ref ip in
  for k = 0 to n - 1 do
    let src = lbr.(2 * k) and tgt = lbr.((2 * k) + 1) in
    size := !size + z_svarint (src - !prev) + z_svarint (tgt - src);
    prev := tgt
  done;
  !size

let z_record = function
  | Record.Comm { name; _ } -> 1 + 8 + z_string name
  | Record.Mmap { name; _ } -> 1 + 16 + z_string name + 1
  | Record.Fork _ -> 1 + 16
  | Record.Sample s ->
      1
      + z_string (Pmu_event.to_string s.Record.event)
      + 8 + 1 + 8
      + z_lbr ~ip:s.Record.ip s.Record.lbr
  | Record.Lost _ -> 1 + 8

(* The output and the offset of the next field. *)
type writer = { out : bytes; mutable at : int }

let w_u8 w v =
  Bytes.set_uint8 w.out w.at (v land 0xff);
  w.at <- w.at + 1

let w_i64 w v =
  Bytes.set_int64_le w.out w.at (Int64.of_int v);
  w.at <- w.at + 8

let rec w_uvarint w u =
  if u land lnot 0x7f = 0 then w_u8 w u
  else begin
    w_u8 w (u lor 0x80);
    w_uvarint w (u lsr 7)
  end

let w_svarint w v = w_uvarint w (zigzag v)

let w_lbr w ~ip (lbr : Lbr.snapshot) =
  let n = Lbr.entries lbr in
  w_uvarint w n;
  let prev = ref ip in
  for k = 0 to n - 1 do
    let src = lbr.(2 * k) and tgt = lbr.((2 * k) + 1) in
    w_svarint w (src - !prev);
    w_svarint w (tgt - src);
    prev := tgt
  done

let w_string w s =
  let n = String.length s in
  w_i64 w n;
  Bytes.blit_string s 0 w.out w.at n;
  w.at <- w.at + n

let w_bytes w b =
  let n = Bytes.length b in
  w_i64 w n;
  Bytes.blit b 0 w.out w.at n;
  w.at <- w.at + n

let w_list w f items =
  w_i64 w (List.length items);
  List.iter (f w) items

let w_ring w = function Ring.User -> w_u8 w 0 | Ring.Kernel -> w_u8 w 1

let w_image w (img : Image.t) =
  w_string w img.name;
  w_i64 w img.base;
  w_ring w img.ring;
  w_bytes w img.code;
  w_list w
    (fun w (s : Symbol.t) ->
      w_string w s.name;
      w_i64 w s.addr;
      w_i64 w s.size)
    img.symbols

let w_record w (r : Record.t) =
  match r with
  | Record.Comm { pid; name } ->
      w_u8 w 0;
      w_i64 w pid;
      w_string w name
  | Record.Mmap { addr; len; name; ring } ->
      w_u8 w 1;
      w_i64 w addr;
      w_i64 w len;
      w_string w name;
      w_ring w ring
  | Record.Fork { parent; child } ->
      w_u8 w 2;
      w_i64 w parent;
      w_i64 w child
  | Record.Sample s ->
      w_u8 w 3;
      w_string w (Pmu_event.to_string s.Record.event);
      w_i64 w s.Record.ip;
      w_ring w s.Record.ring;
      w_i64 w s.Record.time;
      w_lbr w ~ip:s.Record.ip s.Record.lbr
  | Record.Lost n ->
      w_u8 w 4;
      w_i64 w n

let w_kernel_text w (name, code) =
  w_string w name;
  w_bytes w code

(* [f] over the first [count] elements of [l]. *)
let rec fold_prefix f acc count = function
  | x :: rest when count > 0 -> fold_prefix f (f acc x) (count - 1) rest
  | _ -> acc

(* A section: payload length, item count, CRC-32 of the payload, then
   the payload, which [write] fills with exactly [len] bytes.  Returns
   the CRC-32 of the whole section, header included, combined from the
   header's and the payload's: the archive's CRC needs no pass of its
   own over the payload. *)
let w_section w ~len ~count write =
  let hdr = w.at in
  w_i64 w len;
  w_i64 w count;
  w.at <- w.at + 8;
  write w;
  assert (w.at = hdr + 24 + len);
  let crc = Crc32.bytes ~off:(hdr + 24) ~len w.out in
  Bytes.set_int64_le w.out (hdr + 16) (Int64.of_int crc);
  Crc32.combine (Crc32.bytes ~off:hdr ~len:24 w.out) crc len

let prefix_len = String.length magic + 1

(* [t] holding only the first [count] of [records], encoded, and the
   CRC-32 of the encoding. *)
let encode t ~records ~count =
  let sum f items = List.fold_left (fun n x -> n + f x) 0 items in
  let header = z_string t.workload_name + 16 in
  let images = sum z_image t.analysis_images in
  let kernel_text =
    sum (fun (name, code) -> z_string name + z_bytes code) t.live_kernel_text
  in
  let record_bytes = fold_prefix (fun n r -> n + z_record r) 0 count records in
  let w =
    {
      out =
        Bytes.create
          (prefix_len + (4 * 24) + header + images + kernel_text
         + record_bytes);
      at = 0;
    }
  in
  Bytes.blit_string magic 0 w.out 0 (String.length magic);
  w.at <- String.length magic;
  w_u8 w version;
  let section ~len ~count write crc =
    Crc32.combine crc (w_section w ~len ~count write) (24 + len)
  in
  let crc =
    Crc32.bytes ~len:prefix_len w.out
    |> section ~len:header ~count:0 (fun w ->
           w_string w t.workload_name;
           w_i64 w t.ebs_period;
           w_i64 w t.lbr_period)
    |> section ~len:images
         ~count:(List.length t.analysis_images)
         (fun w -> List.iter (w_image w) t.analysis_images)
    |> section ~len:kernel_text
         ~count:(List.length t.live_kernel_text)
         (fun w -> List.iter (w_kernel_text w) t.live_kernel_text)
    |> section ~len:record_bytes ~count (fun w ->
           fold_prefix (fun () r -> w_record w r) () count records)
  in
  (w.out, crc)

let to_bytes t =
  fst (encode t ~records:t.records ~count:(List.length t.records))

(* -- reader -- *)

exception Parse of error

(* A bounded cursor: [limit] caps every read, so a corrupt length in one
   section can never pull bytes from the next one, and no arithmetic
   on attacker-controlled lengths can overflow past the buffer.
   [declared] is where the section's header says its payload ends: past
   [limit] when the payload is cut or not yet buffered, else [limit]. *)
type cursor = { data : bytes; mutable pos : int; limit : int; declared : int }

let cursor data ~pos ~limit = { data; pos; limit; declared = limit }

let remaining c = c.limit - c.pos
let need c n = if n < 0 || n > remaining c then raise (Parse Truncated)

let r_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.data c.pos in
  c.pos <- c.pos + 1;
  v

let r_i64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  if v < 0 then raise (Parse (Corrupt "negative length"));
  v

let r_string c =
  let n = r_i64 c in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let r_bytes c =
  let n = r_i64 c in
  need c n;
  let b = Bytes.sub c.data c.pos n in
  c.pos <- c.pos + n;
  b

(* Guard a parsed item count against the bytes that could possibly back
   it (every item needs at least [min_item_size] bytes), so a flipped
   count field raises a typed error instead of attempting a giant
   allocation.  A count the declared payload could hold but the bytes
   present cannot is a cut, not a corruption.  A negative count (a
   varint with bit 62 set) is corrupt. *)
let check_count c n ~min_item_size =
  if n < 0 then raise (Parse (Corrupt "negative count"));
  if min_item_size > 0 && n > remaining c / min_item_size then
    raise
      (Parse
         (if n <= (c.declared - c.pos) / min_item_size then Truncated
          else Corrupt (Printf.sprintf "implausible count %d" n)));
  n

let r_count c ~min_item_size = check_count c (r_i64 c) ~min_item_size

(* An unsigned LEB128 varint of at most nine bytes (63 bits).  Only the
   shortest encoding is accepted, so every value has one encoding: a
   last byte of 0 after others is overlong, and a ninth byte that asks
   for a tenth overflows. *)
let rec r_uvarint_at c pos acc shift =
  if pos >= c.limit then raise (Parse Truncated);
  let b = Bytes.get_uint8 c.data pos in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then begin
    if b = 0 && shift > 0 then raise (Parse (Corrupt "overlong varint"));
    c.pos <- pos + 1;
    acc
  end
  else if shift = 56 then raise (Parse (Corrupt "varint overflows 63 bits"))
  else r_uvarint_at c (pos + 1) acc (shift + 7)

let r_uvarint c = r_uvarint_at c c.pos 0 0

(* [prev] plus a zigzag delta.  An address below 0 is corrupt, as a
   negative 8-byte field always was; since [prev] is not negative, a
   sum that wraps past [max_int] lands below 0 too. *)
let r_address c ~prev =
  let a = prev + unzigzag (r_uvarint c) in
  if a < 0 then raise (Parse (Corrupt "negative address"));
  a

let r_list c ?(min_item_size = 1) f =
  let n = r_count c ~min_item_size in
  List.init n (fun _ -> f c)

let r_ring c =
  match r_u8 c with
  | 0 -> Ring.User
  | 1 -> Ring.Kernel
  | v -> raise (Parse (Corrupt (Printf.sprintf "ring tag %d" v)))

let r_image c =
  let name = r_string c in
  let base = r_i64 c in
  let ring = r_ring c in
  let code = r_bytes c in
  let symbols =
    r_list c ~min_item_size:24 (fun c ->
        let name = r_string c in
        let addr = r_i64 c in
        let size = r_i64 c in
        Symbol.make ~name ~addr ~size)
  in
  Image.make ~name ~base ~code ~symbols ~ring

let r_kernel_text c =
  let name = r_string c in
  let code = r_bytes c in
  (name, code)

(* The encoded event names, for matching a sample's event in place
   against the archive bytes: no string is allocated per record. *)
let event_names =
  Array.of_list (List.map (fun e -> (Pmu_event.to_string e, e)) Pmu_event.all)

let rec name_at data pos name i =
  i = String.length name
  || (Bytes.get data (pos + i) = name.[i] && name_at data pos name (i + 1))

let rec event_at data pos n k =
  if k = Array.length event_names then
    raise (Parse (Corrupt ("event " ^ Bytes.sub_string data pos n)))
  else
    let name, e = event_names.(k) in
    if String.length name = n && name_at data pos name 0 then e
    else event_at data pos n (k + 1)

let r_event c =
  let n = r_i64 c in
  need c n;
  let e = event_at c.data c.pos n 0 in
  c.pos <- c.pos + n;
  e

(* Where a sample's LBR entries are decoded: one array per entry count,
   reused by every sample of that count, so a clean stream allocates
   one array per count it holds rather than one per sample.  Counts
   past any LBR's depth, which only a damaged archive declares, get a
   fresh array instead of a table slot. *)
let scratch_depth = 64

let scratch_for (t : Lbr.snapshot array) n =
  if n >= scratch_depth then Array.make (2 * n) 0
  else begin
    if Array.length t.(n) <> 2 * n then t.(n) <- Array.make (2 * n) 0;
    t.(n)
  end

(* Every entry takes at least two one-byte varints. *)
let r_lbr scratch c ~ip =
  let n = check_count c (r_uvarint c) ~min_item_size:2 in
  let e = scratch_for scratch n in
  let prev = ref ip in
  for k = 0 to n - 1 do
    let src = r_address c ~prev:!prev in
    let tgt = r_address c ~prev:src in
    e.(2 * k) <- src;
    e.((2 * k) + 1) <- tgt;
    prev := tgt
  done;
  e

type consumer = {
  sample : Pmu_event.t -> int -> Ring.t -> int -> Lbr.snapshot -> unit;
  other : Record.t -> unit;
}

(* The one record parser: parse the record at [c] whole, then hand it to
   [k] — a sample field by field, with its entries in [scratch], any
   other record built.  A record that fails to parse hands nothing. *)
let r_record scratch c k =
  match r_u8 c with
  | 0 ->
      let pid = r_i64 c in
      let name = r_string c in
      k.other (Record.Comm { pid; name })
  | 1 ->
      let addr = r_i64 c in
      let len = r_i64 c in
      let name = r_string c in
      let ring = r_ring c in
      k.other (Record.Mmap { addr; len; name; ring })
  | 2 ->
      let parent = r_i64 c in
      let child = r_i64 c in
      k.other (Record.Fork { parent; child })
  | 3 ->
      let event = r_event c in
      let ip = r_i64 c in
      let ring = r_ring c in
      let time = r_i64 c in
      let lbr = r_lbr scratch c ~ip in
      k.sample event ip ring time lbr
  | 4 -> k.other (Record.Lost (r_i64 c))
  | tag -> raise (Parse (Corrupt (Printf.sprintf "record tag %d" tag)))

let records_fault ~expected ~salvaged = function
  | Truncated -> Truncated_records { expected; salvaged }
  | Corrupt reason -> Corrupt_records { index = salvaged; reason; salvaged }
  | Bad_magic | Bad_version _ ->
      Corrupt_records { index = salvaged; reason = "malformed"; salvaged }

(* -- byte sources and section readers -- *)

(* These stay outside [Stream]: its module block is allocated at
   start-up, and with them inside it falls in a size class of its own,
   one more 32 KiB pool of peak heap in every process. *)

(* Where the archive's bytes come from.  [input buf off len] reads at
   most [len] bytes into [buf] and returns how many, 0 at the end;
   [left] counts the bytes not yet read. *)
type source = {
  input : bytes -> int -> int -> int;
  close : unit -> unit;
  mutable left : int;
}

let channel_source ic =
  match in_channel_length ic with
  | left -> { input = input ic; close = (fun () -> close_in_noerr ic); left }
  | exception e ->
      close_in_noerr ic;
      raise e

let bytes_source data =
  let pos = ref 0 in
  {
    input =
      (fun buf off len ->
        let n = min len (Bytes.length data - !pos) in
        Bytes.blit data !pos buf off n;
        pos := !pos + n;
        n);
    close = ignore;
    left = Bytes.length data;
  }

let read src buf off len =
  let n = src.input buf off len in
  src.left <- src.left - n;
  n

(* The next [n] bytes, or as many as are left. *)
let take src n =
  let b = Bytes.create (min n src.left) in
  let rec fill off =
    if off < Bytes.length b then
      match read src b off (Bytes.length b - off) with
      | 0 -> raise (Parse Truncated) (* the file shrank under us *)
      | k -> fill (off + k)
  in
  fill 0;
  b

let take_cursor src n =
  let b = take src n in
  cursor b ~pos:0 ~limit:(Bytes.length b)

(* A section header: payload length, item count, payload CRC-32. *)
let r_section_header src =
  let c = take_cursor src 24 in
  let len = r_i64 c in
  let count = r_i64 c in
  let crc = r_i64 c in
  (len, count, crc)

(* Metadata sections (header, images, kernel text) must be complete and
   checksum-clean: without intact images there is nothing to analyze. *)
let r_metadata src ~section parse =
  let len, count, crc = r_section_header src in
  if len > src.left then raise (Parse Truncated);
  let payload = take src len in
  if Crc32.bytes payload <> crc then
    raise (Parse (Corrupt (section_name section ^ " checksum mismatch")));
  parse (cursor payload ~pos:0 ~limit:len) count

let r_prefix src =
  let c = take_cursor src prefix_len in
  let n = String.length magic in
  need c n;
  if not (String.equal (Bytes.sub_string c.data 0 n) magic) then
    raise (Parse Bad_magic);
  c.pos <- n;
  match r_u8 c with
  | v when v = version -> ()
  | v -> raise (Parse (Bad_version v))

(* ------------------------------------------------------------------ *)
(* Sharded writing                                                     *)

(* "trace.hbbp" → "trace.0of3.hbbp"; extensionless names get the shard
   tag appended.  A single shard is the archive itself. *)
let shard_path path index shards =
  if shards = 1 then path
  else
    let ext = Filename.extension path in
    let stem = if ext = "" then path else Filename.remove_extension path in
    Printf.sprintf "%s.%dof%d%s" stem index shards ext

type shard = { shard_path : string; data : bytes; entry : Manifest.shard }

(* Slice [i] of [shards] holds records [i * n / shards] up to
   [(i + 1) * n / shards]: each slice is kept as the tail of the record
   list where it starts, and its length, so no slice is copied. *)
let shard_encoder t ~shards ~path =
  if shards < 1 then invalid_arg "Perf_data.shard_encoder: shards < 1";
  let n = List.length t.records in
  let slices = Array.make shards (t.records, n) in
  let rest = ref t.records in
  for i = 0 to shards - 1 do
    let lo = i * n / shards and hi = (i + 1) * n / shards in
    slices.(i) <- (!rest, hi - lo);
    for _ = lo to hi - 1 do
      rest := List.tl !rest
    done
  done;
  fun i ->
    let records, count = slices.(i) in
    let p = shard_path path i shards in
    let encoded, crc = encode t ~records ~count in
    (* An armed archive-fault plan damages the bytes after encoding;
       only then does the manifest's CRC read them again. *)
    let data = Faults.mangle_archive encoded in
    let crc32 = if data == encoded then crc else Crc32.bytes data in
    {
      shard_path = p;
      data;
      entry =
        { Manifest.index = i; file = Filename.basename p;
          size = Bytes.length data; crc32 };
    }

(* Durable publication: tmp + fsync + rename, so a kill at any byte
   offset leaves the previous archive (or nothing) — never a torn
   file.  Archive faults (bit flips / truncation) were applied to the
   encoded bytes: they model damage to the data, not to the write path
   (that is the io.* family, injected inside Durable itself). *)
let save t ~path =
  let s = shard_encoder t ~shards:1 ~path 0 in
  Hbbp_durable.Durable.write_bytes ~path s.data

let sharded_bytes t ~shards ~path =
  let shard = shard_encoder t ~shards ~path in
  List.init shards (fun i ->
      let s = shard i in
      (s.shard_path, s.data))

(* Each shard is encoded, published and dropped before the next is
   encoded.  One progressive rewrite of the manifest per shard would
   also be correct; a plain [save_sharded] is not resumable, so a
   single complete manifest at the end records the collection for
   later verification. *)
let save_sharded t ~shards ~path =
  let shard = shard_encoder t ~shards ~path in
  let published =
    List.init shards (fun i ->
        let s = shard i in
        Hbbp_durable.Durable.write_bytes ~path:s.shard_path s.data;
        (s.shard_path, s.entry))
  in
  Manifest.save
    {
      Manifest.label = t.workload_name;
      shards;
      written = List.map snd published;
      complete = true;
    }
    ~archive_path:path;
  List.map fst published

(* ------------------------------------------------------------------ *)
(* The reader: one stream over a file or over bytes in memory          *)

module Stream = struct
  type nonrec consumer = consumer = {
    sample : Pmu_event.t -> int -> Ring.t -> int -> Lbr.snapshot -> unit;
    other : Record.t -> unit;
  }

  let default_chunk_records = 256

  (* Refill granularity of the pending buffer (it grows as needed when a
     single record straddles more than this). *)
  let read_block = 1 lsl 16

  type stream = {
    meta : t;  (** [records = []]. *)
    chunk_records : int;
    src : source;
    mutable buf : bytes;  (** Pending (read but unparsed) payload bytes. *)
    mutable b_start : int;
    mutable b_stop : int;
    mutable crc : Crc32.state;
    crc_declared : int;
    len : int;  (** Declared payload length. *)
    avail : int;  (** Payload bytes present in the source. *)
    expected : int;  (** Declared record count. *)
    mutable fed : int;  (** Payload bytes read from the source. *)
    mutable emitted : int;  (** Records handed out so far. *)
    mutable s_ledger : fault list option;
        (** [Some] exactly when the stream is finished. *)
    scratch : Lbr.snapshot array;  (** [scratch_for]'s table. *)
  }

  let meta s = s.meta

  let refill s =
    if s.fed >= s.avail then false
    else begin
      if s.b_start > 0 then begin
        Bytes.blit s.buf s.b_start s.buf 0 (s.b_stop - s.b_start);
        s.b_stop <- s.b_stop - s.b_start;
        s.b_start <- 0
      end;
      if s.b_stop = Bytes.length s.buf then begin
        let grown = Bytes.create (2 * Bytes.length s.buf) in
        Bytes.blit s.buf 0 grown 0 s.b_stop;
        s.buf <- grown
      end;
      let want = min (Bytes.length s.buf - s.b_stop) (s.avail - s.fed) in
      let n = read s.src s.buf s.b_stop want in
      if n = 0 then false (* the file shrank under us *)
      else begin
        s.crc <- Crc32.update s.crc ~off:s.b_stop ~len:n s.buf;
        s.b_stop <- s.b_stop + n;
        s.fed <- s.fed + n;
        true
      end
    end

  (* Pull the payload bytes never buffered through the CRC, dropping
     the pending ones, so the checksum verdict covers the whole
     section. *)
  let rec drain s =
    s.b_start <- s.b_stop;
    if refill s then drain s

  (* The ledger: a records-section checksum mismatch first (decidable
     only for a complete section), then the fault that ended the salvage
     or, when every declared record parsed but the payload was cut short,
     that truncation. *)
  let finish s fault =
    drain s;
    let complete = s.avail = s.len in
    let checksum =
      if complete && Crc32.finish s.crc <> s.crc_declared then
        [ Checksum_mismatch Records ]
      else []
    in
    let ended =
      match fault with
      | Some f -> [ f ]
      | None when not complete ->
          [ Truncated_records
              { expected = Some s.expected; salvaged = s.emitted } ]
      | None -> []
    in
    s.s_ledger <- Some (checksum @ ended)

  (* Parse up to [chunk_records] records out of the pending buffer,
     handing each to [k], refilling on demand.  A parse failure is final
     only once the rest of the payload is buffered: the cursor then ends
     where the section's bytes do, so where a record is cut or corrupt
     does not depend on the refill size. *)
  let fold s k =
    if Option.is_some s.s_ledger then 0
    else begin
      (* One cursor over the pending bytes, rebuilt only after a refill
         (which moves or replaces the buffer). *)
      let pending () =
        { data = s.buf; pos = s.b_start; limit = s.b_stop;
          declared = s.b_stop + s.len - s.fed }
      in
      let cur = ref (pending ()) in
      let n_out = ref 0 in
      while Option.is_none s.s_ledger && !n_out < s.chunk_records do
        if s.emitted >= s.expected then finish s None
        else
          match r_record s.scratch !cur k with
          | () ->
              s.b_start <- !cur.pos;
              s.emitted <- s.emitted + 1;
              incr n_out
          | exception Parse e ->
              if refill s then cur := pending ()
              else
                finish s
                  (Some
                     (records_fault ~expected:(Some s.expected)
                        ~salvaged:s.emitted e))
      done;
      !n_out
    end

  let at_end s = Option.is_some s.s_ledger || s.emitted >= s.expected

  (* The consumer that builds the records, each sample with its own
     copy of the scratch entries. *)
  let next s =
    let out = ref [] in
    let k =
      {
        sample =
          (fun event ip ring time lbr ->
            let lbr = Array.copy lbr in
            out := Record.Sample { Record.event; ip; lbr; ring; time } :: !out);
        other = (fun r -> out := r :: !out);
      }
    in
    if fold s k = 0 then None else Some (List.rev !out)

  (* Complete once the stream is finished; calling it earlier drains the
     remaining records. *)
  let rec ledger s =
    match s.s_ledger with
    | Some l -> l
    | None ->
        ignore (next s);
        ledger s

  let close s = s.src.close ()

  (* -- opening -- *)

  (* The prefix, the metadata and the records section's header; the
     records are left for [next].  The records section is salvageable:
     an unreadable header (cut or malformed) gives a finished, empty
     stream.  The source is closed on every failure. *)
  let open_source ~chunk_records src =
    match
      r_prefix src;
      let workload_name, ebs_period, lbr_period =
        r_metadata src ~section:Header (fun c _ ->
            let workload_name = r_string c in
            let ebs_period = r_i64 c in
            (workload_name, ebs_period, r_i64 c))
      in
      let analysis_images =
        r_metadata src ~section:Images (fun c count ->
            List.init count (fun _ -> r_image c))
      in
      let live_kernel_text =
        r_metadata src ~section:Kernel_text (fun c count ->
            List.init count (fun _ -> r_kernel_text c))
      in
      let len, expected, crc_declared, s_ledger =
        match r_section_header src with
        | len, expected, crc -> (len, expected, crc, None)
        | exception Parse _ ->
            let cut = Truncated_records { expected = None; salvaged = 0 } in
            (0, 0, 0, Some [ cut ])
      in
      {
        meta =
          { workload_name; ebs_period; lbr_period; analysis_images;
            live_kernel_text; records = [] };
        chunk_records;
        src;
        buf = Bytes.create read_block;
        b_start = 0;
        b_stop = 0;
        crc = Crc32.init ();
        crc_declared;
        len;
        avail = min len src.left;
        expected;
        fed = 0;
        emitted = 0;
        s_ledger;
        scratch = Array.make scratch_depth [||];
      }
    with
    | s -> Ok s
    | exception e -> (
        src.close ();
        match e with Parse e -> Error e | e -> raise e)

  (* A [Sys_error] raised once the file is open (not a regular file, a
     read error) names the path, as [open_in_bin]'s own does.  The kind
     is checked first: a directory opens, but its length is
     meaningless. *)
  let open_file ?(chunk_records = default_chunk_records) path =
    if chunk_records < 1 then
      invalid_arg "Perf_data.Stream.open_file: chunk_records < 1";
    let ic = open_in_bin path in
    let fail msg =
      close_in_noerr ic;
      raise (Sys_error (path ^ ": " ^ msg))
    in
    match (Unix.fstat (Unix.descr_of_in_channel ic)).Unix.st_kind with
    | Unix.S_REG -> (
        try open_source ~chunk_records (channel_source ic)
        with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg)))
    | Unix.S_DIR -> fail "is a directory"
    | _ -> fail "not a regular file"
    | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
end

(* A whole archive is one fold over the stream: every record in one
   chunk, then the ledger. *)
let read_all = function
  | Error _ as e -> e
  | Ok s ->
      Fun.protect ~finally:(fun () -> Stream.close s) @@ fun () ->
      let records = Option.value (Stream.next s) ~default:[] in
      let ledger = Stream.ledger s in
      Ok { archive = { (Stream.meta s) with records }; ledger }

let of_bytes data =
  read_all
    (Stream.open_source ~chunk_records:max_int (bytes_source data))

let load ~path = read_all (Stream.open_file ~chunk_records:max_int path)
