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

let of_session ~workload_name ~session ~analysis ~live =
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
    records = Session.records session live ~pid:1 ~name:workload_name;
  }

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

(* Version 2: length-prefixed primitives grouped into four sections —
   header, images, kernel text, records — each preceded by (payload
   length, item count, CRC-32).  Readers can verify integrity before
   parsing and salvage the record stream independently of the
   metadata. *)
let version = 2

(* -- writer -- *)

let w_u8 buf v = Buffer.add_uint8 buf (v land 0xff)
let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let w_string buf s =
  w_i64 buf (String.length s);
  Buffer.add_string buf s

let w_bytes buf b =
  w_i64 buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_list buf f items =
  w_i64 buf (List.length items);
  List.iter (f buf) items

let w_ring buf = function Ring.User -> w_u8 buf 0 | Ring.Kernel -> w_u8 buf 1

let w_image buf (img : Image.t) =
  w_string buf img.name;
  w_i64 buf img.base;
  w_ring buf img.ring;
  w_bytes buf img.code;
  w_list buf
    (fun buf (s : Symbol.t) ->
      w_string buf s.name;
      w_i64 buf s.addr;
      w_i64 buf s.size)
    img.symbols

let w_event buf e = w_string buf (Pmu_event.to_string e)

let w_record buf (r : Record.t) =
  match r with
  | Record.Comm { pid; name } ->
      w_u8 buf 0;
      w_i64 buf pid;
      w_string buf name
  | Record.Mmap { addr; len; name; ring } ->
      w_u8 buf 1;
      w_i64 buf addr;
      w_i64 buf len;
      w_string buf name;
      w_ring buf ring
  | Record.Fork { parent; child } ->
      w_u8 buf 2;
      w_i64 buf parent;
      w_i64 buf child
  | Record.Sample s ->
      w_u8 buf 3;
      w_event buf s.Record.event;
      w_i64 buf s.Record.ip;
      w_ring buf s.Record.ring;
      w_i64 buf s.Record.time;
      (* Entry count, then each entry's source and target: the flat
         snapshot's own interleaved order. *)
      w_i64 buf (Lbr.entries s.Record.lbr);
      Array.iter (w_i64 buf) s.Record.lbr
  | Record.Lost n ->
      w_u8 buf 4;
      w_i64 buf n

let w_header_payload buf t =
  w_string buf t.workload_name;
  w_i64 buf t.ebs_period;
  w_i64 buf t.lbr_period

let w_kernel_text buf (name, code) =
  w_string buf name;
  w_bytes buf code

(* A section: payload length, item count, CRC-32 of the payload,
   then the payload itself. *)
let w_section buf ~count payload =
  let p = Buffer.contents payload in
  w_i64 buf (String.length p);
  w_i64 buf count;
  w_i64 buf (Crc32.string p);
  Buffer.add_string buf p

let to_bytes t =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  w_u8 buf version;
  let payload f =
    let b = Buffer.create 4096 in
    f b;
    b
  in
  w_section buf ~count:0 (payload (fun b -> w_header_payload b t));
  w_section buf
    ~count:(List.length t.analysis_images)
    (payload (fun b -> List.iter (w_image b) t.analysis_images));
  w_section buf
    ~count:(List.length t.live_kernel_text)
    (payload (fun b -> List.iter (w_kernel_text b) t.live_kernel_text));
  w_section buf
    ~count:(List.length t.records)
    (payload (fun b -> List.iter (w_record b) t.records));
  Buffer.to_bytes buf

(* -- reader -- *)

exception Parse of error

(* A bounded cursor: [limit] caps every read, so a corrupt length in one
   section can never pull bytes from the next one, and no arithmetic
   on attacker-controlled lengths can overflow past the buffer.
   [declared] is where the section's header says its payload ends: past
   [limit] when the payload is physically cut (or, while streaming, not
   yet buffered), else [limit]. *)
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
   present cannot is a cut, not a corruption. *)
let r_count c ~min_item_size =
  let n = r_i64 c in
  if min_item_size > 0 && n > remaining c / min_item_size then
    raise
      (Parse
         (if n <= (c.declared - c.pos) / min_item_size then Truncated
          else Corrupt (Printf.sprintf "implausible count %d" n)));
  n

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

let r_record c =
  match r_u8 c with
  | 0 ->
      let pid = r_i64 c in
      let name = r_string c in
      Record.Comm { pid; name }
  | 1 ->
      let addr = r_i64 c in
      let len = r_i64 c in
      let name = r_string c in
      let ring = r_ring c in
      Record.Mmap { addr; len; name; ring }
  | 2 ->
      let parent = r_i64 c in
      let child = r_i64 c in
      Record.Fork { parent; child }
  | 3 ->
      let event = r_event c in
      let ip = r_i64 c in
      let ring = r_ring c in
      let time = r_i64 c in
      let n = r_count c ~min_item_size:16 in
      let lbr = Array.make (2 * n) 0 in
      for k = 0 to (2 * n) - 1 do
        lbr.(k) <- r_i64 c
      done;
      Record.Sample { Record.event; ip; lbr; ring; time }
  | 4 -> Record.Lost (r_i64 c)
  | tag -> raise (Parse (Corrupt (Printf.sprintf "record tag %d" tag)))

(* Salvage loop: read up to [expected] records, keeping the parseable
   prefix.  Returns the records, how many were salvaged and the error
   that ended the walk (if any). *)
let r_records_salvage c ~expected =
  let rec go acc i =
    if i >= expected then (List.rev acc, i, None)
    else
      match r_record c with
      | r -> go (r :: acc) (i + 1)
      | exception Parse e -> (List.rev acc, i, Some e)
  in
  go [] 0

let records_fault ~expected ~salvaged = function
  | Truncated -> Truncated_records { expected; salvaged }
  | Corrupt reason -> Corrupt_records { index = salvaged; reason; salvaged }
  | Bad_magic | Bad_version _ ->
      Corrupt_records { index = salvaged; reason = "malformed"; salvaged }

(* Read one section header and return a cursor bounded to its payload,
   plus the declared item count and integrity flags.  [complete] is
   false when the payload itself is cut short. *)
let r_section c =
  let len = r_i64 c in
  let count = r_i64 c in
  let crc = r_i64 c in
  let avail = min len (remaining c) in
  let complete = avail = len in
  let crc_ok = complete && Crc32.bytes ~off:c.pos ~len c.data = crc in
  let sub =
    { data = c.data; pos = c.pos; limit = c.pos + avail;
      declared = c.pos + len }
  in
  c.pos <- c.pos + avail;
  (sub, count, complete, crc_ok)

(* Metadata sections (header, images, kernel text) must be complete and
   checksum-clean: without intact images there is nothing to analyze. *)
let r_meta_section c ~section parse =
  let sub, count, complete, crc_ok = r_section c in
  if not complete then raise (Parse Truncated);
  if not crc_ok then
    raise (Parse (Corrupt (section_name section ^ " checksum mismatch")));
  parse sub count

let of_cursor c =
  let workload_name = ref "" and ebs_period = ref 0 and lbr_period = ref 0 in
  r_meta_section c ~section:Header (fun sub _ ->
      workload_name := r_string sub;
      ebs_period := r_i64 sub;
      lbr_period := r_i64 sub);
  let analysis_images =
    r_meta_section c ~section:Images (fun sub count ->
        List.init count (fun _ -> r_image sub))
  in
  let live_kernel_text =
    r_meta_section c ~section:Kernel_text (fun sub count ->
        List.init count (fun _ -> r_kernel_text sub))
  in
  (* The records section is salvageable: a truncated or corrupt stream
     yields its parseable prefix plus a ledger, never a failure. *)
  let ledger = ref [] in
  let records =
    match r_section c with
    | exception Parse _ ->
        ledger := [ Truncated_records { expected = None; salvaged = 0 } ];
        []
    | sub, expected, complete, crc_ok -> (
        if complete && not crc_ok then
          ledger := [ Checksum_mismatch Records ];
        let records, salvaged, err = r_records_salvage sub ~expected in
        match err with
        | None ->
            if not complete then
              ledger :=
                Truncated_records { expected = Some expected; salvaged }
                :: !ledger;
            records
        | Some e ->
            ledger :=
              records_fault ~expected:(Some expected) ~salvaged e :: !ledger;
            records)
  in
  {
    archive =
      { workload_name = !workload_name; ebs_period = !ebs_period;
        lbr_period = !lbr_period; analysis_images; live_kernel_text; records };
    ledger = List.rev !ledger;
  }

let of_bytes data =
  try
    if Bytes.length data < String.length magic then raise (Parse Truncated);
    if
      not (String.equal (Bytes.sub_string data 0 (String.length magic)) magic)
    then raise (Parse Bad_magic);
    let c =
      cursor data ~pos:(String.length magic) ~limit:(Bytes.length data)
    in
    match r_u8 c with
    | v when v = version -> Ok (of_cursor c)
    | v -> raise (Parse (Bad_version v))
  with Parse e -> Error e

(* Durable publication: tmp + fsync + rename, so a kill at any byte
   offset leaves the previous archive (or nothing) — never a torn
   file.  Archive faults (bit flips / truncation) are applied to the
   serialized bytes first, exactly as before: they model damage to the
   data, not to the write path (that is the io.* family, injected
   inside Durable itself). *)
let save t ~path =
  let data = Faults.mangle_archive (to_bytes t) in
  Hbbp_durable.Durable.write_bytes ~path data

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let data = Bytes.create n in
      really_input ic data 0 n;
      of_bytes data)

(* ------------------------------------------------------------------ *)
(* Sharded writing                                                     *)

(* "trace.hbbp" → "trace.0of3.hbbp"; extensionless names get the shard
   tag appended. *)
let shard_path path index shards =
  let ext = Filename.extension path in
  let stem = if ext = "" then path else Filename.remove_extension path in
  Printf.sprintf "%s.%dof%d%s" stem index shards ext

(* The exact bytes each shard would hold on disk (mangled per the
   armed archive-fault plan, like [save]) without writing anything —
   the unit of work resumable collection compares and publishes. *)
let sharded_bytes t ~shards ~path =
  if shards < 1 then invalid_arg "Perf_data.sharded_bytes: shards < 1";
  if shards = 1 then [ (path, Faults.mangle_archive (to_bytes t)) ]
  else begin
    let records = Array.of_list t.records in
    let n = Array.length records in
    List.init shards (fun i ->
        let lo = i * n / shards and hi = (i + 1) * n / shards in
        let slice = Array.to_list (Array.sub records lo (hi - lo)) in
        ( shard_path path i shards,
          Faults.mangle_archive (to_bytes { t with records = slice })
        ))
  end

let save_sharded t ~shards ~path =
  let parts = sharded_bytes t ~shards ~path in
  let written =
    List.mapi
      (fun i (p, data) ->
        Hbbp_durable.Durable.write_bytes ~path:p data;
        Manifest.shard_of_bytes ~index:i ~file:(Filename.basename p) data)
      parts
  in
  (* One progressive rewrite per shard would also be correct; a plain
     [save_sharded] is not resumable, so a single complete manifest at
     the end records the collection for later verification. *)
  Manifest.save
    {
      Manifest.label = t.workload_name;
      shards;
      written;
      complete = true;
    }
    ~archive_path:path;
  List.map fst parts

(* ------------------------------------------------------------------ *)
(* Chunked streaming reader                                            *)

module Stream = struct
  let default_chunk_records = 256

  (* Refill granularity of the pending buffer (it grows as needed when a
     single record straddles more than this). *)
  let read_block = 1 lsl 16

  type chunked = {
    ic : in_channel;
    mutable buf : bytes;  (** Pending (read but unparsed) payload bytes. *)
    mutable b_start : int;
    mutable b_stop : int;
    mutable crc : Hbbp_util.Crc32.state;
    crc_declared : int;
    len : int;  (** Declared payload length. *)
    avail : int;  (** Payload bytes physically present in the file. *)
    expected : int;  (** Declared record count. *)
    mutable fed : int;  (** Payload bytes consumed from the file. *)
    mutable emitted : int;  (** Records handed out so far. *)
    mutable parse_fault : fault option;
    mutable finished : bool;
  }

  type stream = {
    meta : t;  (** [records = []]. *)
    chunk_records : int;
    mutable s_ledger : fault list option;  (** [Some] once known. *)
    source : chunked;
  }

  let meta s = s.meta

  (* -- byte plumbing for the chunked source -- *)

  let refill (c : chunked) =
    if c.fed >= c.avail then false
    else begin
      if c.b_start > 0 then begin
        Bytes.blit c.buf c.b_start c.buf 0 (c.b_stop - c.b_start);
        c.b_stop <- c.b_stop - c.b_start;
        c.b_start <- 0
      end;
      if c.b_stop = Bytes.length c.buf then begin
        let grown = Bytes.create (2 * Bytes.length c.buf) in
        Bytes.blit c.buf 0 grown 0 c.b_stop;
        c.buf <- grown
      end;
      let want = min (Bytes.length c.buf - c.b_stop) (c.avail - c.fed) in
      let n = input c.ic c.buf c.b_stop want in
      if n = 0 then false (* file shrank under us; treat as exhausted *)
      else begin
        c.crc <- Hbbp_util.Crc32.update c.crc ~off:c.b_stop ~len:n c.buf;
        c.b_stop <- c.b_stop + n;
        c.fed <- c.fed + n;
        true
      end
    end

  (* Pull any payload bytes we never buffered through the CRC so the
     checksum verdict covers the whole section, exactly like the batch
     reader's whole-payload CRC. *)
  let drain (c : chunked) =
    if c.fed < c.avail then begin
      let scratch = Bytes.create read_block in
      let rec go () =
        if c.fed < c.avail then begin
          let n = input c.ic scratch 0 (min read_block (c.avail - c.fed)) in
          if n > 0 then begin
            c.crc <- Hbbp_util.Crc32.update c.crc ~off:0 ~len:n scratch;
            c.fed <- c.fed + n;
            go ()
          end
        end
      in
      go ()
    end

  (* Final ledger, reproducing the batch reader's entries and order:
     a records-section checksum mismatch first (only decidable for a
     complete section), then the salvage fault — or, when every declared
     record parsed but the payload was physically cut short, the
     truncation entry the batch reader records for that case. *)
  let finish (c : chunked) =
    drain c;
    c.finished <- true;
    let crc_ok = Hbbp_util.Crc32.finish c.crc = c.crc_declared in
    let checksum =
      if c.avail = c.len && not crc_ok then [ Checksum_mismatch Records ]
      else []
    in
    checksum
    @
    match c.parse_fault with
    | Some f -> [ f ]
    | None ->
        if c.avail < c.len && c.emitted >= c.expected then
          [ Truncated_records
              { expected = Some c.expected; salvaged = c.emitted } ]
        else []

  (* Parse up to [limit] records out of the pending buffer, refilling on
     demand.  A parse failure is only classified once the entire
     remaining payload is buffered — at that point the cursor sees
     exactly the bytes the batch reader would, so the fault (and the
     salvaged prefix) match [of_bytes] verbatim. *)
  let next_chunked (s : stream) (c : chunked) =
    if c.finished then None
    else begin
      (* One cursor over the pending bytes, rebuilt only after a refill
         (which moves or replaces the buffer). *)
      let pending () =
        { data = c.buf; pos = c.b_start; limit = c.b_stop;
          declared = c.b_stop + c.len - c.fed }
      in
      let cur = ref (pending ()) in
      let out = ref [] and n_out = ref 0 in
      let finished = ref false in
      while (not !finished) && !n_out < s.chunk_records do
        if c.emitted >= c.expected then begin
          s.s_ledger <- Some (finish c);
          finished := true
        end
        else begin
          match r_record !cur with
          | r ->
              c.b_start <- !cur.pos;
              c.emitted <- c.emitted + 1;
              out := r :: !out;
              incr n_out
          | exception Parse e ->
              if refill c then cur := pending ()
              else begin
                c.parse_fault <-
                  Some
                    (records_fault ~expected:(Some c.expected)
                       ~salvaged:c.emitted e);
                s.s_ledger <- Some (finish c);
                finished := true
              end
        end
      done;
      match List.rev !out with [] -> None | chunk -> Some chunk
    end

  let next s = next_chunked s s.source

  (* The ledger is complete once the stream is exhausted; calling it
     earlier drains the remaining records. *)
  let ledger s =
    match s.s_ledger with
    | Some l -> l
    | None ->
        let rec drain_all () =
          match next s with Some _ -> drain_all () | None -> ()
        in
        drain_all ();
        (match s.s_ledger with Some l -> l | None -> [])

  let close s = close_in s.source.ic

  (* -- opening -- *)

  let read_exactly ic n =
    let b = Bytes.create n in
    really_input ic b 0 n;
    b

  (* A metadata section, streamed: header, bounded payload, CRC
     verdict — same rules as the batch [r_meta_section] (must be
     complete and checksum-clean). *)
  let r_meta_section_stream ic ~total ~section parse =
    let left = total - pos_in ic in
    if left < 24 then raise (Parse Truncated);
    let hdr = read_exactly ic 24 in
    let hc = cursor hdr ~pos:0 ~limit:24 in
    let len = r_i64 hc in
    let count = r_i64 hc in
    let crc = r_i64 hc in
    if len > total - pos_in ic then raise (Parse Truncated);
    let payload = read_exactly ic len in
    if Crc32.bytes payload <> crc then
      raise (Parse (Corrupt (section_name section ^ " checksum mismatch")));
    parse (cursor payload ~pos:0 ~limit:len) count

  let open_sections ic ~total ~chunk_records =
    let workload_name = ref "" and ebs_period = ref 0 and lbr_period = ref 0 in
    r_meta_section_stream ic ~total ~section:Header (fun sub _ ->
        workload_name := r_string sub;
        ebs_period := r_i64 sub;
        lbr_period := r_i64 sub);
    let analysis_images =
      r_meta_section_stream ic ~total ~section:Images (fun sub count ->
          List.init count (fun _ -> r_image sub))
    in
    let live_kernel_text =
      r_meta_section_stream ic ~total ~section:Kernel_text (fun sub count ->
          List.init count (fun _ -> r_kernel_text sub))
    in
    let meta =
      { workload_name = !workload_name; ebs_period = !ebs_period;
        lbr_period = !lbr_period; analysis_images; live_kernel_text;
        records = [] }
    in
    let chunked ~len ~expected ~crc_declared ~finished =
      {
        ic;
        buf = Bytes.create read_block;
        b_start = 0;
        b_stop = 0;
        crc = Hbbp_util.Crc32.init ();
        crc_declared;
        avail = min len (total - pos_in ic);
        len;
        expected;
        fed = 0;
        emitted = 0;
        parse_fault = None;
        finished;
      }
    in
    (* Records section header: unreadable (truncated or malformed) means
       an already-finished, empty stream with the batch reader's
       ledger. *)
    match
      let left = total - pos_in ic in
      if left < 24 then raise (Parse Truncated);
      let hdr = read_exactly ic 24 in
      let hc = cursor hdr ~pos:0 ~limit:24 in
      let len = r_i64 hc in
      let count = r_i64 hc in
      let crc = r_i64 hc in
      (len, count, crc)
    with
    | exception Parse _ ->
        {
          meta;
          chunk_records;
          s_ledger =
            Some [ Truncated_records { expected = None; salvaged = 0 } ];
          source =
            chunked ~len:0 ~expected:0 ~crc_declared:0 ~finished:true;
        }
    | len, expected, crc_declared ->
        {
          meta;
          chunk_records;
          s_ledger = None;
          source = chunked ~len ~expected ~crc_declared ~finished:false;
        }

  let open_file ?(chunk_records = default_chunk_records) path =
    if chunk_records < 1 then
      invalid_arg "Perf_data.Stream.open_file: chunk_records < 1";
    let ic = open_in_bin path in
    match
      let total = in_channel_length ic in
      if total < String.length magic then raise (Parse Truncated);
      let m = read_exactly ic (String.length magic) in
      if not (String.equal (Bytes.to_string m) magic) then
        raise (Parse Bad_magic);
      if total < String.length magic + 1 then raise (Parse Truncated);
      match input_byte ic with
      | v when v = version -> open_sections ic ~total ~chunk_records
      | v -> raise (Parse (Bad_version v))
    with
    | s -> Ok s
    | exception Parse e ->
        close_in_noerr ic;
        Error e
    | exception End_of_file ->
        close_in_noerr ic;
        Error Truncated
end
