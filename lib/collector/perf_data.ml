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

(* v1: one flat length-prefixed stream, no integrity data.
   v2: the same primitives, but grouped into four sections — header,
   images, kernel text, records — each preceded by (payload length,
   item count, CRC-32).  Readers can verify integrity before parsing
   and salvage the record stream independently of the metadata. *)
let current_version = 2

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
      w_i64 buf (Array.length s.Record.lbr);
      Array.iter
        (fun (e : Lbr.entry) ->
          w_i64 buf e.src;
          w_i64 buf e.tgt)
        s.Record.lbr
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

(* A v2 section: payload length, item count, CRC-32 of the payload,
   then the payload itself. *)
let w_section buf ~count payload =
  let p = Buffer.contents payload in
  w_i64 buf (String.length p);
  w_i64 buf count;
  w_i64 buf (Crc32.string p);
  Buffer.add_string buf p

let to_bytes ?(version = current_version) t =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  w_u8 buf version;
  (match version with
  | 1 ->
      w_header_payload buf t;
      w_list buf w_image t.analysis_images;
      w_list buf w_kernel_text t.live_kernel_text;
      w_list buf w_record t.records
  | 2 ->
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
        (payload (fun b -> List.iter (w_record b) t.records))
  | v -> invalid_arg (Printf.sprintf "Perf_data.to_bytes: unknown version %d" v));
  Buffer.to_bytes buf

(* -- reader -- *)

exception Parse of error

(* A bounded cursor: [limit] caps every read, so a corrupt length in one
   v2 section can never pull bytes from the next one, and no arithmetic
   on attacker-controlled lengths can overflow past the buffer. *)
type cursor = { data : bytes; mutable pos : int; limit : int }

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
   allocation. *)
let r_count c ~min_item_size =
  let n = r_i64 c in
  if min_item_size > 0 && n > remaining c / min_item_size then
    raise (Parse (Corrupt (Printf.sprintf "implausible count %d" n)));
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
      let event_name = r_string c in
      let event =
        match Pmu_event.of_string event_name with
        | Some e -> e
        | None -> raise (Parse (Corrupt ("event " ^ event_name)))
      in
      let ip = r_i64 c in
      let ring = r_ring c in
      let time = r_i64 c in
      let n = r_count c ~min_item_size:16 in
      let lbr =
        Array.init n (fun _ ->
            let src = r_i64 c in
            let tgt = r_i64 c in
            { Lbr.src; tgt })
      in
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

(* -- v1 reader: metadata errors are fatal, the trailing record list is
   salvaged to its parseable prefix -- *)

let of_bytes_v1 c =
  let workload_name = r_string c in
  let ebs_period = r_i64 c in
  let lbr_period = r_i64 c in
  let analysis_images = r_list c ~min_item_size:26 r_image in
  let live_kernel_text = r_list c ~min_item_size:16 r_kernel_text in
  let ledger = ref [] in
  let records =
    match r_count c ~min_item_size:1 with
    | exception Parse e ->
        ledger := [ records_fault ~expected:None ~salvaged:0 e ];
        []
    | expected -> (
        let records, salvaged, err = r_records_salvage c ~expected in
        match err with
        | None -> records
        | Some e ->
            ledger := [ records_fault ~expected:(Some expected) ~salvaged e ];
            records)
  in
  {
    archive =
      { workload_name; ebs_period; lbr_period; analysis_images;
        live_kernel_text; records };
    ledger = !ledger;
  }

(* -- v2 reader -- *)

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
  let sub = { data = c.data; pos = c.pos; limit = c.pos + avail } in
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

let of_bytes_v2 c =
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
      { data; pos = String.length magic; limit = Bytes.length data }
    in
    match r_u8 c with
    | 1 -> Ok (of_bytes_v1 c)
    | 2 -> Ok (of_bytes_v2 c)
    | v -> raise (Parse (Bad_version v))
  with Parse e -> Error e

(* Durable publication: tmp + fsync + rename, so a kill at any byte
   offset leaves the previous archive (or nothing) — never a torn
   file.  Archive faults (bit flips / truncation) are applied to the
   serialized bytes first, exactly as before: they model damage to the
   data, not to the write path (that is the io.* family, injected
   inside Durable itself). *)
let save ?version t ~path =
  let data = Faults.mangle_archive (to_bytes ?version t) in
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
let sharded_bytes ?version t ~shards ~path =
  if shards < 1 then invalid_arg "Perf_data.sharded_bytes: shards < 1";
  if shards = 1 then [ (path, Faults.mangle_archive (to_bytes ?version t)) ]
  else begin
    let records = Array.of_list t.records in
    let n = Array.length records in
    List.init shards (fun i ->
        let lo = i * n / shards and hi = (i + 1) * n / shards in
        let slice = Array.to_list (Array.sub records lo (hi - lo)) in
        ( shard_path path i shards,
          Faults.mangle_archive (to_bytes ?version { t with records = slice })
        ))
  end

let save_sharded ?version t ~shards ~path =
  let parts = sharded_bytes ?version t ~shards ~path in
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

  type source =
    | Buffered of Record.t list ref
        (* v1 fallback: the record list is materialized up front. *)
    | Chunked of chunked

  and chunked = {
    ic : in_channel;
    mutable buf : bytes;  (** Pending (read but unparsed) payload bytes. *)
    mutable b_start : int;
    mutable b_stop : int;
    mutable crc : Hbbp_util.Crc32.state;
    crc_declared : int;
    avail : int;  (** Payload bytes physically present in the file. *)
    complete : bool;  (** [avail = payload_len]. *)
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
    source : source;
  }

  let meta s = s.meta

  (* -- byte plumbing for the chunked (v2) source -- *)

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
      if c.complete && not crc_ok then [ Checksum_mismatch Records ] else []
    in
    checksum
    @
    match c.parse_fault with
    | Some f -> [ f ]
    | None ->
        if (not c.complete) && c.emitted >= c.expected then
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
      let out = ref [] and n_out = ref 0 in
      let finished = ref false in
      while (not !finished) && !n_out < s.chunk_records do
        if c.emitted >= c.expected then begin
          s.s_ledger <- Some (finish c);
          finished := true
        end
        else begin
          let cur = { data = c.buf; pos = c.b_start; limit = c.b_stop } in
          match r_record cur with
          | r ->
              c.b_start <- cur.pos;
              c.emitted <- c.emitted + 1;
              out := r :: !out;
              incr n_out
          | exception Parse e ->
              if not (refill c) then begin
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

  let next s =
    match s.source with
    | Buffered rest -> (
        match !rest with
        | [] -> None
        | records ->
            let rec take acc n rs =
              if n = 0 then (List.rev acc, rs)
              else
                match rs with
                | [] -> (List.rev acc, [])
                | r :: tl -> take (r :: acc) (n - 1) tl
            in
            let chunk, tl = take [] s.chunk_records records in
            rest := tl;
            Some chunk)
    | Chunked c -> next_chunked s c

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

  let close s =
    match s.source with
    | Buffered _ -> ()
    | Chunked c -> close_in c.ic

  (* -- opening -- *)

  let read_exactly ic n =
    let b = Bytes.create n in
    really_input ic b 0 n;
    b

  (* A v2 metadata section, streamed: header, bounded payload, CRC
     verdict — same rules as the batch [r_meta_section] (must be
     complete and checksum-clean). *)
  let r_meta_section_stream ic ~total ~section parse =
    let left = total - pos_in ic in
    if left < 24 then raise (Parse Truncated);
    let hdr = read_exactly ic 24 in
    let hc = { data = hdr; pos = 0; limit = 24 } in
    let len = r_i64 hc in
    let count = r_i64 hc in
    let crc = r_i64 hc in
    if len > total - pos_in ic then raise (Parse Truncated);
    let payload = read_exactly ic len in
    if Crc32.bytes payload <> crc then
      raise (Parse (Corrupt (section_name section ^ " checksum mismatch")));
    parse { data = payload; pos = 0; limit = len } count

  let open_v2 ic ~total ~chunk_records =
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
    (* Records section header: unreadable (truncated or malformed) means
       an empty, fully-faulted stream — same as the batch reader. *)
    match
      let left = total - pos_in ic in
      if left < 24 then raise (Parse Truncated);
      let hdr = read_exactly ic 24 in
      let hc = { data = hdr; pos = 0; limit = 24 } in
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
          source = Buffered (ref []);
        }
    | len, expected, crc_declared ->
        let avail = min len (total - pos_in ic) in
        let c =
          {
            ic;
            buf = Bytes.create read_block;
            b_start = 0;
            b_stop = 0;
            crc = Hbbp_util.Crc32.init ();
            crc_declared;
            avail;
            complete = avail = len;
            expected;
            fed = 0;
            emitted = 0;
            parse_fault = None;
            finished = false;
          }
        in
        { meta; chunk_records; s_ledger = None; source = Chunked c }

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
      | 1 ->
          (* v1 has no section structure to stream: fall back to the
             batch reader and chunk the materialized list.  Memory
             bounding is a v2-only property. *)
          let rest = read_exactly ic (total - pos_in ic) in
          let { archive; ledger } =
            of_bytes_v1 { data = rest; pos = 0; limit = Bytes.length rest }
          in
          {
            meta = { archive with records = [] };
            chunk_records;
            s_ledger = Some ledger;
            source = Buffered (ref archive.records);
          }
      | 2 -> open_v2 ic ~total ~chunk_records
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

let fold_file ?chunk_records ~init ~f path =
  match Stream.open_file ?chunk_records path with
  | Error e -> Error e
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> Stream.close s)
        (fun () ->
          let rec go acc =
            match Stream.next s with
            | Some chunk -> go (f acc chunk)
            | None -> (Stream.meta s, acc, Stream.ledger s)
          in
          Ok (go init))
