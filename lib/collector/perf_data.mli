(** On-disk archive of a collection run — the moral equivalent of a
    perf.data file plus the bits a later analysis needs:

    - the mapped images (name, base, ring, symbols and {e on-disk} code —
      what an analyzer could read from the filesystem);
    - the live [.text] of every kernel image, captured at collection time
      (paper section III.C: the self-modifying kernel remedy needs it);
    - the record stream (comm/mmap/samples/lost).

    The format (version 3) is a length-prefixed little-endian binary
    with a magic header and {b four checksummed sections} (header,
    images, kernel text, records): each section carries its payload
    length, item count and CRC-32, so readers detect truncation and bit
    rot before parsing.  A sample's LBR snapshot is stored as deltas:
    its entry count as an unsigned LEB128 varint, then per entry two
    zigzag LEB128 varints, the entry's source minus the previous
    entry's target (minus the sample's ip for entry 0) and its target
    minus its source.  Only the shortest varint encoding of a value is
    accepted, and a delta that leads below address 0 is corrupt.  Any
    other version byte, including the retired version 1 (flat, no
    integrity data) and version 2 (LBR entries as fixed 8-byte
    addresses), is [Bad_version].

    Reading {b salvages} rather than aborts: a truncated or corrupt
    record stream yields its parseable prefix plus a typed fault
    {!ledger}; only damage to the metadata sections (without which
    nothing can be analyzed) is a hard {!error}.  There is one reader,
    {!Stream}, over either a file or bytes already in memory;
    {!of_bytes} and {!load} drain it whole, so every way of reading an
    archive applies the same header, section and salvage rules. *)

open Hbbp_program

type t = {
  workload_name : string;
  ebs_period : int;
  lbr_period : int;
  analysis_images : Image.t list;  (** What is findable on disk. *)
  live_kernel_text : (string * bytes) list;  (** Image name → live code. *)
  records : Record.t list;
}

(** [of_records ~workload_name ~session ~analysis ~live records] — the
    archive of a collection that wrote [records]: [analysis] is the
    process an offline analyzer could reconstruct (disk kernel), [live]
    the process that ran. *)
val of_records :
  workload_name:string ->
  session:Session.t ->
  analysis:Process.t ->
  live:Process.t ->
  Record.t list ->
  t

(** {!of_records} of {!Session.records} after a finished collection. *)
val of_session :
  workload_name:string ->
  session:Session.t ->
  analysis:Process.t ->
  live:Process.t ->
  t

(** [analysis_process t] — the images as mapped, kernel text patched with
    the captured live text (ready for {!Hbbp_analyzer.Static.create}). *)
val analysis_process : t -> Process.t

(** {1 Errors, faults and salvage} *)

(** Hard errors: nothing usable could be recovered. *)
type error = Bad_magic | Bad_version of int | Truncated | Corrupt of string

val pp_error : Format.formatter -> error -> unit

type section = Header | Images | Kernel_text | Records

val section_name : section -> string

(** One entry of the fault ledger: damage the reader detected and
    survived.  A non-empty ledger means the archive was salvaged and any
    analysis of it is degraded. *)
type fault =
  | Checksum_mismatch of section
      (** Section payload present but CRC-32 did not match. *)
  | Truncated_records of { expected : int option; salvaged : int }
      (** The record stream was cut short; [expected] is the declared
          record count when the records section header was readable. *)
  | Corrupt_records of { index : int; reason : string; salvaged : int }
      (** Record [index] failed to parse; the stream was kept up to it. *)

val pp_fault : Format.formatter -> fault -> unit

(** A successful (possibly salvaged) read. *)
type read = { archive : t; ledger : fault list }

(** {1 Serialization} *)

(** [to_bytes t] — serialize in the checksummed-section format, into
    one [bytes] of the archive's exact size. *)
val to_bytes : t -> bytes

(** Total: returns [Ok] (with a ledger describing any salvage) or a
    typed [Error] — never raises, whatever the input bytes.  The
    {!Stream} reader over the bytes, drained into one record list. *)
val of_bytes : bytes -> (read, error) result

(** [save t ~path] — write the archive (current version) atomically
    ({!Hbbp_durable.Durable.write_bytes}: tmp + fsync + rename), so a
    crash mid-write never leaves a torn file.  When a fault plan with
    archive faults is armed ({!Hbbp_faults.Faults.arm}), the serialized
    bytes are mangled (bit flips / truncation) before hitting disk. *)
val save : t -> path:string -> unit

(** [load ~path] — {!of_bytes} of the file's contents, read through the
    same {!Stream} reader straight off the file (the file is never
    buffered whole).
    @raise Sys_error when it cannot be opened or read. *)
val load : path:string -> (read, error) result

(** {1 Sharded writing}

    [save_sharded t ~shards ~path] splits the record stream
    into [shards] contiguous slices and writes one archive per slice
    (identical metadata, so each shard is independently analyzable);
    returns the paths written.  ["trace.hbbp"] with 3 shards becomes
    ["trace.0of3.hbbp"] … ["trace.2of3.hbbp"]; with [shards = 1] the
    archive is written to [path] unchanged.  Concatenating the shards'
    record streams in order reproduces [t.records] exactly.  Each
    shard is encoded, published atomically and dropped before the next
    one is encoded, so the writer holds one encoded shard at a time; a
    complete {!Manifest} sidecar is written last.
    @raise Invalid_argument when [shards < 1]. *)
val save_sharded : t -> shards:int -> path:string -> string list

(** [shard_path path i shards] — the name of shard [i]:
    ["trace.hbbp"] → ["trace.0of3.hbbp"]; [path] itself when
    [shards = 1]. *)
val shard_path : string -> int -> int -> string

(** One encoded shard. *)
type shard = {
  shard_path : string;  (** [path] itself when there is one shard. *)
  data : bytes;
      (** The bytes to publish, mangled by the armed archive-fault
          plan ({!Hbbp_faults.Faults.mangle_archive}). *)
  entry : Manifest.shard;
      (** Its manifest line.  The CRC-32 of unmangled bytes is combined
          from the header's and the sections' CRCs
          ({!Hbbp_util.Crc32.combine}) and costs no pass over [data]. *)
}

(** [shard_encoder t ~shards ~path] slices [t.records] once (no record
    is copied) and returns the encoder of shard [i]: one allocation of
    the shard's exact size, with every field written in place.  The
    per-shard step of {!save_sharded}, {!sharded_bytes} and resumable
    collection.
    @raise Invalid_argument when [shards < 1], or (from the returned
    function) when [i] is not in [0, shards). *)
val shard_encoder : t -> shards:int -> path:string -> int -> shard

(** [sharded_bytes t ~shards ~path] — the exact
    (path, bytes) each shard of {!save_sharded} would publish, without
    touching the filesystem (archive-fault mangling included).  Holds
    every shard at once; publishers use {!shard_encoder}. *)
val sharded_bytes : t -> shards:int -> path:string -> (string * bytes) list

(** {1 The archive reader}

    Reads an archive's records in bounded chunks instead of
    materializing the whole list: metadata sections are parsed up front
    (they must be held anyway), then records are yielded through a
    small pending buffer refilled from the source, a file here or bytes
    in memory for {!of_bytes}, with the section CRC folded
    incrementally ({!Hbbp_util.Crc32.update}).  A parse fault is only
    classified once the remaining payload is fully buffered, so where a
    record is cut or corrupt does not depend on the chunk or refill
    size; a damaged archive can cost its tail in memory, but clean
    archives stream in O(chunk) space.  The analysis drivers all fold a
    stream through [Hbbp_core.Pipeline.archive_partial]. *)
module Stream : sig
  type stream

  (** What {!fold} hands each record to. *)
  type consumer = {
    sample :
      Hbbp_cpu.Pmu_event.t -> int -> Ring.t -> int -> Hbbp_cpu.Lbr.snapshot ->
      unit;
        (** [sample event ip ring time entries] — one sample, field by
            field.  [entries] is the reader's scratch array for that
            entry count, overwritten by the next sample of the same
            count: a consumer that keeps it must copy it. *)
    other : Record.t -> unit;  (** Every record that is not a sample. *)
  }

  (** Default records per {!next} chunk (256): a chunk of decoded
      16-deep LBR snapshots is then ~18k words, small enough to die in
      the minor heap instead of being promoted. *)
  val default_chunk_records : int

  (** Open an archive for streaming.  Fails with a typed error on a bad
      magic or version, or damaged {e metadata} sections (record damage
      is salvaged, not an error), and closes the file on every failure.
      @raise Invalid_argument when [chunk_records < 1].
      @raise Sys_error when the file cannot be opened or read (a
      directory, say); the message names the path. *)
  val open_file : ?chunk_records:int -> string -> (stream, error) result

  (** The archive's metadata with [records = []] — enough for
      {!analysis_process} and shard-compatibility checks. *)
  val meta : stream -> t

  (** [fold s k] — parse the next records (at most [chunk_records]) and
      hand each to [k] in order; returns how many, 0 when exhausted.
      The one record parser: {!next}, {!of_bytes} and {!load} are its
      consumers, so salvage and ledger are the same whichever way an
      archive is read.  A record is handed only once it parsed whole.
      When [k] raises, the exception escapes and [s] must not be read
      further. *)
  val fold : stream -> consumer -> int

  (** [at_end s] — no record is left for {!fold} to hand out: every
      declared record was handed out, or the stream ended at a fault.
      When it is [false], {!fold} still returns 0 if the next record is
      damaged or cut. *)
  val at_end : stream -> bool

  (** Next chunk of records (at most [chunk_records]), [None] when
      exhausted: {!fold} with a consumer that builds the records. *)
  val next : stream -> Record.t list option

  (** Salvage ledger, the one {!of_bytes} reports for the same bytes.
      Complete once {!next} returned [None]; calling it earlier drains
      (and discards) the remaining records first. *)
  val ledger : stream -> fault list

  val close : stream -> unit
end
