(** On-disk archive of a collection run — the moral equivalent of a
    perf.data file plus the bits a later analysis needs:

    - the mapped images (name, base, ring, symbols and {e on-disk} code —
      what an analyzer could read from the filesystem);
    - the live [.text] of every kernel image, captured at collection time
      (paper section III.C: the self-modifying kernel remedy needs it);
    - the record stream (comm/mmap/samples/lost).

    The current format (v2) is a length-prefixed little-endian binary
    with a magic header and {b four checksummed sections} (header,
    images, kernel text, records): each section carries its payload
    length, item count and CRC-32, so readers detect truncation and bit
    rot before parsing.  v1 archives (flat, no integrity data) are still
    readable.

    Reading {b salvages} rather than aborts: a truncated or corrupt
    record stream yields its parseable prefix plus a typed fault
    {!ledger}; only damage to the metadata sections (without which
    nothing can be analyzed) is a hard {!error}. *)

open Hbbp_program

type t = {
  workload_name : string;
  ebs_period : int;
  lbr_period : int;
  analysis_images : Image.t list;  (** What is findable on disk. *)
  live_kernel_text : (string * bytes) list;  (** Image name → live code. *)
  records : Record.t list;
}

(** [of_session ~workload_name ~session ~analysis ~live] assembles the
    archive from a finished collection: [analysis] is the process an
    offline analyzer could reconstruct (disk kernel), [live] the process
    that ran. *)
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
      (** Section payload present but CRC-32 did not match (v2 only). *)
  | Truncated_records of { expected : int option; salvaged : int }
      (** The record stream was cut short; [expected] is the declared
          record count when known (v2, or a v1 count that was readable). *)
  | Corrupt_records of { index : int; reason : string; salvaged : int }
      (** Record [index] failed to parse; the stream was kept up to it. *)

val pp_fault : Format.formatter -> fault -> unit

(** A successful (possibly salvaged) read. *)
type read = { archive : t; ledger : fault list }

(** {1 Serialization} *)

val current_version : int

(** [to_bytes ?version t] — serialize; [version] is [2] (default,
    checksummed sections) or [1] (legacy flat format).
    @raise Invalid_argument on any other version. *)
val to_bytes : ?version:int -> t -> bytes

(** Total: returns [Ok] (with a ledger describing any salvage) or a
    typed [Error] — never raises, whatever the input bytes. *)
val of_bytes : bytes -> (read, error) result

(** [save t ~path] — write the archive (current version) atomically
    ({!Hbbp_durable.Durable.write_bytes}: tmp + fsync + rename), so a
    crash mid-write never leaves a torn file.  When a fault plan with
    archive faults is armed ({!Hbbp_faults.Faults.arm}), the serialized
    bytes are mangled (bit flips / truncation) before hitting disk. *)
val save : t -> path:string -> unit

(** [load ~path] — read and {!of_bytes} the file.
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
    shard is published atomically, and a complete {!Manifest} sidecar
    is written last.
    @raise Invalid_argument when [shards < 1]. *)
val save_sharded : t -> shards:int -> path:string -> string list

(** [shard_path path i shards] — the name of shard [i]:
    ["trace.hbbp"] → ["trace.0of3.hbbp"]. *)
val shard_path : string -> int -> int -> string

(** [sharded_bytes t ~shards ~path] — the exact
    (path, bytes) each shard of {!save_sharded} would publish, without
    touching the filesystem (archive-fault mangling included).  The
    unit of comparison for resumable collection. *)
val sharded_bytes : t -> shards:int -> path:string -> (string * bytes) list

(** {1 Chunked streaming reader}

    Reads an archive's records in bounded chunks instead of
    materializing the whole list: metadata sections are parsed up front
    (they must be held anyway), then records are yielded straight off
    the file through a small pending buffer, with the section CRC folded
    incrementally ({!Hbbp_util.Crc32.update}).  Salvage semantics are
    {b identical} to {!of_bytes}: the records handed out and the final
    {!Stream.ledger} match the batch reader byte for byte, whatever the
    damage.  (A parse fault is only classified once the remaining
    payload is fully buffered, so a damaged archive can cost its tail in
    memory — but clean archives stream in O(chunk) space.  v1 archives
    have no section structure and fall back to buffered reading.)  The
    analysis drivers all fold a stream through
    [Hbbp_core.Pipeline.archive_partial]. *)
module Stream : sig
  type stream

  (** Default records per {!next} chunk (256): a chunk of decoded
      16-deep LBR snapshots is then ~18k words, small enough to die in
      the minor heap instead of being promoted. *)
  val default_chunk_records : int

  (** Open an archive for streaming.  Fails with the same typed errors
      as {!of_bytes} (bad magic/version, or damaged {e metadata}
      sections — record damage is salvaged, not an error).
      @raise Invalid_argument when [chunk_records < 1].
      @raise Sys_error when the file cannot be opened. *)
  val open_file : ?chunk_records:int -> string -> (stream, error) result

  (** The archive's metadata with [records = []] — enough for
      {!analysis_process} and shard-compatibility checks. *)
  val meta : stream -> t

  (** Next chunk of records (at most [chunk_records]), [None] when
      exhausted. *)
  val next : stream -> Record.t list option

  (** Salvage ledger, equal to what {!of_bytes} would report.  Complete
      once {!next} returned [None]; calling it earlier drains (and
      discards) the remaining records first. *)
  val ledger : stream -> fault list

  val close : stream -> unit
end
