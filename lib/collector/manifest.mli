(** Sidecar manifest of a sharded collection.

    Lives next to the archive at [<path>.manifest] and is rewritten
    atomically after every published shard, so at any kill point it
    names exactly the set of durably published shards.  [--resume]
    reads it back: when it is complete and every named shard verifies
    by size and CRC-32, the collection is skipped.  Anything less makes
    the resume re-collect the whole workload and re-publish only the
    shards whose bytes differ from what is on disk.

    The format is line-oriented text:

    {v hbbp-manifest v1
       label mcf
       shards 3
       shard 0 15816 f0a1b2c3 trace.0of3.hbbp
       shard 1 15704 9d8e7f60 trace.1of3.hbbp
       shard 2 15790 01234567 trace.2of3.hbbp
       complete v}

    A manifest without the trailing [complete] line describes an
    interrupted collection. *)

type shard = {
  index : int;
  file : string;  (** Basename, relative to the archive's directory. *)
  size : int;
  crc32 : int;
      (** CRC-32 of the whole file.  The publishers take it from
          {!Perf_data.shard_encoder}, which combines it from the CRCs
          the encoder computes anyway ({!Hbbp_util.Crc32.combine}), so
          writing a manifest reads no shard twice. *)
}

type t = {
  label : string;  (** Free-form (the workload name). *)
  shards : int;
  written : shard list;  (** Ascending index order. *)
  complete : bool;
}

(** [path_for archive_path] — the sidecar path, [archive_path ^ ".manifest"]. *)
val path_for : string -> string

val to_string : t -> string
val of_string : string -> (t, string) result

(** Atomically (re)write the sidecar for [archive_path]. *)
val save : t -> archive_path:string -> unit

(** [None] when no sidecar exists. *)
val load : archive_path:string -> (t, string) result option

(** Does the named shard exist in [dir] with the recorded size and
    CRC-32? *)
val shard_ok : dir:string -> shard -> bool
