(** Checkpoint file for resumable streaming analysis.

    Records which archives have been fully folded into the running
    {!Pipeline.Partial} plus the serialized partial itself, both in
    the {!Codec} framing.  Saved atomically ({!Hbbp_durable.Durable})
    after every consumed archive, so a [kill -9] leaves a loadable
    checkpoint naming a prefix of the work — what [analyze --resume]
    restarts from. *)

(** The framing of both the checkpoint file and
    {!Pipeline.Partial.serialize}: magic, version byte, then sections of
    [length, CRC-32, payload], integers 64-bit little-endian.  The
    readers raise [Bad]; {!unframe} turns it into [Error]. *)
module Codec : sig
  exception Bad of string

  (** Where a section's writer puts its fields.  {!frame} runs every
      writer twice, once to size its section and once to fill it, so a
      writer must write the same fields both times. *)
  type writer

  val w_u8 : writer -> int -> unit
  val w_i64 : writer -> int -> unit

  (** The bytes themselves, without a length. *)
  val w_bytes : writer -> bytes -> unit

  (** Length, then the bytes. *)
  val w_str : writer -> string -> unit

  (** Count, then each item. *)
  val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

  val w_ints : writer -> int array -> unit

  (** [frame ~magic ~version sections] — each writer fills one section.
      The frame is allocated once, at its exact size, and written in
      place. *)
  val frame : magic:string -> version:int -> (writer -> unit) list -> bytes

  type cursor

  val r_i64 : cursor -> int
  val r_u8 : cursor -> int
  val r_str : cursor -> string
  val r_list : cursor -> (cursor -> 'a) -> 'a list
  val r_ints : cursor -> int array

  (** Check a section's CRC, parse its payload, require all of it read. *)
  val r_section : cursor -> (cursor -> 'a) -> 'a

  (** Check magic and version (["unsupported version N"]), parse, and
      require all of the data read. *)
  val unframe :
    magic:string ->
    version:int ->
    bytes ->
    (cursor -> 'a) ->
    ('a, string) result
end

type t = {
  done_paths : string list;  (** Archives fully folded in, in order. *)
  partial : bytes;  (** {!Pipeline.Partial.serialize} of the merged state. *)
}

val to_bytes : t -> bytes

(** Typed failure on bad magic/version, CRC mismatch or truncation —
    a damaged checkpoint is reported, never silently trusted. *)
val of_bytes : bytes -> (t, string) result

(** Atomic durable write ({!Hbbp_durable.Durable.write_bytes}). *)
val save : t -> path:string -> unit

(** [None] when no checkpoint file exists. *)
val load : path:string -> (t, string) result option

(** Delete the checkpoint (after a successful finalize). *)
val remove : path:string -> unit
