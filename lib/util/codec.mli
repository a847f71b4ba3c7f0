(** The framing of checkpoint files and of serialized partials: magic,
    version byte, then sections of [length, CRC-32, payload], integers
    64-bit little-endian.  Each on-disk type owns its sections' fields
    and writes and reads them through these primitives; the readers
    raise [Bad], and {!unframe} turns it into [Error]. *)

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

(** A count, then that many items.  A count beyond the bytes left is
    [Bad "bad count"], before anything is allocated for it. *)
val r_list : cursor -> (cursor -> 'a) -> 'a list

val r_ints : cursor -> int array

(** The bytes left in the section, without a length: {!w_bytes}'s
    reader. *)
val r_rest : cursor -> bytes

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
