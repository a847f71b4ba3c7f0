(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), slicing-by-8: eight
    table lookups per 8-byte word, read with two little-endian 32-bit
    loads, and a bytewise loop for the last [len mod 8] bytes.

    Used by the archive format to give every section an integrity
    checksum, so the reader can tell torn writes and bit rot from valid
    data before parsing.

    Two interfaces: the one-shot [bytes]/[string], and an incremental
    [init]/[update]/[finish] triple so streaming readers can checksum a
    section chunk by chunk without buffering it.  [bytes] is implemented
    on top of the incremental form, so the two always agree.  And
    [combine], which joins the checksums of two adjacent slices without
    reading their bytes again. *)

(** Running checksum state.  Immutable: [update] returns a new state. *)
type state

(** Fresh state (all-ones preset, per the reflected CRC-32 convention). *)
val init : unit -> state

(** [update st ?off ?len data] folds the slice (default: all of [data])
    into the running checksum.  Raises [Invalid_argument] if the slice
    is out of range. *)
val update : state -> ?off:int -> ?len:int -> bytes -> state

(** Final CRC value as a non-negative int in [0, 2^32). *)
val finish : state -> int

(** [bytes ?off ?len data] — CRC-32 of the slice (default: all of
    [data]), as a non-negative int in [0, 2^32). *)
val bytes : ?off:int -> ?len:int -> bytes -> int

val string : string -> int

(** [combine crc1 crc2 len2] — the CRC-32 of a message [a ^ b], given
    [crc1 = crc a], [crc2 = crc b] and [len2 = length b]: zlib's
    [crc32_combine], a multiplication of [crc1] by x^(8 * len2) modulo
    the polynomial, from a 32-entry table of x^(2^n) built on first
    use.  Costs O(log len2) 32-bit multiplications, whatever the
    length.  Raises [Invalid_argument] if [len2 < 0]. *)
val combine : int -> int -> int -> int
