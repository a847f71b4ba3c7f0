(** Simulated physical memory: a small set of non-overlapping regions. *)

type region = private { base : int; data : Bytes.t }

(** Regions sorted by base, and the index of the last region an access
    resolved to.  Exposed read-only so that the executor can test the
    hot region and load or store bytes in its own code, where the values
    stay unboxed; a miss goes through {!region_for}. *)
type t = private { regions : region array; mutable hot : int }

exception Fault of int  (** Access to an unmapped address. *)

(** [create regions] — [(base, size)] pairs, zero-initialised. *)
val create : (int * int) list -> t

(** [region_for t addr len] is the region holding all [len] bytes from
    [addr], which becomes the hot one; raises [Fault addr] if no single
    region does.  Allocates nothing unless it raises. *)
val region_for : t -> int -> int -> region

val read_u8 : t -> int -> int
val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit

val is_mapped : t -> int -> bool
