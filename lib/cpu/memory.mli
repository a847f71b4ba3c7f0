(** Simulated physical memory: a small set of non-overlapping regions.

    Each region is declared with bounds [[lo, hi)] and reads as zero
    throughout until written, but it is backed on first touch: [data]
    holds only the window [[base, base + length data)] of it that
    accesses have reached, empty at creation.  An access inside the
    bounds but outside the window grows the window towards it (whole
    pages, at least doubling, never past the bounds), so a machine costs
    the memory its workload touches, not the memory it declares.
    Which addresses fault depends on the declared bounds alone. *)

type region = private {
  mutable base : int;  (** Start of the backed window. *)
  mutable data : Bytes.t;  (** The backed window's bytes. *)
  lo : int;  (** Declared bounds [[lo, hi)]. *)
  hi : int;
}

(** Regions sorted by base, and the index of the last region an access
    resolved to.  Exposed read-only so that the executor can test the
    hot region's window and load or store bytes in its own code, where
    the values stay unboxed; a miss goes through {!region_for}. *)
type t = private { regions : region array; mutable hot : int }

exception Fault of int  (** Access to an unmapped address. *)

(** [create regions] — [(base, size)] pairs, reading as zero.  Allocates
    no backing bytes. *)
val create : (int * int) list -> t

(** [region_for t addr len] is the region whose declared bounds hold all
    [len] bytes from [addr], which becomes the hot one, with its window
    grown to cover them; raises [Fault addr] if no single region does.
    Allocates nothing unless it raises or grows a window. *)
val region_for : t -> int -> int -> region

val read_u8 : t -> int -> int
val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit

(** Whether [addr] lies inside a region's declared bounds.  Grows no
    window. *)
val is_mapped : t -> int -> bool
