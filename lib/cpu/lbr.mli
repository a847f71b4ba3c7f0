(** The Last Branch Record facility: a circular hardware buffer of the
    most recently retired taken branches, stored as source → target
    address pairs (paper section III.B). *)

(** A snapshot of the buffer, oldest entry first, as one flat
    interleaved array: entry [k]'s source address is at [2k], its
    target at [2k + 1].  The same array travels unboxed from the PMU
    through the archive into {!Hbbp_collector.Record.sample} and
    {!Hbbp_analyzer.Sample_db.lbr_sample}. *)
type snapshot = int array

type t

(** [create ~depth] — the paper's hardware has [depth = 16]. *)
val create : depth:int -> t

val depth : t -> int

(** [push t ~src ~tgt] records a retired taken branch, evicting the oldest
    entry once full. *)
val push : t -> src:int -> tgt:int -> unit

(** [snapshot t] — a fresh snapshot, oldest entry first.  Fewer than
    [depth] entries are returned if the buffer has not filled yet. *)
val snapshot : t -> snapshot

(** [entries snap] — the number of entries in [snap]. *)
val entries : snapshot -> int

(** [src snap k] / [tgt snap k] — entry [k]'s source / target address
    ([k = 0] is the oldest). *)
val src : snapshot -> int -> int

val tgt : snapshot -> int -> int

(** [overwrite_oldest t ~src ~tgt] — the anomaly path: clobber the oldest
    slot without rotating the buffer.  No-op on an empty buffer. *)
val overwrite_oldest : t -> src:int -> tgt:int -> unit

val clear : t -> unit
val fill_level : t -> int
