(** Walking one LBR stream over the static block map.

    A stream [target → source] claims straight-line execution between the
    two addresses: every block laid out in between executed, and none of
    them may end in an always-taken terminator. *)

(** Where a successful walk writes the blocks it covers: the global ids
    [first..last], in layout order.  Each caller owns its span, so
    walks running on different domains never share one. *)
type span = { mutable first : int; mutable last : int }

type result =
  | Interval  (** The stream covers [span.first..span.last]. *)
  | Inconsistent
      (** The walk crossed an always-taken terminator — statically
          impossible straight-line flow (e.g. disassembly of a
          NOP-patched kernel, or a corrupt LBR pairing). *)
  | Bad  (** Unresolvable endpoints, backwards range, or over-long. *)

(** Upper bound on blocks per stream: a walk of more than [max_walk]
    steps past its first block is [Bad]. *)
val max_walk : int

val span : unit -> span

(** [walk static span ~target ~src] — two lookups and a comparison
    ({!Static.barrier}); writes [span] only on [Interval] and allocates
    nothing.  The accumulators walk through a {!Memo}; this bare walk
    is its miss path. *)
val walk : Static.t -> span -> target:int -> src:int -> result

(** A per-accumulator table from [(target, src)] to the outcome of
    walking that stream, so each distinct stream is walked once.  The
    outcome depends on the static code alone, never on the sample.

    The table is a cache, not state: one per partial, shared by its
    LBR-estimator and bias accumulators, which look up the same pairs
    (the pool's domains share a {!Static.t}, so a table there would
    race); an accumulator read back from a checkpoint starts a fresh
    one.  Slots are three ints in one flat array and the table doubles
    at half load; a hit allocates nothing. *)
module Memo : sig
  type t

  (** An outcome packed into one immediate int. *)
  type outcome = private int

  val create : unit -> t

  (** [lookup static t ~target ~src] — the outcome of
      [walk static _ ~target ~src], walking only when the pair is not
      in the table yet.  [t] must only ever see one [static]. *)
  val lookup : Static.t -> t -> target:int -> src:int -> outcome

  val result : outcome -> result

  (** [first o], [last o] — the covered block ids; meaningful only when
      [result o = Interval]. *)
  val first : outcome -> int

  val last : outcome -> int

  (** [src_gid o] — [Static.gid_ending_at static src]: the block whose
      last instruction is the stream's source, or [-1]. *)
  val src_gid : outcome -> int

  (** Walks performed so far: the number of distinct pairs looked up. *)
  val walks : t -> int
end
