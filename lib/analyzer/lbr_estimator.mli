(** BBEC estimation from LBR stacks (paper section III.B).

    Each snapshot of depth N yields N-1 {e streams}: between
    [Target[i-1]] and [Source[i]] no branch was taken, so every basic
    block laid out between those addresses executed.  Streams are
    weighted so that a whole snapshot counts as one sample — 1/(N-1) when
    all N-1 streams are usable (the paper's weighting), 1/(usable)
    otherwise — and multiplying a block's accumulated weight by the
    sampling period estimates its execution count.

    Streams are validated during the walk: a stream that would cross an
    always-taken terminator (unconditional jump, call, return) is
    {e inconsistent} — execution claims straight-line flow where the
    static code says that is impossible.  This is exactly the symptom
    self-modifying kernel code produces when the analyzer disassembles
    the on-disk image (section III.C); such streams are dropped and
    counted. *)

type t = {
  bbec : Bbec.t;
  weight : float array;
  period : int;
  snapshots : int;
  usable_streams : int;
  inconsistent_streams : int;
      (** Walk crossed an always-taken terminator. *)
  discarded_streams : int;
      (** Unresolvable endpoints, backwards ranges, or over-long walks. *)
}

(** Mergeable accumulator for chunked/sharded streams.  Snapshot weights
    (1/usable-streams) are float, and float sums are not associative —
    so the accumulator stays in the integer domain: one per-block visit
    tally per snapshot stream count [k].  Integer tallies merge exactly
    (associative and commutative), and {!finalize} converts them to
    weights in a fixed order, so every partition of a snapshot stream
    reconstructs bit-identically.

    Each accumulator walks a distinct [(target, src)] stream once and
    answers repeats from its {!Stream_walk.Memo}: [add] allocates
    nothing for a stream seen before.  The table is a cache, not state:
    [create] takes one to share ([?memo], a fresh one by default; a
    partial gives its LBR-estimator and bias accumulators the same one),
    [merge] and [read] start a fresh one and [write] drops it, so
    checkpoints are unchanged by it.  A table must only ever see one
    [static], on one domain at a time. *)
module Acc : sig
  type acc

  val create : ?memo:Stream_walk.Memo.t -> Static.t -> acc
  val add : Static.t -> acc -> Sample_db.lbr_sample -> unit

  (** Streams walked through this accumulator's table: the distinct
      [(target, src)] pairs fed to it, or to any accumulator sharing it,
      since the table was created (0 after [read], or after [merge]
      into a fresh table). *)
  val walks : acc -> int

  (** Pure: returns a fresh accumulator over a fresh table, inputs are
      unchanged.
      @raise Invalid_argument when the block counts differ. *)
  val merge : acc -> acc -> acc

  (** Checkpoint section ({!Hbbp_util.Codec}): the block count, the
      four stream counters, then one per-block visit tally per snapshot
      stream count; a row of length 0 is "no stream of that depth
      seen" (the sparse representation).  [read ~static] of what
      [write] wrote is an exact copy.
      @raise Hbbp_util.Codec.Bad when the block count or a row's length
      is not [static]'s. *)
  val write : Hbbp_util.Codec.writer -> acc -> unit

  val read : static:Static.t -> Hbbp_util.Codec.cursor -> acc
end

(** [finalize static ~period acc] — convert the merged visit tallies to
    period-scaled block counts (ascending-[k] summation order). *)
val finalize : Static.t -> period:int -> Acc.acc -> t

val estimate : Static.t -> period:int -> Sample_db.lbr_sample array -> t
