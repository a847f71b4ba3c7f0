(** LBR bias detection (paper section III.C).

    Some branches appear at entry[0] of the LBR stack a disproportionate
    number of times (up to ~50%).  Since [source[0]] has no matching
    [target[-1]], the stream ending there is unusable, and when a branch
    monopolises that slot the blocks around it are systematically
    mis-counted.  When the analyzer observes a branch over-represented at
    entry[0] relative to its share of the deeper entries, it labels the
    branch's basic block with a {b bias flag}: its LBR-based count is
    suspect.  The flag is one of HBBP's classifier features. *)

type branch_stat = {
  src : int;  (** Branch source address. *)
  entry0_count : int;
  deep_count : int;  (** Appearances at entries 1..N-1. *)
  entry0_share : float;
  deep_share : float;
  adjacent_streams : int;  (** Streams starting at this branch's records. *)
  failed_streams : int;  (** Of those, how many could not be walked. *)
}

type t = {
  flags : bool array;  (** Per global block id. *)
  stats : branch_stat list;  (** Branches sorted by entry0 share. *)
  snapshots : int;
}

type params = {
  min_snapshots : int;  (** Below this, never flag (default 30). *)
  min_entry0 : int;  (** Minimum absolute entry[0] sightings (default 8). *)
  min_entry0_share : float;
      (** Only branches hot enough to matter are flagged: their entry[0]
          share must reach this floor (default 0.04). *)
  share_factor : float;
      (** Flag when entry0 share exceeds this multiple of the deep share
          (default 1.25). *)
  min_failures : int;
      (** Second symptom — record loss: minimum failed adjacent streams
          (default 12). *)
  failure_rate : float;
      (** ... and minimum failure rate among them (default 0.10). *)
}

val default_params : params

(** Accumulator: per-branch integer tallies (entry[0]/deep sightings,
    adjacent/failed streams) and the set of distinct adjacent streams
    [(owner source, target, source)] — everything {!finalize} needs, so
    detection is a single pass over the snapshots.  Merges across shards
    with plain addition and set union — exactly associative and
    commutative.  [add] allocates nothing once a stream has been seen:
    each distinct [(target, src)] stream is walked once and answered
    from the accumulator's {!Stream_walk.Memo} after that.  The table is
    a cache, not state: [create] takes one to share ([?memo], a fresh
    one by default), [merge] and [read] start a fresh one and [write]
    drops it. *)
module Acc : sig
  type acc

  val create : ?memo:Stream_walk.Memo.t -> unit -> acc
  val add : Static.t -> acc -> Sample_db.lbr_sample -> unit

  (** Streams walked through this accumulator's table: the distinct
      [(target, src)] pairs fed to it, or to any accumulator sharing it,
      since the table was created (0 after [read], or after [merge]
      into a fresh table). *)
  val walks : acc -> int

  (** Pure: returns a fresh accumulator over a fresh table, inputs are
      unchanged. *)
  val merge : acc -> acc -> acc

  (** Checkpoint section ({!Hbbp_util.Codec}): the snapshot and
      deep-entry totals, the four per-branch tallies as (source, count)
      lists sorted by source, then the stream set as sorted
      [(owner source, target, source)] triples, so the bytes do not
      depend on how the accumulator was populated.  [read ~static] of
      what [write ~static] wrote behaves like the original —
      [finalize] sorts its stats, so iteration order never reaches the
      output.  Both take the static view the accumulator was fed
      against. *)
  val write : static:Static.t -> Hbbp_util.Codec.writer -> acc -> unit

  val read : static:Static.t -> Hbbp_util.Codec.cursor -> acc
end

(** [finalize static acc ~replay] — resolve flags from the merged
    tallies, then (only when something was flagged) contaminate: every
    accumulated stream adjacent to a flagged branch's record is walked
    once and its blocks flagged, plus a static one-hop spill.  Branch
    stats are sorted by entry[0] share with a source-address tiebreak,
    so the result is deterministic however the accumulator was
    assembled.  [replay] is ignored: contamination reads the stream set,
    not the snapshots.  The argument is kept only so that perfbench
    ([perfbench/layers.ml], which passes it) still compiles. *)
val finalize :
  ?params:params ->
  Static.t ->
  Acc.acc ->
  replay:((Sample_db.lbr_sample -> unit) -> unit) option ->
  t

(** One-shot detection; equals accumulate + [finalize]. *)
val detect : ?params:params -> Static.t -> Sample_db.lbr_sample array -> t
val flagged_blocks : t -> int list
