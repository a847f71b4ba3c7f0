(** BBEC estimation from EBS samples (paper section III.A).

    Classic EBS attributes each IP sample to a single instruction; the
    paper's enhancement applies every sample to {e all instructions of the
    enclosing basic block} — if one instruction of the block retired, the
    whole block did.  To convert to an execution count the per-block
    sample tally is multiplied by the sampling period and divided by the
    block's instruction length. *)

type t = {
  bbec : Bbec.t;
  raw : int array;  (** Samples landing in each block. *)
  unattributed : int;  (** IPs outside any known block (e.g. skid past a
                           function end into padding, or unmapped). *)
  period : int;
}

(** Mergeable accumulator for chunked/sharded streams.  The state is the
    integer per-block sample tally, so [merge] is exactly associative and
    commutative, and feeding any partition of a sample stream through
    accumulators then merging reproduces the batch estimate
    bit-for-bit. *)
module Acc : sig
  type acc

  val create : Static.t -> acc
  val add : Static.t -> acc -> Sample_db.ebs_sample -> unit

  (** Pure: returns a fresh accumulator, inputs are unchanged.
      @raise Invalid_argument when the block counts differ. *)
  val merge : acc -> acc -> acc

  (** Checkpoint section ({!Hbbp_util.Codec}): the unattributed count,
      then the per-block tallies.  [read ~static] of what [write] wrote
      is an exact copy.
      @raise Hbbp_util.Codec.Bad when the block count is not
      [static]'s. *)
  val write : Hbbp_util.Codec.writer -> acc -> unit

  val read : static:Static.t -> Hbbp_util.Codec.cursor -> acc
end

(** [finalize static ~period acc] — scale the merged tally into a BBEC
    (samples × period / block length). *)
val finalize : Static.t -> period:int -> Acc.acc -> t

val estimate : Static.t -> period:int -> Sample_db.ebs_sample array -> t
