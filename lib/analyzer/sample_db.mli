(** Splitting the raw record stream into the two HBBP data sources
    (paper section V.A):

    - EBS source: samples of [INST_RETIRED:PREC_DIST] — the eventing IP
      is kept, the LBR payload discarded;
    - LBR source: samples of [BR_INST_RETIRED:NEAR_TAKEN] — the LBR stack
      is kept, the eventing IP discarded. *)

open Hbbp_program
open Hbbp_cpu

type ebs_sample = { ip : int; ring : Ring.t }

(** [entries] is a {!Hbbp_cpu.Lbr.snapshot}: oldest first, entry [k]'s
    source at [2k] and target at [2k + 1] — the decoded
    {!Hbbp_collector.Record.sample} array itself, never copied. *)
type lbr_sample = { entries : Lbr.snapshot; ring : Ring.t }

type t = {
  ebs : ebs_sample array;
  lbr : lbr_sample array;
  lost : int;
  other : int;  (** Samples of events the analyzer does not consume. *)
}

(** [of_records records] — the EBS and LBR samples in stream order,
    lost-record and other-sample tallies. *)
val of_records : Hbbp_collector.Record.t list -> t
