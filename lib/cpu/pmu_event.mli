(** Hardware performance events.

    [Inst_retired_prec_dist] and [Br_inst_retired_near_taken] are the two
    events HBBP's collector programs (paper section V.A).  The
    instruction-specific computational events exist to reproduce Table 2
    and to cross-check instrumentation results against PMU counts
    (section VII.B). *)

type t =
  | Inst_retired_any
  | Inst_retired_prec_dist  (** Precise variant: reduced (not zero) skid. *)
  | Br_inst_retired_near_taken
  | Cpu_clk_unhalted  (** Core cycles. *)
  | Fp_comp_ops_sse  (** Computational SSE FP instructions retired. *)
  | Fp_comp_ops_avx  (** Computational AVX FP instructions retired. *)
  | Fp_comp_ops_x87  (** Computational x87 instructions retired. *)
  | Simd_int_128  (** Integer SIMD instructions retired. *)
  | Arith_divider_cycles  (** Cycles the divider is busy. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** The libpfm4-style user-friendly event string,
    e.g. ["INST_RETIRED:PREC_DIST"]. *)
val to_string : t -> string

(** [is_precise e] — can the event be requested in a precise (PEBS-like)
    variant?  On x86 precise events can only run on one counter at a
    time; the collector relies on this restriction being modelled. *)
val is_precise : t -> bool

val all : t list
