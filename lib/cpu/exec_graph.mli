(** Pre-decoded executable form of a process.

    Decoding once and linking direct control-flow edges keeps the
    interpreter fast enough to retire hundreds of millions of
    instructions. *)

open Hbbp_isa
open Hbbp_program

type node = {
  addr : int;
  instr : Instruction.t;
  len : int;
  ring : Ring.t;
  kernel : bool;  (** [Ring.equal ring Kernel], precomputed for the run loop. *)
  issue_cost : int;  (** Cycles the retirement itself charges. *)
  latency : int;  (** Full result latency; drives the shadow model. *)
  long_latency : bool;
  mutable fall : node option;  (** Node at [addr + len]. *)
  mutable target : node option;  (** Direct branch target, if any. *)
}

type t

(** [build process] decodes every image of the process.  For kernel
    images this must be the {e live} image — the one that actually
    executes. *)
val build : Process.t -> (t, Disasm.error) result

val build_exn : Process.t -> t

(** [node_at t addr] — O(1): a per-image range check plus a dense
    base-offset array load.  No hashing on the execution path. *)
val node_at : t -> int -> node option

val node_count : t -> int

(** {1 Basic blocks}

    The tiered executor's unit of work: a straight-line run of nodes in
    which only the last can redirect control.  Blocks are keyed by
    entry address and may overlap (a branch into the middle of one
    block starts another), so no splitting at join points is needed. *)

type block = {
  b_nodes : node array;  (** In execution order; length ≥ 1. *)
  b_last : node;  (** [b_nodes.(b_len - 1)]. *)
  b_len : int;
  b_cost : int;  (** Sum of member issue costs. *)
  b_kernel : int;  (** Members retiring in ring 0. *)
  b_shadow : int;
      (** The PMI shadow the block casts, relative to the cycle count at
          block entry: max over long-latency members of (issue cost of
          the members before it + its latency); -1 when none. *)
}

(** Can [Exec.step] of this instruction return anything but [Fall]?
    True for branches (incl. SYSCALL/SYSRET) and HLT. *)
val is_terminator : Instruction.t -> bool

(** Blocks longer than this are split; the tail continues as the
    fall-through successor of the capped block. *)
val max_block_len : int

(** [block_at t addr] — the (cached) basic block whose entry is [addr],
    or [None] when [addr] holds no decoded instruction.  First call per
    address walks the fall-through chain and caches; later calls are a
    range check plus an array load. *)
val block_at : t -> int -> block option

(** {1 Address-indexed side tables}

    Dense per-segment caches mirroring the graph layout — the closure
    cache of the tiered executor lives in one of these, so resolving an
    indirect branch target to compiled code costs the same as
    [node_at]: no hashing. *)

type 'a table

val create_table : t -> 'a table
val table_find : 'a table -> int -> 'a option
val table_set : 'a table -> int -> 'a -> unit
