(** Static view of a whole process: per-image basic-block maps with a
    dense {e global} block numbering, so every estimator can work with
    flat arrays indexed by global block id. *)

open Hbbp_program

type t

(** [create process] disassembles every image.  For kernel images pass
    what the analyzer can see — the {e disk} image (use
    {!Kernel_patch.patch_static} to swap in live text). *)
val create : Process.t -> (t, Disasm.error) result

val create_exn : Process.t -> t
val process : t -> Process.t
val total_blocks : t -> int

(** [find t addr] — global id of the block containing [addr]. *)
val find : t -> int -> int option

(** [find_starting t addr] — global id of the block starting at [addr]. *)
val find_starting : t -> int -> int option

(** [gid_at], [gid_starting_at]: {!find} and {!find_starting} returning
    [-1] instead of [None], for per-stream paths that must not
    allocate. *)
val gid_at : t -> int -> int

val gid_starting_at : t -> int -> int

(** [gid_ending_at t addr] — global id of the block whose {e last}
    instruction is at [addr] (where a taken branch's source sits), or
    [-1]. *)
val gid_ending_at : t -> int -> int

(** [barrier t gid] — the first global id at or after [gid], in the same
    image, whose block ends in something other than a fall-through or a
    conditional branch; [-1] when straight-line flow from [gid] runs to
    the end of the image.  Precomputed, so a stream walk is two lookups
    ({!Stream_walk}). *)
val barrier : t -> int -> int

(** [image_end t gid] — the last global id of [gid]'s image. *)
val image_end : t -> int -> int

(** [block t gid] — the image, map and block behind a global id. *)
val block : t -> int -> Image.t * Bb_map.t * Basic_block.t

(** [next_in_layout t gid] — the fall-through neighbour (same image). *)
val next_in_layout : t -> int -> int option

val global_id : t -> Bb_map.t -> Basic_block.t -> int option
val iter : (int -> Image.t -> Basic_block.t -> unit) -> t -> unit
val map_of_image : t -> string -> Bb_map.t option
