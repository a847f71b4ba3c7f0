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
    nothing. *)
val walk : Static.t -> span -> target:int -> src:int -> result
