(** perf.data-style record stream.

    The collector's output is a flat list of records: mapping and process
    events up front (needed for address → image resolution), then samples
    in delivery order.  This mirrors what the paper's tool parses out of
    "perf" (section V.A). *)

open Hbbp_program
open Hbbp_cpu

type sample = {
  event : Pmu_event.t;
  ip : int;  (** Eventing IP. *)
  lbr : Lbr.snapshot;
      (** Oldest first, interleaved: entry [k]'s source at [2k], its
          target at [2k + 1] ({!Hbbp_cpu.Lbr.snapshot}); may be empty. *)
  ring : Ring.t;
  time : int;  (** Cycle timestamp. *)
}

type t =
  | Comm of { pid : int; name : string }
  | Mmap of { addr : int; len : int; name : string; ring : Ring.t }
  | Fork of { parent : int; child : int }
  | Sample of sample
  | Lost of int

val pp : Format.formatter -> t -> unit

(** [samples records] — just the samples, in order. *)
val samples : t list -> sample list

(** [mmaps records] — the mapping records. *)
val mmaps : t list -> (int * int * string * Ring.t) list
