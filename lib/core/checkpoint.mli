(** Checkpoint file for resumable streaming analysis.

    Records which archives have been fully folded into the running
    {!Pipeline.Partial} plus the serialized partial itself, both in
    the {!Hbbp_util.Codec} framing: one section of paths, one holding
    the partial's bytes as they are.  Saved atomically
    ({!Hbbp_durable.Durable}) after every consumed archive, so a
    [kill -9] leaves a loadable checkpoint naming a prefix of the work
    — what [analyze --resume] restarts from. *)

type t = {
  done_paths : string list;  (** Archives fully folded in, in order. *)
  partial : bytes;  (** {!Pipeline.Partial.serialize} of the merged state. *)
}

val to_bytes : t -> bytes

(** Typed failure on bad magic/version, CRC mismatch or truncation —
    a damaged checkpoint is reported, never silently trusted. *)
val of_bytes : bytes -> (t, string) result

(** Atomic durable write ({!Hbbp_durable.Durable.write_bytes}). *)
val save : t -> path:string -> unit

(** [None] when no checkpoint file exists. *)
val load : path:string -> (t, string) result option

(** Delete the checkpoint (after a successful finalize). *)
val remove : path:string -> unit
