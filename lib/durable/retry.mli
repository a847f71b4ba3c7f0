(** Bounded, seeded retry with exponential backoff for transient I/O.

    A retry loop is only sound when the wrapped operation is
    idempotent; every use in this codebase wraps a single syscall
    ([fsync], [rename]) or a whole-file rewrite, both of which are.

    Backoff jitter draws from a {!Fault_prng} stream seeded from the
    policy, so sleep schedules — like everything else in the system —
    are reproducible. *)

type policy = {
  max_attempts : int;  (** Total tries, including the first. *)
  base_delay_s : float;  (** Backoff before the second try. *)
  max_delay_s : float;  (** Per-try backoff cap (before jitter). *)
  jitter : float;  (** Extra uniform fraction in [0, jitter]. *)
  seed : int64;  (** Seed for the jitter draws. *)
}

(** 4 attempts, 1ms base doubling to a 50ms cap, 25% jitter. *)
val default : policy

(** Raised when all attempts failed transiently; [last] is the final
    failure. *)
exception Exhausted of { attempts : int; last : exn }

(** The default transiency predicate: [EINTR], [EAGAIN],
    [EWOULDBLOCK], [EBUSY]. *)
val transient : exn -> bool

(** [with_retry f] — run [f], retrying on transient failures with
    capped exponential backoff.  Non-transient exceptions propagate
    immediately; transient exhaustion raises {!Exhausted}. *)
val with_retry : ?policy:policy -> ?is_transient:(exn -> bool) -> (unit -> 'a) -> 'a

(** {1 Tally}

    Process-wide counters of retries taken and retries exhausted since
    the last {!reset_tally}.  The telemetry front door records what a
    command added to them as [retry.*] args of its root span
    ([Hbbp_telemetry.Telemetry.with_root]). *)

val tally : unit -> (string * int) list
val reset_tally : unit -> unit
