(** A fixed-size pool of OCaml 5 domains with a shared work queue.

    The pool has one job: {!map} over independent, deterministic tasks
    — workloads, shards, bench sweeps.  Tasks must not share mutable
    state — each closure owns everything it touches — which is what
    makes results identical regardless of the job count.

    Every task runs inside a [pool]/[task] trace span, on the track of
    the domain that ran it: the one record of when each worker was
    busy.  [--metrics] and [hbbp doctor] read the per-domain tasks and
    busy time from those spans ({!Hbbp_telemetry.Telemetry.reduce}).

    A pool with [jobs = 1] spawns no domains at all: every [map] runs
    sequentially in the calling domain — a plain [List.map] inside the
    same task spans.  Calls into the
    same pool from different threads are serialized by the queue; do not
    call [map] from inside a task of the same pool (the waiting caller
    occupies no worker, but a nested map would deadlock once all workers
    wait on each other). *)

(** [default_jobs ()] — the [HBBP_JOBS] environment variable when set to
    a positive integer, otherwise {!Domain.recommended_domain_count}. *)
val default_jobs : unit -> int

type t

(** [create ?jobs ()] — spawn a pool of [jobs] worker domains
    (default {!default_jobs}; values below 1 are clamped to 1).
    [jobs = 1] spawns none. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [map pool f xs] — apply [f] to every element, in parallel across the
    pool's workers, returning results in input order.  If one or more
    applications raise, the exception of the {e lowest-indexed} failing
    element is re-raised in the caller (with its backtrace) after all
    tasks have settled, so the failure surfaced is deterministic. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [shutdown pool] — drain and join the workers.  Idempotent.  Using
    the pool afterwards raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] — [create], run [f], [shutdown] (also on
    exception). *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** [run ?jobs f xs] — one-shot [with_pool] + [map]. *)
val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
