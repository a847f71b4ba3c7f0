(** A process-wide metrics registry: counters, gauges and fixed-bucket
    histograms.

    Every update is a single atomic operation, so metrics may be fed
    concurrently from {!Hbbp_util.Domain_pool} workers without locks or
    lost updates.  Metrics are registered by name on first use; asking
    for the same name again returns the same metric, asking for it as a
    different kind raises [Invalid_argument].

    The registry is {b off by default}: nothing in the pipeline records
    into it unless {!enable} has been called (the instrumented code
    guards its recording on {!enabled}), so the disabled cost is one
    boolean load per potential recording site. *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Drop every registered metric (registrations and values). *)
val reset : unit -> unit

(** {1 Metric kinds} *)

val counter : string -> counter
val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram ?bounds name] — fixed buckets: one per upper bound
    (strictly increasing; a value [v] lands in the first bucket with
    [v <= bound]) plus an overflow bucket.  Bounds are fixed at first
    registration. *)
val histogram : ?bounds:float array -> string -> histogram

val default_bounds : float array

(** [observe ?n h v] — record [n] (default 1) observations of [v]. *)
val observe : ?n:int -> histogram -> float -> unit

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      buckets : int array;  (** [Array.length bounds + 1] (overflow last). *)
      count : int;
      sum : float;
    }

(** Sorted by metric name. *)
type snapshot = (string * value) list

(** One consistent pass over the registry: metric handles are collected
    under the registry lock, then every value is read in a single tight
    loop.  Each value is one atomic read; histograms re-read their
    count around the bucket pass and retry while it moves, so a
    histogram's [count]/[buckets]/[sum] agree unless an [observe] is
    in flight for the entire retry window (at most one update of skew,
    never a torn value).  Cross-metric skew is bounded by the duration
    of the read pass itself — no I/O or lock waits happen inside it —
    so a snapshot never mixes values from two distinct instants further
    apart than that pass. *)
val snapshot : unit -> snapshot

val find : snapshot -> string -> value option
val to_json : snapshot -> string

val pp_table : Format.formatter -> snapshot -> unit
