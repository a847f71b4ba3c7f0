(** Structured span tracing with Chrome [trace_event] JSON export.

    Spans nest: [with_span] opens a span, runs the thunk, and records
    the span when the thunk returns (or raises).  Each domain owns a
    private span buffer keyed by its domain id — the trace's track —
    so tracing from inside a {!Hbbp_util.Domain_pool} worker is safe
    and renders each domain as its own row in Perfetto /
    [chrome://tracing].

    Tracing is {b off by default}.  A disabled [with_span] costs one
    atomic load and a closure call — nothing is timestamped, allocated
    or recorded — which is what keeps the instrumented pipeline's
    disabled overhead within noise (the bench [telemetry] target
    measures exactly this).  Timestamps come from a monotonized
    wall-clock (strictly non-decreasing across all domains).

    Beyond spans, the module records {e counter} samples (rendered as
    counter tracks — e.g. heap size over time) and {e instant} events
    (vertical markers — e.g. a major GC), and exposes two span-boundary
    hooks: a {!probe} the runtime profiler uses to capture GC deltas
    per span, and a per-close {!set_tick} callback the snapshot emitter
    counts spans with.  Hooks arm the instrumentation sites without
    turning span recording on, so a metrics-stream-only run still pays
    nothing for trace buffers. *)

type span = {
  name : string;
  cat : string;  (** Chrome trace category, e.g. ["pipeline"]. *)
  track : int;  (** Domain id — the [tid] of the exported event. *)
  start_us : float;  (** Microseconds since {!enable}. *)
  dur_us : float;
  depth : int;  (** Nesting depth within its track (0 = top level). *)
  args : (string * string) list;
}

(** A non-span trace event: a counter sample (Chrome ["ph":"C"], shown
    as a counter track) or an instant marker (["ph":"i"]). *)
type event =
  | Counter of {
      e_name : string;
      e_track : int;
      e_ts_us : float;
      e_values : (string * float) list;
    }
  | Instant of {
      e_name : string;
      e_cat : string;
      e_track : int;
      e_ts_us : float;
      e_args : (string * string) list;
    }

val enabled : unit -> bool
val enable : unit -> unit

(** [disable] stops recording; already-recorded spans survive until
    {!reset}. *)
val disable : unit -> unit

(** Drop every recorded span and event.  Call only when no span is in
    flight. *)
val reset : unit -> unit

(** [with_span name f] — run [f] inside a span.  [args] become the
    Chrome event's [args] object; keep them cheap, they are evaluated
    by the caller even when tracing is disabled. *)
val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [counter name values] — record one sample of the named counter
    track ([values] are series-name/value pairs plotted together).
    No-op unless tracing is enabled. *)
val counter : string -> (string * float) list -> unit

(** [instant name] — record an instant marker (thread scope).  No-op
    unless tracing is enabled. *)
val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** Innermost span currently open on {e this} domain, if any — the
    span the runtime profiler charges an interval's allocation to. *)
val current_span : unit -> string option

(** {1 Span-boundary hooks} *)

(** [p_open] runs when a span opens, [p_close] when it closes; the args
    [p_close] returns are appended to the recorded span.  Both run even
    when span recording is off (the hook arms the sites), so a
    metrics-only run still gets GC deltas. *)
type probe = {
  p_open : unit -> unit;
  p_close : name:string -> cat:string -> (string * string) list;
}

(** Install (or clear, with [None]) the span-boundary probe.  Set only
    while no span is in flight. *)
val set_probe : probe option -> unit

(** Install (or clear) the per-span-close tick callback.  Set only
    while no span is in flight. *)
val set_tick : (unit -> unit) option -> unit

(** {1 Reading the buffers} *)

(** All recorded spans across every domain, ordered by start time
    (parents before children). *)
val spans : unit -> span list

val span_count : unit -> int

(** All recorded counter/instant events, ordered by timestamp. *)
val events : unit -> event list

val event_count : unit -> int

(** The full Chrome [trace_event] JSON document ([{"traceEvents": ...}]
    with complete-"X" events, counter-"C" and instant-"i" events, plus
    thread-name metadata), loadable in Perfetto or [chrome://tracing]. *)
val export : unit -> string

(** [write ~path] — {!export} to a file. *)
val write : path:string -> unit
