(* Runtime introspection: per-domain GC deltas at span boundaries.

   The profiler installs a {!Trace.probe}: when a span opens it reads
   the GC, and when the span closes it appends the delta since that
   reading to the span's args.  Allocated and promoted words come from
   the domain's own counters ([Gc.minor_words], [Gc.counters]), so a
   domain is charged only for what it allocated itself; collection
   counts and heap size come from [Gc.quick_stat] and are process-wide.
   The deltas are {e inclusive} of the span's children on the same
   domain; exclusive attribution is a reduction over the span tree
   ({!Telemetry.reduce}).  The trace also grows per-domain counter
   tracks (heap size, cumulative allocation) and instant markers for
   major collections/compactions.

   Everything here only {e reads} runtime state, so arming the profiler
   can never perturb profile bytes (test-enforced). *)

module Trace = Trace

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* One boundary reading.  [words] (minor plus direct-major allocation)
   and [promoted] are this domain's own; [stat] supplies the
   process-wide collection counts and heap size. *)
type reading = { words : float; promoted : float; stat : Gc.stat }

let read () =
  (* [Gc.minor_words] is exact; the minor part of [Gc.counters] lags. *)
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  { words = minor +. major -. promoted; promoted; stat = Gc.quick_stat () }

type dstate = {
  (* Reading at span open, one per open span. *)
  mutable stack : reading list;
  (* Profiler generation this state belongs to; a boundary under a
     newer generation discards it, so a span opened before a re-enable
     never pops a stale reading. *)
  mutable gen : int;
}

(* Bumped by every [enable]. *)
let generation = Atomic.make 0

let key = Domain.DLS.new_key (fun () -> { stack = []; gen = 0 })

let state () =
  let st = Domain.DLS.get key and g = Atomic.get generation in
  if st.gen <> g then begin
    st.gen <- g;
    st.stack <- []
  end;
  st

let probe_open () =
  let st = state () in
  st.stack <- read () :: st.stack

let probe_close () =
  let st = state () in
  match st.stack with
  | [] -> []
  | r0 :: rest ->
      st.stack <- rest;
      let r = read () in
      let major = r.stat.Gc.major_collections - r0.stat.Gc.major_collections
      and compactions = r.stat.Gc.compactions - r0.stat.Gc.compactions in
      Trace.counter "gc"
        [
          ("heap_words", float_of_int r.stat.Gc.heap_words);
          ("allocated_words", r.words);
        ];
      if major > 0 then
        Trace.instant ~cat:"gc"
          ~args:[ ("major_collections", string_of_int major) ]
          "gc.major";
      if compactions > 0 then
        Trace.instant ~cat:"gc"
          ~args:[ ("compactions", string_of_int compactions) ]
          "gc.compact";
      (* Only the non-zero deltas, so quiet spans stay compact in the
         trace. *)
      List.filter_map
        (fun (k, n) -> if n > 0 then Some (Trace.int_arg k n) else None)
        [
          ("gc.major", major);
          ( "gc.minor",
            r.stat.Gc.minor_collections - r0.stat.Gc.minor_collections );
          ("gc.promoted", int_of_float (r.promoted -. r0.promoted));
          ("gc.alloc", int_of_float (r.words -. r0.words));
        ]

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let enable () =
  if not (Atomic.get enabled_flag) then begin
    Atomic.incr generation;
    Atomic.set enabled_flag true;
    Trace.set_probe (Some { Trace.p_open = probe_open; p_close = probe_close })
  end

let disable () =
  if Atomic.get enabled_flag then begin
    Trace.set_probe None;
    Atomic.set enabled_flag false
  end
