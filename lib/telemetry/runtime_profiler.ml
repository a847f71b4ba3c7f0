(* Runtime introspection: per-domain GC accounting at span boundaries.

   The profiler installs a {!Trace.probe}: at every span boundary it
   reads the GC and folds the delta since the previous boundary on the
   same domain into the metrics registry.  Allocated and promoted words
   come from the domain's own counters ([Gc.minor_words], [Gc.counters]),
   so a domain is charged only for what it allocated itself; collection
   counts and heap size come from [Gc.quick_stat] and are process-wide.
   Attribution is {e exclusive}: each interval between two boundaries is
   charged to the innermost span open during it, so nested spans never
   double-count and the per-span totals sum to the global ones.  Each
   span additionally gets {e inclusive} deltas (children on the same
   domain included) appended to its trace args, and the trace grows
   per-domain counter tracks (heap size, cumulative allocation) and
   instant markers for major collections/compactions.

   Everything here only {e reads} runtime state — Gc counters, the open
   span name — so arming the profiler can never perturb profile bytes
   (test-enforced). *)

module Metrics = Metrics
module Trace = Trace

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)

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
  (* Reading at span open, one per open span (inclusive deltas). *)
  mutable stack : reading list;
  (* Reading at the last boundary on this domain (exclusive
     attribution). *)
  mutable last : reading option;
  (* Profiler generation this state belongs to; a boundary under a
     newer generation discards it, so GC activity from a disabled
     period is never attributed after re-enable. *)
  mutable gen : int;
}

(* Bumped by every [enable]. *)
let generation = Atomic.make 0

let key = Domain.DLS.new_key (fun () -> { stack = []; last = None; gen = 0 })

type delta = {
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  d_allocated_words : int;
  d_promoted_words : int;
}

let delta ~prev ~cur =
  {
    d_minor_collections =
      cur.stat.Gc.minor_collections - prev.stat.Gc.minor_collections;
    d_major_collections =
      cur.stat.Gc.major_collections - prev.stat.Gc.major_collections;
    d_compactions = cur.stat.Gc.compactions - prev.stat.Gc.compactions;
    d_allocated_words = int_of_float (cur.words -. prev.words);
    d_promoted_words = int_of_float (cur.promoted -. prev.promoted);
  }

(* Charge an inter-boundary interval: global gc.* totals, plus the
   exclusive per-span allocation account when a span was open. *)
let attribute span (d : delta) =
  if Metrics.enabled () then begin
    let c name n = if n > 0 then Metrics.add (Metrics.counter name) n in
    c "gc.minor_collections" d.d_minor_collections;
    c "gc.major_collections" d.d_major_collections;
    c "gc.compactions" d.d_compactions;
    c "gc.allocated_words" d.d_allocated_words;
    c "gc.promoted_words" d.d_promoted_words;
    match span with
    | Some name ->
        c (Printf.sprintf "alloc.span.%s.words" name) d.d_allocated_words
    | None -> ()
  end

let note_heap (s : Gc.stat) =
  if Metrics.enabled () then begin
    Metrics.set (Metrics.gauge "gc.heap_words") (float_of_int s.Gc.heap_words);
    Metrics.set
      (Metrics.gauge "gc.top_heap_words")
      (float_of_int s.Gc.top_heap_words)
  end

(* One boundary on this domain: read the GC once, attribute the closed
   interval, advance [last]. *)
let boundary st =
  let g = Atomic.get generation in
  if st.gen <> g then begin
    st.gen <- g;
    st.stack <- [];
    st.last <- None
  end;
  let r = read () in
  (match st.last with
  | Some prev -> attribute (Trace.current_span ()) (delta ~prev ~cur:r)
  | None -> ());
  st.last <- Some r;
  r

let probe_open () =
  let st = Domain.DLS.get key in
  let r = boundary st in
  st.stack <- r :: st.stack

let probe_close ~name:_ ~cat:_ =
  let st = Domain.DLS.get key in
  let r = boundary st in
  match st.stack with
  | [] -> []
  | r0 :: rest ->
      st.stack <- rest;
      let d = delta ~prev:r0 ~cur:r in
      if Trace.enabled () then begin
        Trace.counter "gc"
          [
            ("heap_words", float_of_int r.stat.Gc.heap_words);
            ("allocated_words", r.words);
          ];
        if d.d_major_collections > 0 then
          Trace.instant ~cat:"gc"
            ~args:[ ("major_collections", string_of_int d.d_major_collections) ]
            "gc.major";
        if d.d_compactions > 0 then
          Trace.instant ~cat:"gc"
            ~args:[ ("compactions", string_of_int d.d_compactions) ]
            "gc.compact"
      end;
      (* Inclusive per-span args: only the non-zero ones, so quiet spans
         stay compact in the trace. *)
      let args =
        List.filter_map
          (fun (k, n) -> if n > 0 then Some (k, string_of_int n) else None)
          [
            ("gc.major", d.d_major_collections);
            ("gc.minor", d.d_minor_collections);
            ("gc.promoted", d.d_promoted_words);
            ("gc.alloc", d.d_allocated_words);
          ]
      in
      note_heap r.stat;
      args

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
