(* Runtime introspection: per-domain GC accounting at span boundaries
   plus an opt-in allocation sampler.

   The profiler installs a {!Trace.probe}: at every span boundary it
   takes [Gc.quick_stat] (domain-local in OCaml 5 — no stop-the-world)
   and folds the delta since the previous boundary on the same domain
   into the metrics registry.  Attribution is {e exclusive}: each
   interval between two boundaries is charged to the innermost span
   open during it, so nested spans never double-count and the per-span
   totals sum to the global ones.  Each span additionally gets
   {e inclusive} deltas (children included) appended to its trace args,
   and the trace grows per-domain counter tracks (heap size, cumulative
   allocation) and instant markers for major collections/compactions.

   Everything here only {e reads} runtime state — Gc counters, the open
   span name — so arming the profiler can never perturb profile bytes
   (test-enforced). *)

module Metrics = Metrics
module Trace = Trace

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)

type dstate = {
  (* quick_stat at span open, one per open span (inclusive deltas). *)
  mutable stack : Gc.stat list;
  (* quick_stat at the last boundary on this domain (exclusive
     attribution). *)
  mutable last : Gc.stat option;
  (* Profiler generation this state belongs to; a boundary under a
     newer generation discards it, so GC activity from a disabled
     period is never attributed after re-enable. *)
  mutable gen : int;
}

(* Bumped by every [enable]. *)
let generation = Atomic.make 0

let key = Domain.DLS.new_key (fun () -> { stack = []; last = None; gen = 0 })

(* Total words allocated according to one quick_stat: minor + major
   minus promoted (promoted words would otherwise count twice). *)
let allocated_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type delta = {
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  d_allocated_words : float;
  d_promoted_words : float;
}

let delta ~(prev : Gc.stat) ~(cur : Gc.stat) =
  {
    d_minor_collections = cur.Gc.minor_collections - prev.Gc.minor_collections;
    d_major_collections = cur.Gc.major_collections - prev.Gc.major_collections;
    d_compactions = cur.Gc.compactions - prev.Gc.compactions;
    d_allocated_words = allocated_words cur -. allocated_words prev;
    d_promoted_words = cur.Gc.promoted_words -. prev.Gc.promoted_words;
  }

(* Charge an inter-boundary interval: global gc.* totals, plus the
   exclusive per-span allocation account when a span was open. *)
let attribute span (d : delta) =
  if Metrics.enabled () then begin
    let c name n = if n > 0 then Metrics.add (Metrics.counter name) n in
    c "gc.minor_collections" d.d_minor_collections;
    c "gc.major_collections" d.d_major_collections;
    c "gc.compactions" d.d_compactions;
    c "gc.allocated_words" (int_of_float d.d_allocated_words);
    c "gc.promoted_words" (int_of_float d.d_promoted_words);
    match span with
    | Some name when d.d_allocated_words > 0.0 ->
        Metrics.add
          (Metrics.counter (Printf.sprintf "alloc.span.%s.words" name))
          (int_of_float d.d_allocated_words)
    | Some _ | None -> ()
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
  let s = Gc.quick_stat () in
  (match st.last with
  | Some prev -> attribute (Trace.current_span ()) (delta ~prev ~cur:s)
  | None -> ());
  st.last <- Some s;
  s

let probe_open () =
  let st = Domain.DLS.get key in
  let s = boundary st in
  st.stack <- s :: st.stack

let fmt_words w =
  if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let probe_close ~name:_ ~cat:_ =
  let st = Domain.DLS.get key in
  let s = boundary st in
  match st.stack with
  | [] -> []
  | s0 :: rest ->
      st.stack <- rest;
      let d = delta ~prev:s0 ~cur:s in
      if Trace.enabled () then begin
        Trace.counter "gc"
          [
            ("heap_words", float_of_int s.Gc.heap_words);
            ("allocated_words", allocated_words s);
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
      let args = ref [] in
      if d.d_allocated_words > 0.0 then
        args := ("gc.alloc", fmt_words d.d_allocated_words) :: !args;
      if d.d_promoted_words > 0.0 then
        args := ("gc.promoted", fmt_words d.d_promoted_words) :: !args;
      if d.d_minor_collections > 0 then
        args := ("gc.minor", string_of_int d.d_minor_collections) :: !args;
      if d.d_major_collections > 0 then
        args := ("gc.major", string_of_int d.d_major_collections) :: !args;
      note_heap s;
      !args

(* ------------------------------------------------------------------ *)
(* Allocation sampler                                                  *)

type sampler_mode = Sampler_off | Sampler_memprof | Sampler_words

let sampler = ref Sampler_off

let sampler_mode_name = function
  | Sampler_off -> "off"
  | Sampler_memprof -> "memprof"
  | Sampler_words -> "words-fallback"

(* Attribute one sampled allocation to the innermost open span of the
   allocating domain.  Pure accounting — returns [None] so memprof
   never tracks the block further. *)
let on_sample (a : Gc.Memprof.allocation) =
  if Metrics.enabled () then begin
    Metrics.add (Metrics.counter "alloc.samples") a.Gc.Memprof.n_samples;
    Metrics.add (Metrics.counter "alloc.sampled_words") a.Gc.Memprof.size;
    match Trace.current_span () with
    | Some name ->
        Metrics.add
          (Metrics.counter (Printf.sprintf "alloc.span.%s.samples" name))
          a.Gc.Memprof.n_samples
    | None -> ()
  end;
  None

(* [Gc.Memprof.start] compiles on every OCaml 5 but raises
   [Failure "not implemented in multicore"] on 5.1/5.2 (statmemprof
   returns in 5.3).  Degrade to the quick_stat word accounting the
   boundary probe already performs, and say which mode is live. *)
let arm_sampler ?(sampling_rate = 1e-3) () =
  (match !sampler with
  | Sampler_memprof -> Gc.Memprof.stop ()
  | Sampler_off | Sampler_words -> ());
  sampler :=
    (try
       let _ =
         Gc.Memprof.start ~sampling_rate ~callstack_size:0
           { Gc.Memprof.null_tracker with
             alloc_minor = on_sample;
             alloc_major = on_sample;
           }
       in
       Sampler_memprof
     with Failure _ -> Sampler_words);
  if Metrics.enabled () then
    Metrics.set
      (Metrics.gauge "alloc.sampler_memprof")
      (match !sampler with Sampler_memprof -> 1.0 | _ -> 0.0);
  !sampler

let disarm_sampler () =
  (match !sampler with
  | Sampler_memprof -> ( try Gc.Memprof.stop () with Failure _ -> ())
  | Sampler_off | Sampler_words -> ());
  sampler := Sampler_off

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
    disarm_sampler ();
    Atomic.set enabled_flag false
  end
