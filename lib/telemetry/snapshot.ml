(* Continuous metric export: periodic full-registry snapshots appended
   as JSONL while a run executes, so long collect/train jobs are
   observable from outside the process before they finish.

   There is no background thread: emission is driven by the span-close
   tick ({!Trace.set_tick}), which fires for every span the pipeline
   already opens — per-task pool spans, per-chunk analyze spans and the
   stage spans give long runs a steady pulse.  A snapshot is emitted
   when either [every_spans] closes have accumulated or [interval_s]
   wall-clock has passed since the last emission, whichever comes
   first.  Every line carries a gap-free monotonic sequence number. *)

type t = {
  oc : out_channel;
  path : string;
  every_spans : int;
  interval_s : float;
  t0 : float;
  mutable seq : int;
  (* Cumulative span closes observed via the tick — counted here, not
     via [Trace.span_count], so the field is meaningful with span
     recording off. *)
  mutable closed : int;
  mutable spans_since : int;
  mutable last_emit : float;
  lock : Mutex.t;
}

let state : t option ref = ref None

let active () = !state <> None

let now = Unix.gettimeofday

(* One JSONL line.  The metrics object is one consistent registry pass
   (see {!Metrics.snapshot}); [seq] is the line's position in the
   stream, [elapsed_s] the offset from [configure]. *)
let render t =
  Printf.sprintf
    "{\"seq\":%d,\"elapsed_s\":%.6f,\"spans_closed\":%d,\"metrics\":%s}"
    t.seq (now () -. t.t0) t.closed
    (Metrics.json_object (Metrics.snapshot ()))

let emit_locked t =
  let line = render t in
  t.seq <- t.seq + 1;
  t.spans_since <- 0;
  t.last_emit <- now ();
  (* One buffered write + flush per line: a crash between lines leaves
     the stream at a line boundary, never inside one. *)
  output_string t.oc (line ^ "\n");
  flush t.oc

(* Span-close tick: cheap count-and-compare; the full snapshot price is
   paid only on emission.  Ticks arrive from every domain — the mutex
   serializes emission. *)
let tick () =
  match !state with
  | None -> ()
  | Some t ->
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          t.closed <- t.closed + 1;
          t.spans_since <- t.spans_since + 1;
          if
            t.spans_since >= t.every_spans
            || now () -. t.last_emit >= t.interval_s
          then emit_locked t)

let configure ?(every_spans = 64) ?(interval_s = 1.0) ~path () =
  if every_spans < 1 then
    invalid_arg "Snapshot.configure: every_spans must be at least 1";
  (match !state with
  | Some t ->
      (* Reconfigure: close the previous stream first. *)
      state := None;
      Trace.set_tick None;
      close_out_noerr t.oc
  | None -> ());
  let oc = open_out path in
  let t =
    {
      oc;
      path;
      every_spans;
      interval_s;
      t0 = now ();
      seq = 0;
      closed = 0;
      spans_since = 0;
      last_emit = now ();
      lock = Mutex.create ();
    }
  in
  state := Some t;
  Metrics.enable ();
  Trace.set_tick (Some tick)

let seq () = match !state with None -> 0 | Some t -> t.seq
let path () = Option.map (fun t -> t.path) !state

(* Final snapshot + teardown.  Idempotent. *)
let finalize () =
  match !state with
  | None -> ()
  | Some t ->
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> emit_locked t);
      state := None;
      Trace.set_tick None;
      close_out_noerr t.oc
