type metrics_format = [ `Json | `Table ]

let trace_path : string option ref = ref None
let metrics_format : metrics_format option ref = ref None
let profiling = ref false

let parse_format = function
  | "json" -> Some `Json
  | "table" -> Some `Table
  | other ->
      Printf.eprintf
        "hbbp: ignoring HBBP_METRICS=%s (expected \"json\" or \"table\")\n%!"
        other;
      None

let active () = !trace_path <> None || !metrics_format <> None

let configure ?trace ?metrics () =
  let trace =
    match trace with Some _ as t -> t | None -> Sys.getenv_opt "HBBP_TRACE"
  in
  let metrics =
    match metrics with
    | Some _ as m -> m
    | None -> Option.bind (Sys.getenv_opt "HBBP_METRICS") parse_format
  in
  (match trace with
  | Some path when path <> "" ->
      trace_path := Some path;
      Trace.enable ()
  | Some _ | None -> ());
  (match metrics with
  | Some fmt ->
      metrics_format := Some fmt;
      Metrics.enable ()
  | None -> ());
  (* The runtime profiler rides along whenever any sink is armed: GC
     attribution is the point of tracing/metering a run. *)
  if active () then begin
    Runtime_profiler.enable ();
    profiling := true
  end

(* Mirror the retry/durable-write tallies into the registry as
   counters (delta-based, so repeated folds never double-count) the
   same way the CLI mirrors [Faults.tally] as [faults.*]. *)
let fold_resilience_tallies () =
  List.iter
    (fun (k, v) ->
      let c = Metrics.counter k in
      let cur = Metrics.counter_value c in
      if v > cur then Metrics.add c (v - cur))
    (Hbbp_durable.Retry.tally () @ Hbbp_durable.Durable.tally ())

(* Teardown order matters: the profiler probe goes first (so the final
   trace/metrics flushes see a quiescent hook), then outputs are
   written, then both subsystems are disabled and cleared so a span
   opened after finalize is a ~2 ns no-op and a later [configure] starts
   from scratch. *)
let finalize ppf =
  if !profiling then begin
    Runtime_profiler.disable ();
    profiling := false
  end;
  fold_resilience_tallies ();
  (match !trace_path with
  | Some path ->
      trace_path := None;
      Trace.write ~path;
      Format.fprintf ppf
        "wrote trace %s (%d spans; load in Perfetto or chrome://tracing)@."
        path (Trace.span_count ())
  | None -> ());
  (match !metrics_format with
  | Some fmt ->
      metrics_format := None;
      let snapshot = Metrics.snapshot () in
      (match fmt with
      | `Json -> Format.fprintf ppf "%s@?" (Metrics.to_json snapshot)
      | `Table -> Metrics.pp_table ppf snapshot)
  | None -> ());
  Trace.disable ();
  Trace.reset ();
  Metrics.disable ();
  Metrics.reset ()
