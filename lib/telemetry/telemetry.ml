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

let parse_bool ~var = function
  | "0" | "false" | "no" | "off" -> Some false
  | "1" | "true" | "yes" | "on" -> Some true
  | other ->
      Printf.eprintf "hbbp: ignoring %s=%s (expected a boolean)\n%!" var other;
      None

(* HBBP_ALLOC_SAMPLE accepts a boolean (default rate) or a sampling
   rate in (0, 1]. *)
let parse_sample ~var s =
  match parse_bool ~var:"" s with
  | Some true -> Some (Some 1e-3)
  | Some false -> Some None
  | None -> (
      match float_of_string_opt s with
      | Some r when r > 0.0 && r <= 1.0 -> Some (Some r)
      | Some _ | None ->
          Printf.eprintf
            "hbbp: ignoring %s=%s (expected a boolean or a rate in (0,1])\n%!"
            var s;
          None)

let opt_or_env ~parse explicit var =
  match explicit with
  | Some _ as v -> v
  | None -> Option.bind (Sys.getenv_opt var) parse

let configure ?trace ?metrics ?metrics_stream ?runtime_profile ?alloc_sample
    () =
  let trace =
    match trace with Some _ as t -> t | None -> Sys.getenv_opt "HBBP_TRACE"
  in
  let metrics =
    opt_or_env ~parse:parse_format metrics "HBBP_METRICS"
  in
  let metrics_stream =
    match metrics_stream with
    | Some _ as s -> s
    | None -> Sys.getenv_opt "HBBP_METRICS_STREAM"
  in
  let runtime_profile =
    opt_or_env
      ~parse:(parse_bool ~var:"HBBP_RUNTIME_PROFILE")
      runtime_profile "HBBP_RUNTIME_PROFILE"
  in
  let alloc_sample =
    match alloc_sample with
    | Some true -> Some (Some 1e-3)
    | Some false -> Some None
    | None ->
        Option.bind
          (Sys.getenv_opt "HBBP_ALLOC_SAMPLE")
          (parse_sample ~var:"HBBP_ALLOC_SAMPLE")
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
  (match metrics_stream with
  | Some path when path <> "" ->
      Snapshot.configure ~path ()
  | Some _ | None -> ());
  (* The runtime profiler rides along whenever any sink is armed — GC
     attribution is the point of tracing/metering a run — unless
     explicitly opted out ([~runtime_profile:false] /
     HBBP_RUNTIME_PROFILE=0). *)
  let any_sink =
    !trace_path <> None || !metrics_format <> None || Snapshot.active ()
  in
  let want_profile =
    match runtime_profile with Some b -> b | None -> any_sink
  in
  if want_profile then begin
    Runtime_profiler.enable ();
    profiling := true;
    match alloc_sample with
    | Some (Some rate) ->
        ignore (Runtime_profiler.arm_sampler ~sampling_rate:rate ())
    | Some None | None -> ()
  end

let active () =
  !trace_path <> None || !metrics_format <> None || Snapshot.active ()
  || !profiling

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

let health () =
  fold_resilience_tallies ();
  Health.evaluate (Metrics.snapshot ())

(* Teardown order matters: the profiler probe and the snapshot tick go
   first (so the final trace/metrics flushes see quiescent hooks), then
   outputs are written, then both subsystems are disabled and cleared so
   a span opened after finalize is a ~2 ns no-op and a later [configure]
   starts from scratch. *)
let finalize ppf =
  if !profiling then begin
    Runtime_profiler.disable ();
    profiling := false
  end;
  fold_resilience_tallies ();
  Snapshot.finalize ();
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
