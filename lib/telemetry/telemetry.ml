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

(* Both sinks read the span tree, so either one arms span recording, and
   the runtime profiler rides along: GC attribution is the point of
   tracing/metering a run. *)
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
  | Some path when path <> "" -> trace_path := Some path
  | Some _ | None -> ());
  Option.iter (fun fmt -> metrics_format := Some fmt) metrics;
  if active () then begin
    Trace.enable ();
    Runtime_profiler.enable ();
    profiling := true
  end

let resilience_tallies () =
  Hbbp_durable.Retry.tally () @ Hbbp_durable.Durable.tally ()

let with_root name f =
  Trace.with_span ~cat:"hbbp" name @@ fun () ->
  let before = if Trace.enabled () then resilience_tallies () else [] in
  let v = f () in
  Trace.annotate (fun () ->
      List.map
        (fun (k, n) ->
          let n0 = Option.value ~default:0 (List.assoc_opt k before) in
          Trace.int_arg k (n - n0))
        (resilience_tallies ()));
  v

(* ------------------------------------------------------------------ *)
(* Reading the span tree                                               *)

let int_arg (s : Trace.span) key =
  match Option.bind (List.assoc_opt key s.args) int_of_string_opt with
  | Some n -> n
  | None -> 0

let secs (s : Trace.span) = s.dur_us /. 1e6

let bump tbl key n =
  let n0 = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (n0 + n)

let sorted tbl =
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

(* Each span with its parent and its run.  In [Trace.spans] order a
   span's parent is the last span seen one level up on its track; a
   span whose parent is not in [spans] is a root.  The run is the
   [workload] arg of the nearest span that has one, itself included. *)
type node = { span : Trace.span; parent : Trace.span option; run : string }

let nodes spans =
  let open_at = Hashtbl.create 16 in
  List.map
    (fun (s : Trace.span) ->
      let up = Hashtbl.find_opt open_at (s.track, s.depth - 1) in
      let run =
        match (List.assoc_opt "workload" s.args, up) with
        | Some w, _ -> w
        | None, Some u -> u.run
        | None, None -> "-"
      in
      let n = { span = s; parent = Option.map (fun u -> u.span) up; run } in
      Hashtbl.replace open_at (s.track, s.depth) n;
      n)
    spans

type domain = {
  domain : int;
  tasks : int;
  busy_s : float;
  minor : int;
  major : int;
  allocated_words : int;
}

type reduction = {
  domains : domain list;
  self_alloc : (string * int) list;
  gc : (string * int) list;
}

let reduce spans =
  let tasks =
    List.filter
      (fun (s : Trace.span) -> s.cat = "pool" && s.name = "task")
      spans
  in
  let domain track =
    let ts = List.filter (fun (s : Trace.span) -> s.track = track) tasks in
    let total key = List.fold_left (fun acc s -> acc + int_arg s key) 0 ts in
    {
      domain = track;
      tasks = List.length ts;
      busy_s = List.fold_left (fun acc s -> acc +. secs s) 0.0 ts;
      minor = total "gc.minor";
      major = total "gc.major";
      allocated_words = total "gc.alloc";
    }
  in
  (* A span's self allocation is its inclusive [gc.alloc] minus its
     children's: each span adds its own and takes it from its parent.
     The roots' inclusive args are the totals. *)
  let self = Hashtbl.create 16 and gc = Hashtbl.create 4 in
  let site (s : Trace.span) = s.cat ^ "/" ^ s.name in
  List.iter
    (fun { span; parent; _ } ->
      let alloc = int_arg span "gc.alloc" in
      bump self (site span) alloc;
      match parent with
      | Some p -> bump self (site p) (-alloc)
      | None ->
          List.iter
            (fun k -> bump gc k (int_arg span k))
            [ "gc.alloc"; "gc.promoted"; "gc.minor"; "gc.major" ])
    (nodes spans);
  let tracks = List.map (fun (s : Trace.span) -> s.track) tasks in
  {
    domains = List.map domain (List.sort_uniq compare tracks);
    self_alloc = sorted self;
    gc = List.filter (fun (_, n) -> n <> 0) (sorted gc);
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric =
  | Sum of int
  | Per_run of (string * float) list
  | Derived of float

(* A metric arg has a dotted key; [gc.*] args are inclusive and reach
   the metrics only through [reduce]. *)
let metric_key k =
  String.contains k '.' && not (String.starts_with ~prefix:"gc." k)

let by_name rows = List.stable_sort (fun (a, _) (b, _) -> compare a b) rows

let derived (r : reduction) =
  let pool =
    if r.domains = [] then []
    else
      let sum f = List.fold_left (fun acc d -> acc +. f d) 0.0 r.domains in
      let tasks d = float_of_int d.tasks and busy d = d.busy_s in
      ("pool.tasks", sum tasks) :: ("pool.busy_s", sum busy)
      :: List.concat_map
           (fun d ->
             let row part f =
               (Printf.sprintf "pool.domain%d.%s" d.domain part, f d)
             in
             [ row "tasks" tasks; row "busy_s" busy ])
           r.domains
  in
  pool
  @ List.filter_map
      (fun (site, n) ->
        if n > 0 then Some ("alloc." ^ site, float_of_int n) else None)
      r.self_alloc
  @ List.map (fun (k, n) -> (k, float_of_int n)) r.gc

let metrics spans =
  let sums = Hashtbl.create 64 and runs = Hashtbl.create 16 in
  List.iter
    (fun { span; run; _ } ->
      List.iter
        (fun (k, v) ->
          if metric_key k then
            match int_of_string_opt v with
            | Some n -> bump sums k n
            | None ->
                Option.iter
                  (fun x -> Hashtbl.add runs k (run, x))
                  (float_of_string_opt v))
        span.args)
    (nodes spans);
  (* [Hashtbl.find_all] lists the newest first; the stable sort keeps
     the runs of one workload in span order. *)
  let per_run k = Per_run (by_name (List.rev (Hashtbl.find_all runs k))) in
  let run_keys = Hashtbl.fold (fun k _ acc -> k :: acc) runs [] in
  by_name
    (List.map (fun (k, n) -> (k, Sum n)) (sorted sums)
    @ List.map (fun k -> (k, per_run k)) (List.sort_uniq compare run_keys)
    @ List.map (fun (k, v) -> (k, Derived v)) (derived (reduce spans)))

(* %.17g round-trips floats; integral values print as integers. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json rows =
  let entry (name, m) =
    Printf.sprintf "\"%s\":{%s}" (Json.escape name)
      (match m with
      | Sum n -> Printf.sprintf "\"type\":\"sum\",\"value\":%d" n
      | Derived v ->
          Printf.sprintf "\"type\":\"derived\",\"value\":%s" (number v)
      | Per_run runs ->
          Printf.sprintf "\"type\":\"per_run\",\"runs\":[%s]"
            (String.concat ","
               (List.map
                  (fun (run, v) ->
                    Printf.sprintf "{\"run\":\"%s\",\"value\":%s}"
                      (Json.escape run) (number v))
                  runs)))
  in
  Printf.sprintf "{\"metrics\":{%s}}\n"
    (String.concat "," (List.map entry rows))

let pp_table ppf rows =
  let cell v =
    if Float.is_integer v then number v else Printf.sprintf "%.4f" v
  in
  let lines =
    List.concat_map
      (fun (name, m) ->
        match m with
        | Sum n -> [ (name, "", string_of_int n) ]
        | Derived v -> [ (name, "", cell v) ]
        | Per_run runs ->
            List.map
              (fun (run, v) -> (name, run, Printf.sprintf "%.4f" v))
              runs)
      rows
  in
  let width f =
    List.fold_left (fun w l -> max w (String.length (f l))) 6 lines
  in
  let name_w = width (fun (n, _, _) -> n)
  and run_w = width (fun (_, r, _) -> r) in
  let line n r v = Format.fprintf ppf "%-*s  %-*s  %s@." name_w n run_w r v in
  line "metric" "run" "value";
  line (String.make name_w '-') (String.make run_w '-') (String.make 12 '-');
  List.iter (fun (n, r, v) -> line n r v) lines

(* Teardown order matters: the profiler probe goes first (so the
   outputs see a quiescent hook), then outputs are written, then
   recording is disabled and cleared so a span opened after finalize is
   a ~2 ns no-op and a later [configure] starts from scratch. *)
let finalize ppf =
  if !profiling then begin
    Runtime_profiler.disable ();
    profiling := false
  end;
  (match !trace_path with
  | Some path ->
      trace_path := None;
      Trace.write ~path;
      Format.fprintf ppf
        "wrote trace %s (%d spans; load in Perfetto or chrome://tracing)@."
        path (Trace.span_count ())
  | None -> ());
  (match !metrics_format with
  | Some fmt -> (
      metrics_format := None;
      let rows = metrics (Trace.spans ()) in
      match fmt with
      | `Json -> Format.fprintf ppf "%s@?" (to_json rows)
      | `Table -> pp_table ppf rows)
  | None -> ());
  Trace.disable ();
  Trace.reset ()
