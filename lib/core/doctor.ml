(* Parallel-efficiency attribution for the sharded analysis path.

   The observed problem (ROADMAP): fanning the analysis out over
   domains can be *slower* than running it sequentially.  The doctor
   turns that one number into an attribution: it collects one archive,
   shards it, then replays the shard-stream → merge → finalize path at
   every job count from 1 to N.  Each pass runs inside a
   [doctor/analyze] span with tracing and the runtime profiler on, and
   every number it reports is read back from the spans recorded inside
   that span:

   - wall clock, split into the parallel stream phase and the serial
     [doctor/merge] tail (merge + finalize, the Amdahl term);
   - per-domain tasks, busy time and GC activity from the [pool/task]
     spans grouped by track, with the profiler's inclusive [gc.*] args
     (domain-local allocated words; collection counts are process-wide,
     and OCaml gives no GC *time*, so counts are the attribution unit);
   - task-size statistics, busy-time imbalance, and utilization as
     busy time over [jobs × stream];
   - allocation sites: each span's self allocation on its own track,
     keyed [cat/name].

   The per-domain and allocation numbers come from the same span
   reduction that [--metrics] renders ([Telemetry.reduce]).

   Every job count must produce the identical reconstruction (the
   pool's determinism contract); the doctor cross-checks that too. *)

open Hbbp_analyzer
open Hbbp_collector
module Pool = Hbbp_util.Domain_pool
module Trace = Hbbp_telemetry.Trace
module Runtime_profiler = Hbbp_telemetry.Runtime_profiler
module Telemetry = Hbbp_telemetry.Telemetry
module Json = Hbbp_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Report types                                                        *)

type domain_gc = Telemetry.domain

type jobs_run = {
  jr_jobs : int;
  jr_wall_s : float;
  jr_stream_s : float;
  jr_merge_s : float;
  jr_speedup : float;
  jr_efficiency : float;
  jr_utilization : float;
  jr_imbalance : float;
  jr_task_mean_s : float;
  jr_task_max_s : float;
  jr_domains : domain_gc list;
}

type alloc_site = { site_span : string; site_words : int }

type report = {
  rep_workload : string;
  rep_shards : int;
  rep_records : int;
  rep_runs : jobs_run list;
  rep_consistent : bool;
  rep_degraded : bool;
  rep_alloc_sites : alloc_site list;
}

(* ------------------------------------------------------------------ *)
(* Reading the span tree                                               *)

(* The doctor reads only shards it has just written, so a failure there
   is a bug, raised as [Failure]. *)
let or_fail = function Ok v -> v | Error e -> failwith ("doctor: " ^ e)

let secs (s : Trace.span) = s.dur_us /. 1e6
let is (cat, name) (s : Trace.span) = s.cat = cat && s.name = name
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* The last [doctor/analyze] span recorded on this domain, and the
   list of it and every span recorded inside it.  [Trace.spans] lists a
   span before the spans nested in it, so everything inside lies in the
   suffix that starts at it. *)
let analyze_spans () =
  let track = (Domain.self () :> int) in
  let rec last found = function
    | [] -> found
    | (s : Trace.span) :: rest ->
        last
          (if s.track = track && is ("doctor", "analyze") s then s :: rest
           else found)
          rest
  in
  match last [] (Trace.spans ()) with
  | [] -> invalid_arg "Doctor: no analyze span recorded"
  | a :: rest ->
      let inside (s : Trace.span) =
        s.start_us +. s.dur_us <= a.start_us +. a.dur_us
      in
      (a, a :: List.filter inside rest)

(* Everything measured in one pass, from its analyze span [a], the
   spans inside it and their reduction. *)
let jobs_run ~jobs (a : Trace.span) spans (r : Telemetry.reduction) =
  let merge = sum secs (List.filter (is ("doctor", "merge")) spans) in
  let stream = secs a -. merge in
  let tasks = List.filter (is ("pool", "task")) spans in
  let busy_s (d : domain_gc) = d.busy_s in
  let busy = sum busy_s r.domains in
  let mean n x = if n = 0 then 0.0 else x /. float_of_int n in
  let mean_busy = mean (List.length r.domains) busy in
  {
    jr_jobs = jobs;
    jr_wall_s = secs a;
    jr_stream_s = stream;
    jr_merge_s = merge;
    (* Filled in relative to the jobs=1 run afterwards. *)
    jr_speedup = 1.0;
    jr_efficiency = 1.0;
    jr_utilization =
      (if stream > 0.0 then busy /. (float_of_int jobs *. stream) else 1.0);
    (* Busy-time imbalance over the domains that ran tasks: the
       even-partition ideal is 1.0; a serial bottleneck shows up as
       max/mean > 1. *)
    jr_imbalance =
      (if mean_busy > 0.0 then
         List.fold_left (fun m d -> Float.max m (busy_s d)) 0.0 r.domains
         /. mean_busy
       else 1.0);
    jr_task_mean_s = mean (List.length tasks) (sum secs tasks);
    jr_task_max_s = List.fold_left (fun m s -> Float.max m (secs s)) 0.0 tasks;
    jr_domains = r.domains;
  }

(* One full analysis pass at a given job count: the reconstruction, its
   measurements, and its spans' self allocation.  Each shard goes
   through the drivers' per-archive step; the static view is shared
   (immutable) so the partials satisfy [Partial.merge]'s physical
   equality check. *)
let analyze_at ~static ~meta ~paths ~jobs =
  let r =
    Trace.with_span ~cat:"doctor"
      ~args:[ ("jobs", string_of_int jobs) ]
      "analyze"
    @@ fun () ->
    let partials =
      Pool.run ~jobs
        (fun path ->
          or_fail
            (Result.bind (Pipeline.open_archive path)
               (Pipeline.archive_partial ~static ~meta path)))
        paths
    in
    Trace.with_span ~cat:"doctor" "merge" @@ fun () ->
    match partials with
    | p :: rest ->
        Pipeline.finalize (List.fold_left Pipeline.Partial.merge p rest)
    | [] -> invalid_arg "Doctor: no shards"
  in
  let a, spans = analyze_spans () in
  let reduction = Telemetry.reduce spans in
  (r, jobs_run ~jobs a spans reduction, reduction.self_alloc)

(* Self allocation summed over every pass, by [cat/name], descending. *)
let alloc_sites results =
  let words = Hashtbl.create 16 in
  List.iter
    (fun (_, _, selfs) ->
      List.iter
        (fun (key, n) ->
          Hashtbl.replace words key
            (n + Option.value ~default:0 (Hashtbl.find_opt words key)))
        selfs)
    results;
  Hashtbl.fold
    (fun site_span site_words acc ->
      if site_words > 0 then { site_span; site_words } :: acc else acc)
    words []
  |> List.sort (fun a b ->
         compare (b.site_words, a.site_span) (a.site_words, b.site_span))

let default_max_jobs () = min 4 (Domain.recommended_domain_count ())

let run ?max_jobs ?shards ?config (w : Workload.t) =
  let max_jobs =
    match max_jobs with Some n -> max 1 n | None -> default_max_jobs ()
  in
  let shards = match shards with Some n -> max 1 n | None -> 2 * max_jobs in
  (* Every number comes from the span tree, so trace with the profiler
     on.  Tracing that was off is emptied first, so no stale span falls
     inside an analyze span, and emptied again after. *)
  let tracing = Trace.enabled ()
  and profiling = Runtime_profiler.enabled () in
  if not tracing then Trace.reset ();
  Trace.enable ();
  Runtime_profiler.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not profiling then Runtime_profiler.disable ();
      if not tracing then begin
        Trace.disable ();
        Trace.reset ()
      end)
  @@ fun () ->
  Trace.with_span ~cat:"doctor"
    ~args:[ ("workload", w.Workload.name) ]
    "doctor"
  @@ fun () ->
  let archive =
    Trace.with_span ~cat:"doctor" "collect" (fun () ->
        match Pipeline.collect_many ~jobs:1 ?config [ w ] with
        | [ a ] -> a
        | _ -> assert false)
  in
  let base = Filename.temp_file "hbbp-doctor" ".hbbp" in
  let paths = Perf_data.save_sharded archive ~shards ~path:base in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (List.sort_uniq compare (base :: Manifest.path_for base :: paths)))
  @@ fun () ->
  let static = or_fail (Pipeline.archive_static base archive) in
  let results =
    List.init max_jobs (fun k ->
        analyze_at ~static ~meta:archive ~paths ~jobs:(k + 1))
  in
  let t1 =
    match results with (_, jr, _) :: _ -> jr.jr_wall_s | [] -> assert false
  in
  let runs =
    List.map
      (fun (_, jr, _) ->
        let j = float_of_int jr.jr_jobs in
        {
          jr with
          jr_speedup = (if jr.jr_wall_s > 0.0 then t1 /. jr.jr_wall_s else 1.0);
          jr_efficiency =
            (if jr.jr_wall_s > 0.0 then t1 /. (j *. jr.jr_wall_s) else 1.0);
        })
      results
  in
  let counts (r : Pipeline.reconstruction) = r.Pipeline.r_hbbp.Bbec.counts in
  let consistent =
    match results with
    | (r0, _, _) :: rest ->
        List.for_all (fun (r, _, _) -> compare (counts r0) (counts r) = 0) rest
    | [] -> true
  in
  let degraded =
    match results with
    | (r, _, _) :: _ -> (
        match r.Pipeline.r_quality with
        | Pipeline.Full -> false
        | Pipeline.Degraded _ -> true)
    | [] -> false
  in
  {
    rep_workload = w.Workload.name;
    rep_shards = shards;
    rep_records = List.length archive.Perf_data.records;
    rep_runs = runs;
    rep_consistent = consistent;
    rep_degraded = degraded;
    rep_alloc_sites = alloc_sites results;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let to_json (r : report) =
  let buf = Buffer.create 1024 in
  let run_json (jr : jobs_run) =
    Printf.sprintf
      "{\"jobs\":%d,\"wall_s\":%.6f,\"stream_s\":%.6f,\"merge_s\":%.6f,\"speedup\":%.4f,\"efficiency\":%.4f,\"utilization\":%.4f,\"imbalance\":%.4f,\"task_mean_s\":%.6f,\"task_max_s\":%.6f,\"domains\":[%s]}"
      jr.jr_jobs jr.jr_wall_s jr.jr_stream_s jr.jr_merge_s jr.jr_speedup
      jr.jr_efficiency jr.jr_utilization jr.jr_imbalance jr.jr_task_mean_s
      jr.jr_task_max_s
      (String.concat ","
         (List.map
            (fun (d : domain_gc) ->
              Printf.sprintf
                "{\"domain\":%d,\"tasks\":%d,\"busy_s\":%.6f,\"minor_collections\":%d,\"major_collections\":%d,\"allocated_words\":%d}"
                d.domain d.tasks d.busy_s d.minor d.major d.allocated_words)
            jr.jr_domains))
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"workload\":\"%s\",\"shards\":%d,\"records\":%d,\"consistent\":%b,\"degraded\":%b,\"runs\":[%s],\"alloc_sites\":[%s]}"
       (Json.escape r.rep_workload) r.rep_shards r.rep_records
       r.rep_consistent r.rep_degraded
       (String.concat "," (List.map run_json r.rep_runs))
       (String.concat ","
          (List.map
             (fun s ->
               Printf.sprintf "{\"span\":\"%s\",\"words\":%d}"
                 (Json.escape s.site_span) s.site_words)
             r.rep_alloc_sites)));
  Buffer.contents buf

let pp ppf (r : report) =
  Format.fprintf ppf
    "doctor: workload %s, %d records over %d shard(s)@."
    r.rep_workload r.rep_records r.rep_shards;
  Format.fprintf ppf "  %4s %9s %9s %9s %8s %11s %12s %10s@." "jobs" "wall s"
    "stream s" "merge s" "speedup" "efficiency" "utilization" "imbalance";
  List.iter
    (fun jr ->
      Format.fprintf ppf "  %4d %9.4f %9.4f %9.4f %8.3f %11.3f %12.3f %10.3f@."
        jr.jr_jobs jr.jr_wall_s jr.jr_stream_s jr.jr_merge_s jr.jr_speedup
        jr.jr_efficiency jr.jr_utilization jr.jr_imbalance)
    r.rep_runs;
  (match
     List.find_opt (fun jr -> jr.jr_jobs = List.length r.rep_runs) r.rep_runs
   with
  | Some last when last.jr_domains <> [] ->
      Format.fprintf ppf "  per-domain GC at -j %d:@." last.jr_jobs;
      List.iter
        (fun (d : domain_gc) ->
          Format.fprintf ppf
            "    domain %-3d %5d task(s) %8.4fs busy, %6d minor / %4d major \
             collections, %d words@."
            d.domain d.tasks d.busy_s d.minor d.major d.allocated_words)
        last.jr_domains
  | _ -> ());
  (match r.rep_alloc_sites with
  | [] -> ()
  | sites ->
      Format.fprintf ppf "  top allocation sites by span:@.";
      List.iteri
        (fun k s ->
          if k < 8 then
            Format.fprintf ppf "    %-20s %12d words@." s.site_span
              s.site_words)
        sites);
  Format.fprintf ppf "  reconstruction: %s, %s@."
    (if r.rep_consistent then "identical at every job count"
     else "INCONSISTENT ACROSS JOB COUNTS")
    (if r.rep_degraded then "degraded" else "full quality")
