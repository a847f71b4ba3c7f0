(* Shared infrastructure for the table/figure reproductions: profile
   caching (each workload is simulated once per bench run) and the
   formatting helpers the tables share.

   The cache is filled up front by [preload], which fans the whole sweep
   out over a domain pool; afterwards every [profile] call is a hit and
   the tables render from identical data regardless of the job count. *)

open Hbbp_core

let clock_ghz = 3.0

(* Simulated wall-clock seconds for a cycle count. *)
let seconds cycles = float_of_int cycles /. (clock_ghz *. 1e9)

(* Parallelism of the bench run: -j on the command line, else HBBP_JOBS,
   else the host's recommended domain count.  Set by main before any
   bench target runs. *)
let jobs = ref (Hbbp_util.Domain_pool.default_jobs ())

let cache : (string, Pipeline.profile) Hashtbl.t = Hashtbl.create 64

let profile ?(config = Pipeline.default_config) (w : Workload.t) =
  let key = w.Workload.name in
  match Hashtbl.find_opt cache key with
  | Some p -> p
  | None ->
      let p = Pipeline.run ~config w in
      Hashtbl.replace cache key p;
      p

(* x264ref is profiled with the buggy instrumentation configuration to
   reproduce the paper's footnote 2. *)
let spec_config name =
  if String.equal name Hbbp_workloads.Spec.buggy_benchmark then
    {
      Pipeline.default_config with
      sde =
        {
          Hbbp_instrument.Sde.default_config with
          bug_mnemonic = Some Hbbp_workloads.Spec.bug_mnemonic;
        };
    }
  else Pipeline.default_config

let profile_spec name =
  profile ~config:(spec_config name) (Hbbp_workloads.Spec.find name)

(* Every workload the tables/figures touch, with the config each one is
   profiled under. *)
let sweep_entries () =
  let spec =
    List.map
      (fun name -> (spec_config name, Hbbp_workloads.Spec.find name))
      Hbbp_workloads.Spec.names
  in
  let others =
    [
      Hbbp_workloads.Test40.workload ();
      Hbbp_workloads.Hydro.workload ();
      Hbbp_workloads.Kernelbench.workload ();
      Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.X87;
      Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Sse;
      Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Avx;
      Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Avx_noinline;
      Hbbp_workloads.Clforward.workload Hbbp_workloads.Clforward.Before;
      Hbbp_workloads.Clforward.workload Hbbp_workloads.Clforward.After;
    ]
  in
  spec
  @ List.map
      (fun w -> (Pipeline.default_config, w))
      (others @ Hbbp_workloads.Training_set.all ())

(* Profile the full sweep in parallel and fill the cache.  Workloads
   already cached (e.g. by an earlier target in the same run) are not
   re-profiled. *)
let preload ?jobs:j () =
  let jobs = match j with Some n -> n | None -> !jobs in
  let entries =
    List.filter
      (fun ((_, w) : Pipeline.config * Workload.t) ->
        not (Hashtbl.mem cache w.Workload.name))
      (sweep_entries ())
  in
  let profiles =
    Hbbp_util.Domain_pool.run ~jobs
      (fun (config, w) -> Pipeline.run ~config w)
      entries
  in
  List.iter2
    (fun ((_, w) : Pipeline.config * Workload.t) p ->
      Hashtbl.replace cache w.Workload.name p)
    entries profiles

(* ---- same-process overhead rounds ----------------------------------- *)

(* A 1% overhead gate on a shared host, where per-round timings spread
   by several percent, is only meaningful as a median of per-round
   ratios over many rounds, each timing the two variants back to back
   in alternating order so host drift and heap state hit both alike. *)
let overhead_rounds = 101

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* [alternating round a b] — [(timed a, timed b)], with [a] run first on
   even rounds and [b] first on odd ones. *)
let alternating round a b =
  if round mod 2 = 0 then
    let ra = timed a in
    (ra, timed b)
  else
    let rb = timed b in
    (timed a, rb)

(* Median of [f] over [xs] (the upper one for an even count). *)
let median f xs =
  let sorted = List.sort compare (List.map f xs) in
  List.nth sorted (List.length sorted / 2)

(* ---- unified BENCH_*.json header ----------------------------------- *)

(* Every BENCH_*.json opens with the same header fields, so tooling that
   trends results across commits can join the files on one schema
   without per-bench special cases. *)
let schema_version = 1

let utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Best effort: benches must also run from an exported tree. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* The opening fields of a BENCH_*.json object (no surrounding braces,
   no trailing comma); writers embed it as the first line after [{]. *)
let json_header ~bench =
  Printf.sprintf
    {|"schema_version": %d,
  "bench": "%s",
  "utc": "%s",
  "host_recommended_domains": %d,
  "ocaml_version": "%s",
  "git_rev": "%s"|}
    schema_version bench (utc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_rev ())

(* Atomic publication of bench artifacts: format into memory, then
   tmp+rename through Durable (no fsync — the overhead gates measure
   the same machinery they guard).  A killed bench run never leaves a
   torn BENCH_*.json behind for the trending tooling to choke on. *)
let write_out path fmt =
  Printf.ksprintf
    (fun s -> Hbbp_durable.Durable.write_file ~fsync:false ~path s)
    fmt

let avg_weighted_error p bbec =
  (Pipeline.error_report p bbec).Hbbp_core.Error.avg_weighted_error

let hbbp_error p = avg_weighted_error p p.Pipeline.hbbp
let lbr_error p = avg_weighted_error p p.Pipeline.lbr.Hbbp_analyzer.Lbr_estimator.bbec
let ebs_error p = avg_weighted_error p p.Pipeline.ebs.Hbbp_analyzer.Ebs_estimator.bbec

let pct v = Printf.sprintf "%.2f%%" (v *. 100.0)

let header ppf title =
  Format.fprintf ppf "@.==== %s ====@." title

let training_profiles = lazy (List.map profile (Hbbp_workloads.Training_set.all ()))

let trained = lazy (Training.train (Lazy.force training_profiles))
