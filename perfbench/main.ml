(* End-to-end benchmark of the HBBP reproduction.  See README.md.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   main.exe --smoke

   One process, one domain.  The clock starts at launch: set-up builds
   the inputs several times (median reported as setup_s), then the
   registry's tasks run in turn, each while it still fits before the
   deadline (see measure).  Times are in reference seconds (see
   Calibrate).  Every line of stdout is a metric or a note, except the
   last, which is the JSON result.

   --smoke runs each workload once, then its traced replay once, on two
   small registry workloads, writes no result, and exits 1 if a task
   failed. *)

open Hbbp_core
open Outputs
module Perf_data = Hbbp_collector.Perf_data
module Machine = Hbbp_cpu.Machine
module Trace = Hbbp_telemetry.Trace

let now = Unix.gettimeofday

(* Result files, the Chrome trace and the run's temporary archives. *)
let out_dir = "perfbench/out"

(* Every workload of the registry when this benchmark was defined.  The
   list is fixed so that a workload added to the registry later does not
   change what is measured. *)
let registry =
  [
    "perlbench"; "bzip2"; "gcc"; "mcf"; "gobmk"; "hmmer"; "sjeng";
    "libquantum"; "h264ref"; "x264ref"; "omnetpp"; "astar"; "xalancbmk";
    "milc"; "namd"; "dealII"; "soplex"; "povray"; "gamess"; "lbm"; "sphinx3";
    "test40"; "hydro-post"; "hello"; "fitter-x87"; "fitter-sse"; "fitter-avx";
    "fitter-avx-noinline"; "clforward-before"; "clforward-after";
    "train-short-int"; "train-mid-int"; "train-long-fp"; "train-longer";
    "train-shadow"; "train-branchy"; "train-x87"; "train-mixed";
  ]

let smoke_set = [ "mcf"; "clforward-after" ]

type kind = Profile_registry | Collect_shards | Analyze_shards

let kinds =
  [
    ("profile-registry", Profile_registry);
    ("collect-shards", Collect_shards);
    ("analyze-shards", Analyze_shards);
  ]

(* ---- command line --------------------------------------------------- *)

type args = {
  workload : string;
  kind : kind;
  seed : int64;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let usage =
  "usage: main.exe --workload profile-registry|collect-shards|analyze-shards\n\
  \       [--seed N] [--seconds S] [--trace 0|1]\n\
  \       main.exe --smoke"

let parse_args argv =
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let rec go acc = function
    | [] -> acc
    | "--smoke" :: rest -> go { acc with smoke = true } rest
    | [ flag ] -> fail (Printf.sprintf "%s needs a value" flag)
    | flag :: value :: rest ->
        let bad () = fail (Printf.sprintf "bad %s value %S" flag value) in
        let acc =
          match flag with
          | "--workload" -> (
              match List.assoc_opt value kinds with
              | Some kind -> { acc with workload = value; kind }
              | None -> bad ())
          | "--seed" -> (
              match Int64.of_string_opt value with
              | Some seed -> { acc with seed }
              | None -> bad ())
          | "--seconds" -> (
              match float_of_string_opt value with
              | Some s when s > 0.0 -> { acc with seconds = s }
              | _ -> bad ())
          | "--trace" -> (
              match value with
              | "0" -> { acc with trace = false }
              | "1" -> { acc with trace = true }
              | _ -> bad ())
          | _ -> fail (Printf.sprintf "unknown flag %S" flag)
        in
        go acc rest
  in
  let a =
    go
      {
        workload = "";
        kind = Profile_registry;
        seed = Hbbp_cpu.Pmu_model.default.seed;
        seconds = 30.0;
        trace = false;
        smoke = false;
      }
      (List.tl (Array.to_list argv))
  in
  if a.workload = "" && not a.smoke then fail "--workload is required";
  a

(* ---- helpers -------------------------------------------------------- *)

(* Nearest-rank percentile of a non-empty list, [p] in [0, 100]. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- tasks ---------------------------------------------------------- *)

type outcome = {
  digest : string;
  retired : int;
  records : int;
  mix_error : float option;  (** HBBP vs SDE, where SDE ran. *)
}

(* One call into the pipeline.  [run] is the timed part and returns the
   untimed check, which yields the outcome or raises.  [replay] repeats
   the call layer by layer for the traced run (see Layers). *)
type task = {
  name : string;
  run : unit -> unit -> outcome;
  replay : unit -> string * (unit -> unit);
}

let config seed =
  {
    Pipeline.default_config with
    model = { Hbbp_cpu.Pmu_model.default with seed };
  }

let bare_retired (w : Workload.t) =
  (Machine.run (Machine.create ~process:w.live_process ()) ~entry:w.entry ())
    .retired

let profile_task ~config (w : Workload.t) =
  let run () =
    let p = Pipeline.run ~config w in
    fun () ->
      check (Pipeline.sde_pmu_discrepancy p = 0.0) "SDE/PMU discrepancy";
      {
        digest = of_profile p;
        retired = p.stats.retired;
        records = p.record_count;
        mix_error = Some (Pipeline.error_report p p.hbbp).avg_weighted_error;
      }
  in
  { name = w.name; run; replay = (fun () -> Layers.profile ~config w) }

let collect_task ~config ~dir (w : Workload.t) =
  let base = Filename.concat dir (w.name ^ ".hbbp") in
  (* Reading the shards back is the expensive check, made on the first
     run; later runs must publish the same bytes. *)
  let first = ref None in
  let run () =
    let a = Pipeline.collect_archive ~config w in
    let paths = Perf_data.save_sharded a ~shards ~path:base in
    fun () ->
      let digest = files paths in
      match !first with
      | Some o -> { o with digest }
      | None ->
          let read path =
            match Perf_data.load ~path with
            | Ok { archive; ledger = [] } -> archive.records
            | Ok _ -> raise (Check_failed (path ^ ": salvaged on read-back"))
            | Error e ->
                raise
                  (Check_failed
                     (Format.asprintf "%s: %a" path Perf_data.pp_error e))
          in
          check
            (List.concat_map read paths = a.records)
            "shards do not concatenate to the archive";
          let o =
            {
              digest;
              retired = bare_retired w;
              records = List.length a.records;
              mix_error = None;
            }
          in
          first := Some o;
          o
  in
  { name = w.name; run; replay = (fun () -> Layers.collect ~config w ~base) }

(* Set-up of analyze-shards: collect every workload and write its shards
   with plain writes (no fsync, so disk noise stays out of setup_s).
   Runs in a child process so that its heap does not count towards
   peak_heap_mb.  The child leaves in [dir/setup.txt] the set-up's
   reference seconds (each workload timed on its own, see Calibrate),
   then one line per workload: name, records, digest of the batch
   analysis. *)
let analyze_setup ~config ~names ~dir =
  let line name =
    let w = Hbbp_workloads.Registry.find name in
    let a = Pipeline.collect_archive ~config w in
    List.iter
      (fun (path, bytes) ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc bytes))
      (Perf_data.sharded_bytes a ~shards
         ~path:(Filename.concat dir (name ^ ".hbbp")));
    Printf.sprintf "%s %d %s\n" name (List.length a.records)
      (reconstruction (Pipeline.analyze_archive a))
  in
  let timed =
    List.map
      (fun name ->
        let l, dt, scale = Calibrate.time (fun () -> line name) in
        (l, dt *. scale))
      names
  in
  Out_channel.with_open_text (Filename.concat dir "setup.txt") (fun oc ->
      Printf.fprintf oc "%.17g\n"
        (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 timed);
      List.iter (fun (l, _) -> output_string oc l) timed)

let setup_lines dir =
  match
    In_channel.with_open_text (Filename.concat dir "setup.txt")
      In_channel.input_lines
  with
  | seconds :: lines -> (float_of_string seconds, lines)
  | [] -> failwith "analyze-shards set-up left no result"

let forked_setup ~config ~names ~dir () =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          analyze_setup ~config ~names ~dir;
          0
        with e ->
          prerr_endline ("perfbench: set-up failed: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> fst (setup_lines dir)
      | _ -> failwith "analyze-shards set-up failed")

(* [retired] is the workload's retired instruction count, which does not
   depend on the seed: the instructions whose profile the archives
   hold. *)
let analyze_task ~dir line =
  Scanf.sscanf line "%s %d %s" @@ fun name records batch ->
  let retired = bare_retired (Hbbp_workloads.Registry.find name) in
  let base = Filename.concat dir (name ^ ".hbbp") in
  let paths = List.init shards (fun i -> Perf_data.shard_path base i shards) in
  let run () =
    let result = Pipeline.analyze_archives paths in
    fun () ->
      match result with
      | Error e -> raise (Check_failed e)
      | Ok (_, r) ->
          let n = Pipeline.Partial.record_count r.r_partial in
          check (Pipeline.Partial.faults r.r_partial = []) "non-empty ledger";
          check (n = records) "shards hold %d records, the archive %d" n
            records;
          let digest = reconstruction r in
          check (digest = batch) "sharded analysis differs from batch";
          { digest; retired; records; mix_error = None }
  in
  { name; run; replay = (fun () -> Layers.analyze paths) }

(* Set up at least three times and for at least [seconds]; the inputs of
   the last set-up are the ones measured.  [setup ()] returns its
   reference seconds. *)
let timed_setups ~seconds setup =
  let rec go acc n elapsed =
    if n >= 3 && elapsed >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      let t0 = now () in
      let s = setup () in
      go (s :: acc) (n + 1) (elapsed +. (now () -. t0))
    end
  in
  go [] 0 0.0

(* Set-up times and the tasks. *)
let prepare args ~names ~dir =
  let config = config args.seed in
  match args.kind with
  | Profile_registry | Collect_shards ->
      let ws = ref [] in
      let setup () =
        let (), dt, scale =
          Calibrate.time (fun () ->
              ws := List.map Hbbp_workloads.Registry.find names)
        in
        dt *. scale
      in
      (* Milliseconds each: repeated for a second, the median is
         steady. *)
      let setup_s = timed_setups ~seconds:(Float.min 1.0 args.seconds) setup in
      let task =
        if args.kind = Profile_registry then profile_task ~config
        else collect_task ~config ~dir
      in
      (setup_s, List.map task !ws)
  | Analyze_shards ->
      let setup_s =
        timed_setups ~seconds:0.0 (forked_setup ~config ~names ~dir)
      in
      (setup_s, List.map (analyze_task ~dir) (snd (setup_lines dir)))

(* ---- measurement ---------------------------------------------------- *)

type run = {
  setup_s : float list;
  tasks : task array;
  samples : float list array;  (** Per task, reference seconds of each run. *)
  longest : float array;  (** Per task, seconds of its longest run. *)
  outcomes : outcome option array;  (** Per task, the same on every run. *)
  mutable attempted : int;
  mutable failures : (string * string) list;  (** Task, reason. *)
  mutable passes : int;  (** Whole passes; replay passes when traced. *)
  mutable traced_wall : float;  (** Traced run: time spent in replays. *)
  mutable overheads : float list;
      (** Traced run: per replay, the traced production path ÷ the
          untraced call. *)
  mutable top_heap_words : int;  (** After the first pass. *)
}

let catch f =
  try Ok (f ()) with
  | Check_failed m -> Error m
  | e -> Error (Printexc.to_string e)

(* Each call starts from a collected heap, so its time does not depend
   on what ran before it. *)
let attempt r i =
  let task = r.tasks.(i) in
  let fail reason = r.failures <- (task.name, reason) :: r.failures in
  r.attempted <- r.attempted + 1;
  Gc.full_major ();
  let result, dt, scale = Calibrate.time (fun () -> catch task.run) in
  r.longest.(i) <- Float.max r.longest.(i) dt;
  match result with
  | Error e -> fail e
  | Ok check_outcome -> (
      match catch check_outcome with
      | Error e -> fail e
      | Ok o -> (
          match r.outcomes.(i) with
          | Some first when first.digest <> o.digest ->
              fail "output differs from the first pass"
          | _ ->
              r.outcomes.(i) <- Some o;
              r.samples.(i) <- (dt *. scale) :: r.samples.(i)))

(* The traced repetition of task [i]; it must reproduce the production
   call's output. *)
let replay r i =
  let task = r.tasks.(i) in
  let fail reason =
    r.failures <- (task.name, "replay: " ^ reason) :: r.failures
  in
  match r.outcomes.(i) with
  | None -> ()
  | Some o -> (
      r.attempted <- r.attempted + 1;
      Gc.full_major ();
      let replayed, dt, scale = Calibrate.time (fun () -> catch task.replay) in
      r.traced_wall <- r.traced_wall +. dt;
      match replayed with
      | Error e -> fail e
      | Ok (digest, _) when digest <> o.digest ->
          fail "layer replay differs from the production call"
      | Ok (_, check_replay) -> (
          r.overheads <-
            (!Layers.last_task_s *. scale /. List.hd r.samples.(i))
            :: r.overheads;
          match catch check_replay with Error e -> fail e | Ok () -> ()))

(* A task or a pass starts only if one this much longer than the longest
   of it so far would still end by the run's deadline. *)
let margin = 1.25

(* The deadline is [seconds] after [t_start], or a third of [seconds]
   after set-up if set-up took longer than the rest: analyze-shards sets
   up for 20 s on a quiet host and over 40 s on a busy one, and its tasks
   need several runs each for a steady median.
   Untraced: one pass over every task, then the tasks again in turn,
   each while it still fits, so that the run fills its time and no task
   has two runs more than another.  Traced: one untraced pass, which
   times the production path, then whole traced replay passes while one
   more fits; tracing stays on throughout the replays so that every span
   shares one time origin. *)
let measure args ~names ~dir ~t_start =
  let setup_s, tasks = prepare args ~names ~dir in
  let deadline =
    Float.max (t_start +. args.seconds) (now () +. (args.seconds /. 3.0))
  in
  let n = List.length tasks in
  let r =
    {
      setup_s;
      tasks = Array.of_list tasks;
      samples = Array.make n [];
      longest = Array.make n 0.0;
      outcomes = Array.make n None;
      attempted = 0;
      failures = [];
      passes = 0;
      traced_wall = 0.0;
      overheads = [];
      top_heap_words = 0;
    }
  in
  let fits longest = now () +. (margin *. longest) <= deadline in
  let longest_pass = ref 0.0 in
  let pass f =
    let t0 = now () in
    for i = 0 to n - 1 do
      f r i
    done;
    r.passes <- r.passes + 1;
    longest_pass := Float.max !longest_pass (now () -. t0)
  in
  pass attempt;
  if not args.trace then begin
    (* Heap fragments over a long run (OCaml 5.1 does not compact), so
       the peak is taken after one pass, whatever the run's length. *)
    r.top_heap_words <- (Gc.quick_stat ()).top_heap_words;
    let rec again i =
      if fits r.longest.(i) then begin
        attempt r i;
        again ((i + 1) mod n)
      end
    in
    again 0;
    r.passes <- r.attempted / n
  end
  else begin
    r.passes <- 0;
    Trace.enable ();
    pass replay;
    while fits !longest_pass do
      pass replay
    done;
    Trace.disable ()
  end;
  r

(* ---- metrics -------------------------------------------------------- *)

(* The tail is the highest nearest-rank percentile of the registry's 38
   task times that leaves at least ten tasks beyond it. *)
let tail_percentile = 70.0

(* [(name, value, unit)] of every end-to-end metric.  Each task's time is
   the median of its runs in reference seconds. *)
let end_to_end (r : run) =
  let per_task =
    List.filter_map
      (fun i ->
        match (r.samples.(i), r.outcomes.(i)) with
        | [], _ | _, None -> None
        | xs, Some o -> Some (median xs, o))
      (List.init (Array.length r.tasks) Fun.id)
  in
  if per_task = [] then []
  else
    let times = List.map fst per_task in
    let total = List.fold_left ( +. ) 0.0 times in
    let work f =
      float_of_int (List.fold_left (fun acc (_, o) -> acc + f o) 0 per_task)
    in
    [
      ("setup_s", median r.setup_s, "s");
      ("retired_per_s", work (fun o -> o.retired) /. total, "1/s");
      ("records_per_s", work (fun o -> o.records) /. total, "1/s");
      ("task_p50_s", median times, "s");
      ("task_tail_s", percentile tail_percentile times, "s");
      ( "peak_heap_mb",
        float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1048576.0,
        "MiB" );
    ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v)
             u)
         metrics)
  ^ "}"

let loadavg_1m () =
  try
    In_channel.with_open_text "/proc/loadavg" (fun ic ->
        Scanf.sscanf (In_channel.input_all ic) "%f" Option.some)
  with _ -> None

(* The outputs every speed-only change must leave as they are. *)
let digest_of (r : run) =
  Outputs.digest (Array.map (Option.map (fun o -> o.digest)) r.outcomes)

(* Mean HBBP-vs-SDE weighted mix error in percent, where SDE ran. *)
let mix_error_of (r : run) =
  match
    List.filter_map
      (fun o -> Option.bind o (fun o -> o.mix_error))
      (Array.to_list r.outcomes)
  with
  | [] -> None
  | es ->
      Some
        (100.0 *. List.fold_left ( +. ) 0.0 es /. float_of_int (List.length es))

(* HBBP reconstructs mixes within a few percent of the SDE reference
   (the paper reports ~2%); an average above 5% means broken output. *)
let accurate r = match mix_error_of r with Some e -> e <= 5.0 | None -> true

(* The result file: a header recording how and where the run was made,
   then the metrics and the output digest. *)
let result_json args (r : run) ~metrics ~wall_s =
  let fields =
    [
      ("bench", Printf.sprintf "%S" "perfbench");
      ("workload", Printf.sprintf "%S" args.workload);
      ("seed", Int64.to_string args.seed);
      ("seconds", number args.seconds);
      ("trace", string_of_bool args.trace);
      ("jobs", "1");
      ( "host_recommended_domains",
        string_of_int (Domain.recommended_domain_count ()) );
      ( "loadavg_1m",
        match loadavg_1m () with
        | Some l -> Printf.sprintf "%.2f" l
        | None -> "null" );
      ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
      ("tasks", string_of_int (Array.length r.tasks));
      ("passes", string_of_int r.passes);
      ("wall_s", Printf.sprintf "%.1f" wall_s);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int (List.length r.failures));
      ("digest", Printf.sprintf "%S" (digest_of r));
      ( "mix_error_pct",
        match mix_error_of r with Some e -> number e | None -> "null" );
      ("metrics", metrics_json metrics);
    ]
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)
  ^ "\n}\n"

let with_work_dir parent f =
  let dir = Filename.concat parent (Printf.sprintf "work.%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let bench args ~t_start =
  let r =
    with_work_dir out_dir (fun dir ->
        measure args ~names:registry ~dir ~t_start)
  in
  let metrics =
    if args.trace then
      Layers.per_layer ~passes:r.passes ~traced_wall:r.traced_wall
        ~overhead:(if r.overheads = [] then 0.0 else median r.overheads)
    else end_to_end r
  in
  List.iter
    (fun (name, v, u) -> Printf.printf "%-36s %s %s\n" name (number v) u)
    metrics;
  if not args.trace then
    Printf.printf "%-36s p%.0f of %d task times\n" "task_tail_s is"
      tail_percentile (Array.length r.tasks);
  Option.iter (Printf.printf "%-36s %.4f %%\n" "mix_error_pct") (mix_error_of r);
  Printf.printf "%-36s %s\n" "digest" (digest_of r);
  Printf.printf "%-36s %d\n" "passes" r.passes;
  List.iter (fun (t, why) -> Printf.printf "failed %s: %s\n" t why) r.failures;
  let name =
    Printf.sprintf "%s.%s.json" args.workload
      (if args.trace then "trace" else "e2e")
  in
  let wall_s = now () -. t_start in
  Out_channel.with_open_text (Filename.concat out_dir name) (fun oc ->
      output_string oc (result_json args r ~metrics ~wall_s));
  if args.trace then
    Trace.write
      ~path:(Filename.concat out_dir ("trace." ^ args.workload ^ ".json"));
  let failed = List.length r.failures in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": %s}|}
    (failed = 0 && accurate r && metrics <> [])
    r.attempted failed (metrics_json metrics);
  print_newline ()

(* One production pass and one replay pass of every workload over the
   smoke set, in a work directory under the current one. *)
let smoke args =
  let ok =
    List.for_all
      (fun (workload, kind) ->
        let args = { args with workload; kind; trace = true; seconds = 0.0 } in
        let r =
          with_work_dir Filename.current_dir_name (fun dir ->
              measure args ~names:smoke_set ~dir ~t_start:(now ()))
        in
        Trace.reset ();
        List.iter
          (fun (t, why) ->
            Printf.eprintf "perfbench smoke: %s %s failed: %s\n" workload t why)
          r.failures;
        let complete =
          r.attempted = 2 * List.length smoke_set && r.failures = []
        in
        if not (accurate r) then
          Printf.eprintf "perfbench smoke: %s mix error above 5%%\n" workload;
        complete && accurate r)
      kinds
  in
  if not ok then exit 1

let () =
  let t_start = now () in
  let args = parse_args Sys.argv in
  if args.smoke then smoke args else bench args ~t_start
