open Hbbp_isa
open Hbbp_program
open Hbbp_cpu
open Hbbp_analyzer
open Hbbp_collector
module Trace = Hbbp_telemetry.Trace

(* ------------------------------------------------------------------ *)
(* Reconstruction quality and graceful degradation                     *)

type degrade_reason =
  | Archive_fault of string
  | Lost_records of int
  | Ebs_starved of { samples : int; unattributed_share : float }
  | Lbr_starved of { snapshots : int; failure_rate : float }
  | Fallback of [ `Ebs_only | `Lbr_only ]
  | Flow_violation of {
      conservation_error : float;
      total_residual : float;
      worst_block : int option;
    }

type quality = Full | Degraded of degrade_reason list

let pp_degrade_reason ppf = function
  | Archive_fault s -> Format.fprintf ppf "archive: %s" s
  | Lost_records n -> Format.fprintf ppf "%d lost records" n
  | Ebs_starved { samples; unattributed_share } ->
      Format.fprintf ppf "EBS starved (%d samples, %.0f%% unattributed)"
        samples (100.0 *. unattributed_share)
  | Lbr_starved { snapshots; failure_rate } ->
      Format.fprintf ppf "LBR starved (%d snapshots, %.0f%% stream failures)"
        snapshots (100.0 *. failure_rate)
  | Fallback `Ebs_only -> Format.pp_print_string ppf "EBS-only fallback"
  | Fallback `Lbr_only -> Format.pp_print_string ppf "LBR-only fallback"
  | Flow_violation { conservation_error; total_residual; worst_block } ->
      Format.fprintf ppf
        "flow conservation violated (error %.3f, %.0f unexplained \
         executions%a)"
        conservation_error total_residual
        (fun ppf -> function
          | Some gid -> Format.fprintf ppf ", worst at block %d" gid
          | None -> ())
        worst_block

let pp_quality ppf = function
  | Full -> Format.pp_print_string ppf "full"
  | Degraded reasons ->
      Format.fprintf ppf "degraded (%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_degrade_reason)
        reasons

type thresholds = {
  min_ebs_samples : int;
  max_unattributed_share : float;
  min_lbr_snapshots : int;
  max_stream_failure : float;
  max_lost_records : int;
  max_conservation_error : float;
}

let default_thresholds =
  {
    min_ebs_samples = 8;
    max_unattributed_share = 0.5;
    min_lbr_snapshots = 4;
    max_stream_failure = 0.6;
    max_lost_records = 0;
    (* Healthy sampled reconstructions of the bundled workloads stay
       under 0.035; systematic corruption pushes the score towards 1. *)
    max_conservation_error = 0.15;
  }

type repair_mode = Off | Report | Apply

type config = {
  model : Pmu_model.t;
  criteria : Criteria.t;
  periods : [ `Auto | `Fixed of Period.pair ];
  sde : Hbbp_instrument.Sde.config;
  max_instructions : int;
  count_events : Pmu_event.t list;
  thresholds : thresholds;
  engine : Machine.engine;
  repair : repair_mode;
}

let default_config =
  {
    model = Pmu_model.default;
    criteria = Criteria.default;
    periods = `Auto;
    sde = Hbbp_instrument.Sde.default_config;
    max_instructions = 2_000_000_000;
    count_events = [ Pmu_event.Inst_retired_any ];
    thresholds = default_thresholds;
    engine = Machine.Superblock;
    repair = Report;
  }

type profile = {
  workload : Workload.t;
  config : config;
  stats : Machine.run_stats;
  pmu_health : Pmu.health;
  clean_cycles : int;
  static : Static.t;
  static_unpatched : Static.t;
  reference : Bbec.t;
  reference_mix : (Mnemonic.t * float) list;
  ebs : Ebs_estimator.t;
  lbr : Lbr_estimator.t;
  bias : Bias.t;
  hbbp : Bbec.t;
  sim_periods : Period.pair;
  paper_periods : Period.pair;
  collection_overhead : float;
  sde_slowdown : float;
  sde_total : int64;
  sde_lost_kernel : int;
  pmu_counts : (Pmu_event.t * int64) list;
  record_count : int;
  quality : quality;
  repair_report : Hbbp_verifier.Repair.report option;
}

let user_maps static =
  List.filter_map
    (fun (img : Image.t) ->
      if Ring.equal img.ring Ring.User then
        Static.map_of_image static img.name
      else None)
    (Process.images (Static.process static))

(* ------------------------------------------------------------------ *)
(* Mergeable partial reconstruction state                              *)

(* Everything a reconstruction needs from the record stream, in
   mergeable form: the estimator and bias accumulators (integer-domain,
   so merges are exact) plus the stream-level tallies the quality
   verdict reads.  Chunks feed in arrival order; partials from
   contiguous shards merge in order; [finalize] turns the merged state
   into a reconstruction.  Feeding a stream as one chunk, as many
   chunks, or as per-shard partials merged later all produce
   bit-identical reconstructions. *)
module Partial = struct
  type t = {
    static : Static.t;
    ebs_period : int;
    lbr_period : int;
    ebs_acc : Ebs_estimator.Acc.acc;
    lbr_acc : Lbr_estimator.Acc.acc;
    bias_acc : Bias.Acc.acc;
    mutable records : int;
    mutable ebs_samples : int;
    mutable lbr_snapshots : int;
    mutable other_samples : int;
    mutable lost : int;
    mutable faults_rev : Perf_data.fault list;
  }

  (* The LBR-estimator and bias accumulators look up the same streams,
     so they share one walk table. *)
  let create ~static ~ebs_period ~lbr_period () =
    let memo = Stream_walk.Memo.create () in
    {
      static;
      ebs_period;
      lbr_period;
      ebs_acc = Ebs_estimator.Acc.create static;
      lbr_acc = Lbr_estimator.Acc.create ~memo static;
      bias_acc = Bias.Acc.create ~memo ();
      records = 0;
      ebs_samples = 0;
      lbr_snapshots = 0;
      other_samples = 0;
      lost = 0;
      faults_rev = [];
    }

  let static t = t.static
  let ebs_period t = t.ebs_period
  let lbr_period t = t.lbr_period
  let record_count t = t.records
  let ebs_samples t = t.ebs_samples
  let lbr_snapshots t = t.lbr_snapshots
  let other_samples t = t.other_samples
  let lost_records t = t.lost
  let faults t = List.rev t.faults_rev
  let walks t = Lbr_estimator.Acc.walks t.lbr_acc

  (* One sample, field by field.  Neither LBR accumulator keeps
     [entries], so it may be the archive reader's scratch array. *)
  let add_sample t event ip ring entries =
    t.records <- t.records + 1;
    match event with
    | Pmu_event.Inst_retired_prec_dist ->
        t.ebs_samples <- t.ebs_samples + 1;
        Ebs_estimator.Acc.add t.static t.ebs_acc { Sample_db.ip; ring }
    | Pmu_event.Br_inst_retired_near_taken ->
        t.lbr_snapshots <- t.lbr_snapshots + 1;
        let sample = { Sample_db.entries; ring } in
        Lbr_estimator.Acc.add t.static t.lbr_acc sample;
        Bias.Acc.add t.static t.bias_acc sample
    | _ -> t.other_samples <- t.other_samples + 1

  let add t (r : Record.t) =
    match r with
    | Record.Sample s ->
        add_sample t s.Record.event s.Record.ip s.Record.ring s.Record.lbr
    | Record.Lost n ->
        t.records <- t.records + 1;
        t.lost <- t.lost + n
    | Record.Comm _ | Record.Mmap _ | Record.Fork _ ->
        t.records <- t.records + 1

  let feed t chunk =
    Trace.with_span ~cat:"analyze" "chunk" (fun () -> List.iter (add t) chunk)

  let note_faults t faults =
    List.iter (fun f -> t.faults_rev <- f :: t.faults_rev) faults

  (* The archive's remaining records, decoded straight into [t] one
     chunk at a time (no record is built but the rare non-sample ones),
     then its ledger.  A span opens only while records are left, so a
     clean archive has one per non-empty chunk. *)
  let feed_stream t s =
    let k =
      {
        Perf_data.Stream.sample =
          (fun event ip ring _time entries ->
            add_sample t event ip ring entries);
        other = add t;
      }
    in
    let chunk () = ignore (Perf_data.Stream.fold s k) in
    while not (Perf_data.Stream.at_end s) do
      Trace.with_span ~cat:"analyze" "chunk" chunk
    done;
    note_faults t (Perf_data.Stream.ledger s)

  let merge a b =
    if not (a.static == b.static) then
      invalid_arg "Pipeline.Partial.merge: partials must share one static view";
    if a.ebs_period <> b.ebs_period || a.lbr_period <> b.lbr_period then
      invalid_arg "Pipeline.Partial.merge: sampling period mismatch";
    {
      static = a.static;
      ebs_period = a.ebs_period;
      lbr_period = a.lbr_period;
      ebs_acc = Ebs_estimator.Acc.merge a.ebs_acc b.ebs_acc;
      lbr_acc = Lbr_estimator.Acc.merge a.lbr_acc b.lbr_acc;
      bias_acc = Bias.Acc.merge a.bias_acc b.bias_acc;
      records = a.records + b.records;
      ebs_samples = a.ebs_samples + b.ebs_samples;
      lbr_snapshots = a.lbr_snapshots + b.lbr_snapshots;
      other_samples = a.other_samples + b.other_samples;
      lost = a.lost + b.lost;
      faults_rev = b.faults_rev @ a.faults_rev;
    }

  (* ---------------------------------------------------------------- *)
  (* Checkpoint serialization: one {!Hbbp_util.Codec} frame of the
     tallies, each accumulator's own section and the fault ledger.
     Everything in a partial is integer-domain, so serialize/restore is
     an exact round trip and a resumed analysis finalizes to the same
     bytes as an uninterrupted one. *)

  open Hbbp_util.Codec

  let magic = "HBBPPART"
  (* Version 2 added the bias accumulator's stream set. *)
  let serialize_version = 2

  let sections =
    [| Perf_data.Header; Perf_data.Images; Perf_data.Kernel_text;
       Perf_data.Records |]

  let w_fault w = function
    | Perf_data.Checksum_mismatch s ->
        w_u8 w 0;
        w_u8 w (Option.get (Array.find_index (( = ) s) sections))
    | Perf_data.Truncated_records { expected; salvaged } ->
        w_u8 w 1;
        w_i64 w (Option.value expected ~default:(-1));
        w_i64 w salvaged
    | Perf_data.Corrupt_records { index; reason; salvaged } ->
        w_u8 w 2;
        w_i64 w index;
        w_i64 w salvaged;
        w_str w reason

  let r_fault s =
    match r_u8 s with
    | 0 -> (
        match r_u8 s with
        | code when code < Array.length sections ->
            Perf_data.Checksum_mismatch sections.(code)
        | code -> raise (Bad (Printf.sprintf "bad section code %d" code)))
    | 1 ->
        let expected = r_i64 s in
        let salvaged = r_i64 s in
        Perf_data.Truncated_records
          { expected = (if expected < 0 then None else Some expected);
            salvaged }
    | 2 ->
        let index = r_i64 s in
        let salvaged = r_i64 s in
        Perf_data.Corrupt_records { index; salvaged; reason = r_str s }
    | t -> raise (Bad (Printf.sprintf "bad fault tag %d" t))

  let serialize t =
    frame ~magic ~version:serialize_version
      [
        (fun w ->
          List.iter (w_i64 w)
            [ t.ebs_period; t.lbr_period; t.records; t.ebs_samples;
              t.lbr_snapshots; t.other_samples; t.lost ]);
        (fun w -> Ebs_estimator.Acc.write w t.ebs_acc);
        (fun w -> Lbr_estimator.Acc.write w t.lbr_acc);
        (fun w -> Bias.Acc.write ~static:t.static w t.bias_acc);
        (fun w -> w_list w w_fault (List.rev t.faults_rev));
      ]

  let restore ~static data =
    unframe ~magic ~version:serialize_version data @@ fun c ->
    let tallies = r_section c (fun s -> Array.init 7 (fun _ -> r_i64 s)) in
    let ebs_acc = r_section c (Ebs_estimator.Acc.read ~static) in
    let lbr_acc = r_section c (Lbr_estimator.Acc.read ~static) in
    let bias_acc = r_section c (Bias.Acc.read ~static) in
    let faults = r_section c (fun s -> r_list s r_fault) in
    {
      static;
      ebs_period = tallies.(0);
      lbr_period = tallies.(1);
      ebs_acc;
      lbr_acc;
      bias_acc;
      records = tallies.(2);
      ebs_samples = tallies.(3);
      lbr_snapshots = tallies.(4);
      other_samples = tallies.(5);
      lost = tallies.(6);
      faults_rev = List.rev faults;
    }
end

type reconstruction = {
  r_static : Static.t;
  r_ebs : Ebs_estimator.t;
  r_lbr : Lbr_estimator.t;
  r_bias : Bias.t;
  r_hbbp : Bbec.t;
  r_quality : quality;
  r_flow : Hbbp_verifier.Flow.report;
  r_repair : Hbbp_verifier.Repair.report option;
  r_partial : Partial.t;
}

(* The share of the LBR streams that failed to walk. *)
let stream_failure_rate (lbr : Lbr_estimator.t) =
  let streams =
    lbr.usable_streams + lbr.inconsistent_streams + lbr.discarded_streams
  in
  if streams = 0 then 0.0
  else float_of_int (streams - lbr.usable_streams) /. float_of_int streams

(* Sampling-health args of one reconstruction: everything the paper
   blames estimator error on, as observed by the analyzer itself. *)
let reconstruction_args ~(ebs : Ebs_estimator.t) ~(lbr : Lbr_estimator.t)
    ~bias quality =
  let reasons = match quality with Full -> [] | Degraded rs -> rs in
  let tally key n = if n > 0 then [ Trace.int_arg key n ] else [] in
  let count p = List.length (List.filter p reasons) in
  [
    Trace.int_arg "ebs.samples"
      (Array.fold_left ( + ) ebs.unattributed ebs.raw);
    Trace.int_arg "ebs.unattributed_samples" ebs.unattributed;
    Trace.int_arg "lbr.snapshots" lbr.snapshots;
    Trace.int_arg "lbr.streams_usable" lbr.usable_streams;
    Trace.int_arg "lbr.streams_inconsistent" lbr.inconsistent_streams;
    Trace.int_arg "lbr.streams_discarded" lbr.discarded_streams;
    Trace.float_arg "lbr.stream_failure_rate" (stream_failure_rate lbr);
    Trace.int_arg "bias.flagged_blocks"
      (List.length (Bias.flagged_blocks bias));
  ]
  @ tally "degrade.reconstructions" (Bool.to_int (reasons <> []))
  @ tally "degrade.reasons" (List.length reasons)
  @ tally "degrade.fallback_ebs_only" (count (( = ) (Fallback `Ebs_only)))
  @ tally "degrade.fallback_lbr_only" (count (( = ) (Fallback `Lbr_only)))
  @ tally "degrade.archive_faults"
      (count (function Archive_fault _ -> true | _ -> false))
  @ tally "degrade.flow_violations"
      (count (function Flow_violation _ -> true | _ -> false))
  @ tally "degrade.lost_records"
      (List.fold_left
         (fun n -> function Lost_records k -> n + k | _ -> n)
         0 reasons)

(* Channel health against the configured thresholds: the analyzer-side
   analogue of the PMU's own sampling-health accounting.  A channel is
   "starved" when it cannot plausibly support per-block estimation on
   its own — the situations the paper's decision criteria assume never
   happen on healthy hardware. *)
let assess_quality (th : thresholds) ~ledger ~lost ~(ebs : Ebs_estimator.t)
    ~(lbr : Lbr_estimator.t) =
  let ebs_total =
    Array.fold_left ( + ) ebs.Ebs_estimator.unattributed ebs.Ebs_estimator.raw
  in
  let unattributed_share =
    if ebs_total = 0 then 1.0
    else float_of_int ebs.Ebs_estimator.unattributed /. float_of_int ebs_total
  in
  let ebs_bad =
    ebs_total < th.min_ebs_samples
    || unattributed_share > th.max_unattributed_share
  in
  let failure_rate = stream_failure_rate lbr in
  let lbr_bad =
    lbr.Lbr_estimator.snapshots < th.min_lbr_snapshots
    || failure_rate > th.max_stream_failure
  in
  let fallback =
    if ebs_bad && not lbr_bad then Some `Lbr_only
    else if lbr_bad && not ebs_bad then Some `Ebs_only
    else None
  in
  let reasons =
    List.map
      (fun f -> Archive_fault (Format.asprintf "%a" Perf_data.pp_fault f))
      ledger
    @ (if lost > th.max_lost_records then [ Lost_records lost ] else [])
    @ (if ebs_bad then
         [ Ebs_starved { samples = ebs_total; unattributed_share } ]
       else [])
    @ (if lbr_bad then
         [ Lbr_starved { snapshots = lbr.Lbr_estimator.snapshots; failure_rate } ]
       else [])
    @ match fallback with Some f -> [ Fallback f ] | None -> []
  in
  let quality = if reasons = [] then Full else Degraded reasons in
  (quality, fallback)

(* Single-channel reconstruction reuses the fusion path: a length rule
   with cutoff 0 sends every block to EBS, cutoff max_int to LBR. *)
let fallback_criteria = function
  | `Ebs_only -> Criteria.Length_rule { cutoff = 0; bias_to_ebs = false }
  | `Lbr_only -> Criteria.Length_rule { cutoff = max_int; bias_to_ebs = false }

(* Turn accumulated partial state into a reconstruction.  The partial
   holds everything bias contamination needs, so [replay] is ignored
   (see pipeline.mli).  All reconstruction entry points — batch,
   streaming, merged shards — go through here, which is what makes them
   bit-identical. *)
let finalize ?(criteria = Criteria.default) ?(thresholds = default_thresholds)
    ?(repair = Report) ?replay:_ (p : Partial.t) =
  let span name f = Trace.with_span ~cat:"analyze" name f in
  span "finalize" @@ fun () ->
  let static = Partial.static p in
  let ebs =
    span "ebs_finalize" (fun () ->
        Ebs_estimator.finalize static ~period:(Partial.ebs_period p)
          p.Partial.ebs_acc)
  in
  let lbr =
    span "lbr_finalize" (fun () ->
        Lbr_estimator.finalize static ~period:(Partial.lbr_period p)
          p.Partial.lbr_acc)
  in
  let bias =
    span "bias_finalize" (fun () ->
        Bias.finalize static p.Partial.bias_acc ~replay:None)
  in
  let quality, fallback =
    assess_quality thresholds ~ledger:(Partial.faults p)
      ~lost:(Partial.lost_records p) ~ebs ~lbr
  in
  let criteria =
    match fallback with
    | None -> criteria
    | Some which -> fallback_criteria which
  in
  let hbbp =
    span "fuse" (fun () -> Combine.fuse static ~criteria ~bias ~ebs ~lbr)
  in
  (* Kirchhoff cross-check of the fused counts: badly non-conserving
     flow means the reconstruction is internally inconsistent no matter
     how healthy each channel looked on its own. *)
  let violated (flow : Hbbp_verifier.Flow.report) =
    flow.conservation_error > thresholds.max_conservation_error
  in
  let fstruct, flow =
    Trace.with_span ~cat:"verify" "flow_check" (fun () ->
        let s = Hbbp_verifier.Flow.structure static in
        let flow = Hbbp_verifier.Flow.check_with s hbbp in
        Trace.annotate (fun () ->
            [
              Trace.int_arg "verify.flow_checks" 1;
              Trace.int_arg "verify.flow_violations"
                (Bool.to_int (violated flow));
              Trace.float_arg "verify.conservation_error"
                flow.conservation_error;
              Trace.float_arg "verify.flow_residual" flow.total_residual;
            ]);
        (s, flow))
  in
  let quality =
    if violated flow then begin
      let reason =
        Flow_violation
          {
            conservation_error = flow.Hbbp_verifier.Flow.conservation_error;
            total_residual = flow.Hbbp_verifier.Flow.total_residual;
            worst_block =
              (match flow.Hbbp_verifier.Flow.worst with
              | w :: _ -> Some w.Hbbp_verifier.Flow.gid
              | [] -> None);
          }
      in
      match quality with
      | Full -> Degraded [ reason ]
      | Degraded reasons -> Degraded (reasons @ [ reason ])
    end
    else quality
  in
  (* Count repair: project the fused counts onto the conservation
     polytope, low-confidence blocks absorbing the correction.  The
     quality verdict above is deliberately based on the *pre*-repair
     check — Apply mode cleans the counts but cannot launder a corrupt
     reconstruction into a Full verdict. *)
  let repair_report =
    match repair with
    | Off -> None
    | Report | Apply ->
        let weights =
          Hbbp_verifier.Repair.confidence
            ~use_ebs:
              (Array.map
                 (function
                   | Criteria.Use_ebs -> true
                   | Criteria.Use_lbr -> false)
                 (Combine.decisions static ~criteria ~bias ~ebs ~lbr))
            ~ebs_raw:ebs.Ebs_estimator.raw
            ~lbr_weight:lbr.Lbr_estimator.weight
            (Static.total_blocks static)
        in
        Trace.with_span ~cat:"verify" "repair" (fun () ->
            let rep = Hbbp_verifier.Repair.repair ~weights fstruct hbbp in
            Trace.annotate (fun () ->
                [
                  Trace.int_arg "repair.runs" 1;
                  Trace.int_arg "repair.applied" (Bool.to_int (repair = Apply));
                  Trace.int_arg "repair.adjusted_blocks" rep.adjusted_blocks;
                  Trace.int_arg "repair.sweeps" rep.iterations;
                  Trace.float_arg "repair.pre_conservation_error"
                    rep.pre.conservation_error;
                  Trace.float_arg "repair.post_conservation_error"
                    rep.post.conservation_error;
                  Trace.float_arg "repair.moved_mass" rep.moved_mass;
                ]);
            Some rep)
  in
  let hbbp =
    match (repair, repair_report) with
    | Apply, Some rep -> rep.Hbbp_verifier.Repair.repaired
    | _ -> hbbp
  in
  Trace.annotate (fun () -> reconstruction_args ~ebs ~lbr ~bias quality);
  {
    r_static = static;
    r_ebs = ebs;
    r_lbr = lbr;
    r_bias = bias;
    r_hbbp = hbbp;
    r_quality = quality;
    r_flow = flow;
    r_repair = repair_report;
    r_partial = p;
  }

let reconstruct ?criteria ?thresholds ?repair ?(ledger = []) ~static
    ~ebs_period ~lbr_period records =
  let p = Partial.create ~static ~ebs_period ~lbr_period () in
  Partial.note_faults p ledger;
  Partial.feed p records;
  finalize ?criteria ?thresholds ?repair p

let sim_periods config (w : Workload.t) =
  match config.periods with
  | `Auto -> Period.simulation w.runtime_class
  | `Fixed pair -> pair

let collect_archive ?(config = default_config) (w : Workload.t) =
  Trace.with_span ~cat:"pipeline"
    ~args:[ ("workload", w.Workload.name) ]
    "collect_archive"
  @@ fun () ->
  let machine =
    Machine.create ~process:w.Workload.live_process ~engine:config.engine ()
  in
  let session = Session.configure config.model (sim_periods config w) in
  Machine.add_observer machine (Pmu.observer (Session.pmu session));
  let records = ref [] in
  let close =
    Session.stream session w.Workload.live_process ~pid:1
      ~name:w.Workload.name (fun r -> records := r :: !records)
  in
  let (_ : Machine.run_stats) =
    Trace.with_span ~cat:"pipeline" "execute" (fun () ->
        Machine.run machine ~entry:w.Workload.entry
          ~max_instructions:config.max_instructions ())
  in
  Trace.with_span ~cat:"pipeline" "archive" (fun () ->
      close ();
      Perf_data.of_records ~workload_name:w.Workload.name ~session
        ~analysis:w.Workload.analysis_process ~live:w.Workload.live_process
        (List.rev !records))

let analyze_archive ?criteria ?thresholds ?repair ?ledger
    (archive : Perf_data.t) =
  let static = Static.create_exn (Perf_data.analysis_process archive) in
  reconstruct ?criteria ?thresholds ?repair ?ledger ~static
    ~ebs_period:archive.Perf_data.ebs_period
    ~lbr_period:archive.Perf_data.lbr_period archive.Perf_data.records

(* ------------------------------------------------------------------ *)
(* The per-archive step every archive-reading driver folds through     *)

let open_archive path =
  match Perf_data.Stream.open_file path with
  | Ok s -> Ok s
  | Error e -> Error (Format.asprintf "%s: %a" path Perf_data.pp_error e)
  | exception Sys_error msg -> Error msg

let archive_static path meta =
  match Static.create (Perf_data.analysis_process meta) with
  | Ok static -> Ok static
  | Error e -> Error (Format.asprintf "%s: %a" path Disasm.pp_error e)
  | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" path msg)

let check_shard_meta ~meta path (m : Perf_data.t) =
  if
    m.Perf_data.workload_name <> meta.Perf_data.workload_name
    || m.Perf_data.ebs_period <> meta.Perf_data.ebs_period
    || m.Perf_data.lbr_period <> meta.Perf_data.lbr_period
  then
    Error
      (Printf.sprintf
         "%s: shard metadata mismatch (workload %S, periods %d/%d; expected \
          %S, %d/%d)"
         path m.Perf_data.workload_name m.Perf_data.ebs_period
         m.Perf_data.lbr_period meta.Perf_data.workload_name
         meta.Perf_data.ebs_period meta.Perf_data.lbr_period)
  else Ok ()

let archive_partial ~static ~meta path s =
  Trace.with_span ~cat:"analyze" ~args:[ ("path", path) ] "archive"
  @@ fun () ->
  Fun.protect ~finally:(fun () -> Perf_data.Stream.close s) @@ fun () ->
  let m = Perf_data.Stream.meta s in
  Result.bind (check_shard_meta ~meta path m) @@ fun () ->
  let p =
    Partial.create ~static ~ebs_period:m.Perf_data.ebs_period
      ~lbr_period:m.Perf_data.lbr_period ()
  in
  match Partial.feed_stream p s with
  | () -> Ok p
  | exception Sys_error msg -> Error msg

exception Interrupted

let () =
  Printexc.register_printer (function
    | Interrupted -> Some "Pipeline.Interrupted"
    | _ -> None)

(* [Some rest] when [done_paths] is a prefix of [paths]. *)
let rec prefix_of done_paths paths =
  match (done_paths, paths) with
  | [], rest -> Some rest
  | d :: ds, p :: ps when String.equal d p -> prefix_of ds ps
  | _ -> None

(* A checkpoint is trusted only when it loads cleanly, restores cleanly
   over [static], and names a prefix of [paths]; anything else falls
   back to a full run (a resume must never produce different bytes than
   the uninterrupted analysis).  [Some (done_rev, partial, rest)]. *)
let restore_checkpoint ~static ~path paths =
  match Checkpoint.load ~path with
  | Some (Ok { Checkpoint.done_paths = _ :: _ as done_paths; partial }) -> (
      match prefix_of done_paths paths with
      | None -> None
      | Some rest -> (
          match Partial.restore ~static partial with
          | Error _ -> None
          | Ok p ->
              Trace.annotate (fun () ->
                  [ Trace.int_arg "checkpoint.restores" 1 ]);
              Some (List.rev done_paths, p, rest)))
  | Some (Ok _) | Some (Error _) | None -> None

(* The static view is built once, from the first archive's metadata,
   resumed or not: a restored partial must share the static instance
   every later partial merges against.  That archive stays open until
   the fold consumes it, or a checkpoint turns out to cover it, so every
   archive is opened once.  Partials merge associatively over integers,
   so restoring a checkpointed prefix and folding the rest finalizes
   byte-identically to an uninterrupted run. *)
let analyze_archives ?criteria ?thresholds ?repair ?checkpoint
    ?(resume = false) ?(should_stop = fun () -> false) paths =
  if paths = [] then invalid_arg "Pipeline.analyze_archives: no archives";
  let ( let* ) = Result.bind in
  let first = List.hd paths in
  let save done_rev m =
    Option.iter
      (fun path ->
        Checkpoint.save
          { Checkpoint.done_paths = List.rev done_rev;
            partial = Partial.serialize m }
          ~path)
      checkpoint
  in
  let analyze () =
    let* s = open_archive first in
    let meta = Perf_data.Stream.meta s in
    let s0 = ref (Some s) in
    let close_s0 () =
      Option.iter Perf_data.Stream.close !s0;
      s0 := None
    in
    Fun.protect ~finally:close_s0 @@ fun () ->
    let* static = archive_static first meta in
    let open_next path =
      match !s0 with
      | Some s ->
          s0 := None;
          Ok s
      | None -> open_archive path
    in
    (* Fold [path] into [merged] ([None] before the first archive). *)
    let step done_rev merged path =
      if should_stop () then begin
        Option.iter (save done_rev) merged;
        raise Interrupted
      end;
      let* s = open_next path in
      let* p = archive_partial ~static ~meta path s in
      let m = match merged with None -> p | Some m -> Partial.merge m p in
      save (path :: done_rev) m;
      Ok (path :: done_rev, m)
    in
    let rec fold (done_rev, m) = function
      | [] -> Ok m
      | path :: rest ->
          let* acc = step done_rev (Some m) path in
          fold acc rest
    in
    let restored =
      match checkpoint with
      | Some path when resume -> restore_checkpoint ~static ~path paths
      | Some _ | None -> None
    in
    let* m =
      match restored with
      | Some (done_rev, p, rest) ->
          close_s0 ();
          fold (done_rev, p) rest
      | None ->
          let* acc = step [] None first in
          fold acc (List.tl paths)
    in
    Ok (meta, finalize ?criteria ?thresholds ?repair m)
  in
  match checkpoint with
  | None -> analyze ()
  | Some path ->
      (* Success and a typed error both end the analysis: only an
         interruption leaves a checkpoint to resume from. *)
      let result = analyze () in
      Checkpoint.remove ~path;
      result

(* Run-level args: execution volume plus the PMU's sampling-health
   accounting (the repo observing its own collection quality, the way
   the paper accounts for perf's).  The skid histogram is one count per
   non-empty displacement bucket. *)
let run_args (p : profile) =
  let h = p.pmu_health in
  [
    Trace.int_arg "pipeline.runs" 1;
    Trace.int_arg "pipeline.retired" p.stats.retired;
    Trace.int_arg "pipeline.cycles" p.stats.cycles;
    Trace.int_arg "pipeline.taken_branches" p.stats.taken_branches;
    Trace.int_arg "pipeline.kernel_retired" p.stats.kernel_retired;
    Trace.int_arg "pipeline.records" p.record_count;
    Trace.float_arg "pipeline.collection_overhead" p.collection_overhead;
    Trace.float_arg "pipeline.sde_slowdown" p.sde_slowdown;
    Trace.int_arg "pmu.pmi_count" h.pmi_count;
    Trace.int_arg "pmu.shadow_slides" h.shadow_slides;
    Trace.int_arg "pmu.lbr_snapshots" h.lbr_snapshots;
    Trace.int_arg "pmu.lbr_stuck_snapshots" h.stuck_snapshots;
    Trace.int_arg "pmu.lbr_misrotated_snapshots" h.misrotated_snapshots;
    Trace.int_arg "pmu.lbr_dropped_records" h.dropped_records;
    Trace.int_arg "sde.lost_kernel_instructions" p.sde_lost_kernel;
  ]
  @ List.concat
      (List.mapi
         (fun d n ->
           if n = 0 then []
           else if d > Pmu.max_skid_bucket then
             [ Trace.int_arg "pmu.skid.over" n ]
           else [ Trace.int_arg (Printf.sprintf "pmu.skid.%02d" d) n ])
         (Array.to_list h.skid_hist))

(* Records [run] hands [Partial.feed] at a time while the workload
   executes. *)
let run_chunk_records = 1024

let run ?(config = default_config) (w : Workload.t) =
  Trace.with_span ~cat:"pipeline" ~args:[ ("workload", w.Workload.name) ] "run"
  @@ fun () ->
  let sim_periods = sim_periods config w
  and paper_periods = Period.paper w.runtime_class in
  (* Static views: what the analyzer finds on disk, and the same view
     with kernel text patched from the live image (the paper's remedy). *)
  let static_unpatched, static =
    Trace.with_span ~cat:"pipeline" "static" (fun () ->
        let static_unpatched = Static.create_exn w.analysis_process in
        let static =
          if w.analysis_process == w.live_process then static_unpatched
          else Kernel_patch.patch_static static_unpatched ~live:w.live_process
        in
        (static_unpatched, static))
  in
  (* One execution, three observers. *)
  let machine =
    Machine.create ~process:w.live_process ~engine:config.engine ()
  in
  let sde = Hbbp_instrument.Sde.create config.sde (user_maps static) in
  let session = Session.configure config.model sim_periods in
  let counting = Pmu.create config.model
      (List.map
         (fun event -> { Pmu.event; mode = Pmu.Counting })
         config.count_events)
  in
  Machine.add_observer machine (Hbbp_instrument.Sde.observer sde);
  Machine.add_observer machine (Pmu.observer (Session.pmu session));
  Machine.add_observer machine (Pmu.observer counting);
  (* The session stream folds into the partial in fixed chunks as the
     PMU delivers samples, so the run holds one chunk of records, not
     the stream. *)
  let partial =
    Partial.create ~static ~ebs_period:(Session.ebs_period session)
      ~lbr_period:(Session.lbr_period session) ()
  in
  let chunk = ref [] and pending = ref 0 in
  let flush () =
    if !pending > 0 then begin
      let c = List.rev !chunk in
      chunk := [];
      pending := 0;
      Partial.feed partial c
    end
  in
  let close =
    Session.stream session w.live_process ~pid:1 ~name:w.name (fun r ->
        chunk := r :: !chunk;
        incr pending;
        if !pending = run_chunk_records then flush ())
  in
  let stats =
    Trace.with_span ~cat:"pipeline" "execute" (fun () ->
        Machine.run machine ~entry:w.entry
          ~max_instructions:config.max_instructions ())
  in
  Trace.with_span ~cat:"pipeline" "collect" (fun () ->
      close ();
      flush ());
  let r =
    finalize ~criteria:config.criteria ~thresholds:config.thresholds
      ~repair:config.repair partial
  in
  let ebs = r.r_ebs and lbr = r.r_lbr and bias = r.r_bias and hbbp = r.r_hbbp in
  let reference, reference_mix =
    Trace.with_span ~cat:"pipeline" "reference" (fun () ->
        ( Bbec.of_block_counts static (Hbbp_instrument.Sde.block_counts sde),
          Mix.of_histogram (Hbbp_instrument.Sde.histogram sde) ))
  in
  let collection_overhead =
    Session.overhead_fraction ~paper:paper_periods ~stats ~model:config.model
  in
  let sde_slowdown =
    if stats.cycles = 0 then 1.0
    else
      float_of_int (Hbbp_instrument.Sde.instrumented_cycles sde)
      /. float_of_int stats.cycles
  in
  let p =
    {
      workload = w;
      config;
      stats;
      pmu_health = Pmu.health (Session.pmu session);
      clean_cycles = stats.cycles;
      static;
      static_unpatched;
      reference;
      reference_mix;
      ebs;
      lbr;
      bias;
      hbbp;
      sim_periods;
      paper_periods;
      collection_overhead;
      sde_slowdown;
      sde_total = Hbbp_instrument.Sde.total_instructions sde;
      sde_lost_kernel = Hbbp_instrument.Sde.lost_kernel_instructions sde;
      pmu_counts = Pmu.counts counting;
      record_count = Partial.record_count partial;
      quality = r.r_quality;
      repair_report = r.r_repair;
    }
  in
  Trace.annotate (fun () -> run_args p);
  p

(* Each task builds its own machine, PMU session, SDE and PRNG from the
   workload alone, so fanning out over domains cannot perturb results:
   the profile of a workload is a pure function of (workload, config). *)
let run_many ?jobs ?(config = default_config) workloads =
  Hbbp_util.Domain_pool.run ?jobs (fun w -> run ~config w) workloads

let collect_many ?jobs ?(config = default_config) workloads =
  Hbbp_util.Domain_pool.run ?jobs (fun w -> collect_archive ~config w) workloads

let mix_of profile bbec = Mix.user_only (Mix.of_bbec profile.static bbec)
let full_mix_of profile bbec = Mix.of_bbec profile.static bbec

let error_report profile bbec =
  Error.compare_mixes ~reference:profile.reference_mix
    ~measured:(Mix.mnemonic_totals (mix_of profile bbec))

let features profile gid =
  Feature.of_block profile.static ~bias:profile.bias ~ebs:profile.ebs
    ~lbr:profile.lbr ~gid

let sde_pmu_discrepancy profile =
  let user_retired = profile.stats.retired - profile.stats.kernel_retired in
  if user_retired = 0 then 0.0
  else
    Float.abs (Int64.to_float profile.sde_total -. float_of_int user_retired)
    /. float_of_int user_retired
