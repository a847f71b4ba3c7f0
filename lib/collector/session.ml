open Hbbp_program
open Hbbp_cpu
module Faults = Hbbp_faults.Faults

type t = { pmu : Pmu.t; ebs_period : int; lbr_period : int }

let configure model (pair : Period.pair) =
  let pmu =
    Pmu.create model
      [
        {
          Pmu.event = Pmu_event.Inst_retired_prec_dist;
          mode = Pmu.Sampling { period = pair.ebs; lbr = true };
        };
        {
          Pmu.event = Pmu_event.Br_inst_retired_near_taken;
          mode = Pmu.Sampling { period = pair.lbr; lbr = true };
        };
      ]
  in
  { pmu; ebs_period = pair.ebs; lbr_period = pair.lbr }

let pmu t = t.pmu
let ebs_period t = t.ebs_period
let lbr_period t = t.lbr_period

let header process ~pid ~name =
  Record.Comm { pid; name }
  :: List.map
       (fun (img : Image.t) ->
         Record.Mmap
           {
             addr = img.base;
             len = Image.size img;
             name = img.name;
             ring = img.ring;
           })
       (Process.images process)

let sample_record (s : Pmu.sample) =
  Record.Sample
    {
      Record.event = s.event;
      ip = s.ip;
      lbr = s.lbr;
      ring = s.ring;
      time = s.cycles;
    }

let records t process ~pid ~name =
  let header = header process ~pid ~name in
  let samples = List.map sample_record (Pmu.samples t.pmu) in
  let stream = header @ samples in
  (* Collector-layer fault injection: when a plan with record faults is
     armed, drop/reorder records and — like perf reporting ring-buffer
     overruns — close the stream with a LOST record summarizing the
     damage, so analyzers can see that data went missing. *)
  match Faults.stream_injector () with
  | None -> stream
  | Some inj ->
      let classify : Record.t -> Faults.record_class = function
        | Record.Comm _ -> Faults.Rec_comm
        | Record.Mmap _ -> Faults.Rec_mmap
        | Record.Sample _ -> Faults.Rec_sample
        | Record.Fork _ | Record.Lost _ -> Faults.Rec_other
      in
      let kept, dropped = Faults.apply_stream inj ~classify stream in
      if dropped > 0 then kept @ [ Record.Lost dropped ] else kept

let overhead_fraction ~(paper : Period.pair) ~(stats : Machine.run_stats)
    ~(model : Pmu_model.t) =
  if stats.cycles = 0 then 0.0
  else
    let ebs_pmis = float_of_int stats.retired /. float_of_int paper.ebs in
    let lbr_pmis =
      float_of_int stats.taken_branches /. float_of_int paper.lbr
    in
    (ebs_pmis +. lbr_pmis)
    *. float_of_int model.pmi_cost_cycles
    /. float_of_int stats.cycles
