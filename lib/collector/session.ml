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

let classify : Record.t -> Faults.record_class = function
  | Record.Comm _ -> Faults.Rec_comm
  | Record.Mmap _ -> Faults.Rec_mmap
  | Record.Sample _ -> Faults.Rec_sample
  | Record.Fork _ | Record.Lost _ -> Faults.Rec_other

(* Pushes the header through the armed plan's collector faults and
   returns the sample pusher and the close. *)
let open_stream process ~pid ~name emit =
  let push, close =
    Faults.record_filter ~classify ~lost:(fun n -> Record.Lost n) emit
  in
  push (Record.Comm { pid; name });
  List.iter
    (fun (img : Image.t) ->
      push
        (Record.Mmap
           {
             addr = img.base;
             len = Image.size img;
             name = img.name;
             ring = img.ring;
           }))
    (Process.images process);
  let push_sample (s : Pmu.sample) =
    push
      (Record.Sample
         {
           Record.event = s.event;
           ip = s.ip;
           lbr = s.lbr;
           ring = s.ring;
           time = s.cycles;
         })
  in
  (push_sample, close)

let stream t process ~pid ~name emit =
  let push_sample, close = open_stream process ~pid ~name emit in
  Pmu.set_sink t.pmu push_sample;
  close

let records t process ~pid ~name =
  let acc = ref [] in
  let push_sample, close =
    open_stream process ~pid ~name (fun r -> acc := r :: !acc)
  in
  List.iter push_sample (Pmu.samples t.pmu);
  close ();
  List.rev !acc

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
