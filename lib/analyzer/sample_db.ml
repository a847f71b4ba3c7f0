open Hbbp_program
open Hbbp_cpu
module Record = Hbbp_collector.Record

type ebs_sample = { ip : int; ring : Ring.t }
type lbr_sample = { entries : Lbr.snapshot; ring : Ring.t }

type t = {
  ebs : ebs_sample array;
  lbr : lbr_sample array;
  lost : int;
  other : int;
}

(* One fold over the stream; samples keep their arrival order. *)
let of_records records =
  let ebs, lbr, lost, other =
    List.fold_left
      (fun ((ebs, lbr, lost, other) as acc) (r : Record.t) ->
        match r with
        | Record.Sample s -> (
            match s.event with
            | Pmu_event.Inst_retired_prec_dist ->
                ({ ip = s.ip; ring = s.ring } :: ebs, lbr, lost, other)
            | Pmu_event.Br_inst_retired_near_taken ->
                (ebs, { entries = s.lbr; ring = s.ring } :: lbr, lost, other)
            | _ -> (ebs, lbr, lost, other + 1))
        | Record.Lost n -> (ebs, lbr, lost + n, other)
        | Record.Comm _ | Record.Mmap _ | Record.Fork _ -> acc)
      ([], [], 0, 0) records
  in
  {
    ebs = Array.of_list (List.rev ebs);
    lbr = Array.of_list (List.rev lbr);
    lost;
    other;
  }
