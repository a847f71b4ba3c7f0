(* Fault-injection overhead bench: demonstrates that the chaos hooks the
   fault subsystem threads through the PMU, the session and the archive
   writer cost nothing when disarmed, and shows what a mild armed plan
   does to throughput and output.  Writes BENCH_faults.json.

   Three series over the same workloads, [U.overhead_rounds] rounds:

   - baseline:       faults disarmed (the default state);
   - armed-inert:    the all-zero plan armed — every hook still resolves
     to [None], so this must be byte-identical to baseline and its
     overhead pure run-to-run noise;
   - armed-mild:     a small multi-layer plan (sample drops, LBR
     corruption, record loss) actually injecting.

   Each round times baseline and armed-inert back to back in alternating
   order, then armed-mild; an overhead is the median over rounds of the
   per-round ratio to the baseline, minus one.  These timed overheads
   are reported, not gated: whole-run rounds spread ~10% on a shared
   host, so a 1% bound on their median fails on noise alone.

   Gate: the armed-inert share must stay within 1% — the exact count of
   fault-hook calls one armed-inert round makes (read from that round's
   own profiles) times the per-call cost of a hook under the inert plan,
   which a microbench measures, over the median baseline round.  The
   same microbench, disarmed, reports the default state's cost. *)

open Hbbp_core
module Plan = Hbbp_faults.Fault_plan
module Faults = Hbbp_faults.Faults
module U = Bench_util

let workloads () =
  [
    Hbbp_workloads.Fitter.workload Hbbp_workloads.Fitter.Sse;
    Hbbp_workloads.Kernelbench.workload ();
  ]

let run_all ws = List.map (fun w -> Pipeline.run w) ws

let mild_plan =
  match
    Plan.of_string
      "seed=42,pmu.drop=0.02,lbr.stuck=0.05,rec.drop_sample=0.02,rec.reorder=8"
  with
  | Ok p -> p
  | Error e -> failwith ("BENCH faults: bad mild plan: " ^ e)

(* Fault-hook calls one [Pipeline.run] makes, from its own outputs: the
   two PMU constructors and the session's record-stream hook, the skid
   hook at every counter overflow (one drawn skid each) and the LBR and
   sample-drop hooks at every delivered PMI. *)
let hook_calls (p : Pipeline.profile) =
  let h = p.Pipeline.pmu_health in
  3
  + Array.fold_left ( + ) 0 h.Hbbp_cpu.Pmu.skid_hist
  + (2 * h.Hbbp_cpu.Pmu.pmi_count)

(* Per-call cost of a hook under whatever plan is armed: constructing an
   injector and taking the [None] branch, amortized over [n] calls.  It
   bounds the per-sample sites too, which only match the injector the
   PMU built once. *)
let hook_ns () =
  let n = 5_000_000 in
  let sink = ref 0 in
  let body () = incr sink in
  let bare () =
    for _ = 1 to n do
      body ()
    done
  in
  let hooked () =
    for _ = 1 to n do
      (match Faults.pmu_injector () with None -> body () | Some _ -> ());
      ()
    done
  in
  bare ();
  hooked ();
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let dt, () = U.timed f in
      if dt < !b then b := dt
    done;
    !b
  in
  let bare_s = best bare and hooked_s = best hooked in
  (hooked_s -. bare_s) /. float_of_int n *. 1e9

let run ppf =
  U.header ppf "Fault-injection overhead (writes BENCH_faults.json)";
  Faults.disarm ();
  Faults.reset_tally ();
  let ws = workloads () in
  let rounds = U.overhead_rounds in
  let baseline () = run_all ws in
  let armed plan () =
    Faults.arm plan;
    Fun.protect ~finally:Faults.disarm baseline
  in
  (* Untimed warmup of every series: the first round otherwise pays for
     heap growth on behalf of all three. *)
  ignore (baseline (), armed Plan.none (), armed mild_plan ());
  let identical = ref true and mild_profiles = ref [] and calls = ref 0 in
  let samples =
    List.init rounds (fun round ->
        let (tb, base), (ti, inert) =
          U.alternating round baseline (armed Plan.none)
        in
        if not (List.for_all2 Perf.profiles_equal base inert) then
          identical := false;
        calls := List.fold_left (fun n p -> n + hook_calls p) 0 inert;
        (* The tally reported is the last mild round's. *)
        Faults.reset_tally ();
        let tm, mild = U.timed (armed mild_plan) in
        mild_profiles := mild;
        (tb, ti, tm))
  in
  let tally = Faults.tally () in
  Faults.reset_tally ();
  let degraded =
    List.filter
      (fun (p : Pipeline.profile) -> p.quality <> Pipeline.Full)
      !mild_profiles
  in
  let median_s f = U.median f samples in
  let baseline_s = median_s (fun (b, _, _) -> b)
  and inert_s = median_s (fun (_, i, _) -> i)
  and mild_s = median_s (fun (_, _, m) -> m) in
  let inert_overhead = median_s (fun (b, i, _) -> i /. b) -. 1.0
  and mild_overhead = median_s (fun (b, _, m) -> m /. b) -. 1.0 in
  let disarmed_ns = hook_ns () in
  let inert_ns =
    Faults.arm Plan.none;
    Fun.protect ~finally:Faults.disarm hook_ns
  in
  let inert_share = float_of_int !calls *. inert_ns *. 1e-9 /. baseline_s in
  Format.fprintf ppf
    "%d workloads, %d interleaved rounds (median round; overheads: median \
     per-round ratio)@."
    (List.length ws) rounds;
  Format.fprintf ppf "baseline (disarmed):      %8.3f s@." baseline_s;
  Format.fprintf ppf "armed inert plan:         %8.3f s  (%+.2f%%, timed)@."
    inert_s (100.0 *. inert_overhead);
  Format.fprintf ppf "armed mild plan:          %8.3f s  (%+.2f%%)@." mild_s
    (100.0 *. mild_overhead);
  Format.fprintf ppf "disarmed hook cost:       %8.1f ns/site@." disarmed_ns;
  Format.fprintf ppf "inert-plan hook cost:     %8.1f ns/site@." inert_ns;
  Format.fprintf ppf
    "armed-inert share:        %8.5f%%  (%d hook calls x ns/site / \
     baseline)@."
    (100.0 *. inert_share) !calls;
  Format.fprintf ppf "profiles byte-identical with inert plan armed: %b@."
    !identical;
  Format.fprintf ppf "mild plan: %d/%d profiles degraded, tally:@."
    (List.length degraded)
    (List.length !mild_profiles);
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  %-28s %8d@." k n)
    tally;
  if not !identical then
    failwith "BENCH faults: arming the inert plan changed profile bytes";
  U.write_out "BENCH_faults.json"
    {|{
  %s,
  "workloads": %d,
  "rounds": %d,
  "baseline_s": %.4f,
  "inert_s": %.4f,
  "mild_s": %.4f,
  "inert_overhead": %.4f,
  "mild_overhead": %.4f,
  "disarmed_hook_ns": %.1f,
  "inert_hook_ns": %.1f,
  "hook_calls_per_round": %d,
  "inert_share": %.3e,
  "profiles_identical_inert": %b,
  "mild_degraded_profiles": %d,
  "mild_tally": {%s}
}
|}
    (U.json_header ~bench:"faults")
    (List.length ws) rounds baseline_s inert_s mild_s inert_overhead
    mild_overhead disarmed_ns inert_ns !calls inert_share !identical
    (List.length degraded)
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf {|"%s": %d|} k n) tally));
  Format.fprintf ppf "wrote BENCH_faults.json@.";
  (* Gate: an armed plan that injects nothing must be free.  Every hook
     still resolves to [None]; the share is an exact call count times a
     cost measured over millions of calls, so beyond 1% the hook path
     itself regressed. *)
  if inert_share > 0.01 then
    failwith
      (Printf.sprintf
         "BENCH faults: armed-inert share %.2f%% exceeds the 1%% budget"
         (100.0 *. inert_share))
