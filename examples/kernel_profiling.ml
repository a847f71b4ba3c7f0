(* Kernel-space profiling — the paper's section VIII.D demonstration.

   The same prime-search routine runs as a user function and as a kernel
   module triggered through a syscall.  Software instrumentation only
   sees the user copy; HBBP profiles both, and the two mixes agree.

     dune exec examples/kernel_profiling.exe
*)

open Hbbp_core
open Hbbp_analyzer
module K = Hbbp_workloads.Kernelbench

let () =
  let w = K.workload () in
  let p = Pipeline.run w in
  let stats = p.Pipeline.stats in
  Format.printf
    "run: %d instructions (%d in the kernel).  Instrumentation lost all %d \
     kernel instructions; HBBP lost none.@.@."
    stats.Hbbp_cpu.Machine.retired stats.Hbbp_cpu.Machine.kernel_retired
    p.Pipeline.sde_lost_kernel;

  let full = Pipeline.full_mix_of p p.Pipeline.hbbp in
  Format.printf "Per-ring totals (HBBP):@.";
  Pivot.render Format.std_formatter (Pivot.pivot ~dims:[ Pivot.Ring_level ] full);

  Format.printf "@.Top functions across rings:@.";
  Pivot.render Format.std_formatter
    (Pivot.top 6 (Pivot.pivot ~dims:[ Pivot.Ring_level; Pivot.Symbol ] full));

  (* The self-modifying-code wrinkle: analyzing against the on-disk
     kernel text produces impossible streams until it is patched with
     the live text.  The samples come from the stream collection
     writes, the one the run fed. *)
  let db =
    Sample_db.of_records
      (Pipeline.collect_archive w).Hbbp_collector.Perf_data.records
  in
  let period = p.Pipeline.sim_periods.Hbbp_collector.Period.lbr in
  let unpatched =
    Lbr_estimator.estimate p.Pipeline.static_unpatched ~period
      db.Sample_db.lbr
  in
  let patched =
    Lbr_estimator.estimate p.Pipeline.static ~period db.Sample_db.lbr
  in
  Format.printf
    "@.Self-modifying kernel code: %d inconsistent streams against the \
     on-disk text, %d after patching it with the live .text (the paper's \
     remedy).@."
    unpatched.Lbr_estimator.inconsistent_streams
    patched.Lbr_estimator.inconsistent_streams;

  (* Table 7 in miniature: the user and kernel copies agree. *)
  let total_of symbol =
    Mix.total (Mix.filter (fun r -> String.equal r.Mix.symbol symbol) full)
  in
  Format.printf
    "@.%s (user): %.0f instructions; %s (kernel): %.0f — agreement within \
     %.2f%%.@."
    K.user_function (total_of K.user_function) K.kernel_function
    (total_of K.kernel_function)
    (100.0
    *. Float.abs (total_of K.user_function -. total_of K.kernel_function)
    /. total_of K.user_function)
