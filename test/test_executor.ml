(* Differential tests for the executor: the superblock engine (chained
   block closures of compiled kernels) must retire a stream bit-identical
   to the legacy per-instruction loop over [Exec.step].  Identity is
   checked at four depths — run statistics, the full observer-visible
   retirement stream (hashed), PMU sample archives byte for byte, and
   fused pipeline reconstructions — over the bundled registry
   workloads, tight-budget Runaway runs and seeded random synthetic
   programs; and instruction by instruction, every shape the kernel
   specializer compiles against [Exec.step] on generated states. *)

open Hbbp_cpu
open Hbbp_core

let checkb = Alcotest.(check bool)
let engines = Machine.all_engines

(* ------------------------------------------------------------------ *)
(* Harness: run one engine, observer-armed, folding every field the
   observer can see into a rolling hash.  The retirement record is a
   reused scratch buffer, so the fold reads everything before
   returning.  Runaway runs hash their whole prefix, so a budget-capped
   comparison still checks stream identity instruction by
   instruction.                                                        *)

type outcome =
  | Finished of Machine.run_stats
  | Ran_away of int
  | Faulted of string

let mix h v = (h * 0x1000193) lxor v

let outcome_of run =
  match run () with
  | stats -> Finished stats
  | exception Machine.Runaway n -> Ran_away n
  | exception Machine.Machine_fault msg -> Faulted msg
  | exception Memory.Fault addr -> Faulted (Printf.sprintf "memory %#x" addr)

let run_hashed engine ?max_instructions (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  let hash = ref 0x811c9dc5 and retired = ref 0 in
  let on_retire (r : Machine.retirement) =
    incr retired;
    let h = mix !hash r.node.Exec_graph.addr in
    let h = mix h r.taken_src in
    let h = mix h r.taken_tgt in
    let h = mix h r.retired_index in
    let h = mix h r.cycles in
    hash := mix h (Bool.to_int r.shadow_active)
  in
  (* A zero window: every retirement takes the per-instruction hook. *)
  Machine.add_observer machine
    {
      Machine.attach =
        (fun () ->
          {
            Machine.on_retire;
            on_blocks = (fun _ -> ());
            window = (fun _ -> 0);
            taken_window = (fun () -> 0);
          });
    };
  let outcome =
    outcome_of (Machine.run machine ~entry:w.Workload.entry ?max_instructions)
  in
  (outcome, !hash, !retired)

let run_bare engine ?max_instructions (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  outcome_of (Machine.run machine ~entry:w.Workload.entry ?max_instructions)

let pp_outcome = function
  | Finished s ->
      Printf.sprintf "finished retired=%d cycles=%d taken=%d kernel=%d"
        s.Machine.retired s.Machine.cycles s.Machine.taken_branches
        s.Machine.kernel_retired
  | Ran_away n -> Printf.sprintf "runaway %d" n
  | Faulted msg -> Printf.sprintf "fault %s" msg

(* Compare every engine's (outcome, stream hash, retirement count)
   against the legacy reference. *)
let check_differential ~what ?max_instructions (w : Workload.t) =
  let reference = run_hashed Machine.Legacy ?max_instructions w in
  List.iter
    (fun engine ->
      let got = run_hashed engine ?max_instructions w in
      let ro, rh, rn = reference and go, gh, gn = got in
      if (ro, rh, rn) <> (go, gh, gn) then
        Alcotest.failf "%s: %s engine diverged from legacy: %s / %s (%d vs %d \
                        retirements, hash %x vs %x)"
          what
          (Machine.engine_name engine)
          (pp_outcome go) (pp_outcome ro) gn rn gh rh)
    engines

(* ------------------------------------------------------------------ *)
(* Registry sweep: every bundled workload, budget-capped so the suite
   stays fast.  Workloads larger than the budget raise Runaway at the
   same retirement in every engine (the due-by-N budgeting identity);
   smaller ones finish and compare full stats.                         *)

let test_registry_differential () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      check_differential ~what:name ~max_instructions:400_000 w)
    Hbbp_workloads.Registry.names

(* Full, uncapped runs on the machine-bench set: short blocks (mcf),
   branch/x87-heavy (test40), syscall-heavy (hello), SSE (fitter-sse). *)
let bench_set = [ "mcf"; "test40"; "hello"; "fitter-sse" ]

let test_bench_set_full_runs () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      check_differential ~what:name w;
      (* Bare runs (no observers) take the separate no-observer path;
         their stats must match the armed stats too. *)
      let armed, _, _ = run_hashed Machine.Legacy w in
      List.iter
        (fun engine ->
          let bare = run_bare engine w in
          if bare <> armed then
            Alcotest.failf "%s: bare %s run disagrees with armed legacy: %s \
                            vs %s"
              name
              (Machine.engine_name engine)
              (pp_outcome bare) (pp_outcome armed))
        engines)
    bench_set

(* Runaway budgeting: sweep awkward budgets (mid-block, block boundary,
   budget 1) and require identical truncation points. *)
let test_runaway_budgets () =
  let w = Hbbp_workloads.Registry.find "hello" in
  List.iter
    (fun budget ->
      check_differential
        ~what:(Printf.sprintf "hello budget=%d" budget)
        ~max_instructions:budget w)
    [ 1; 2; 3; 7; 100; 1_001; 65_537 ]

(* ------------------------------------------------------------------ *)
(* Archive and reconstruction identity through the pipeline.           *)

let config_for engine =
  { Pipeline.default_config with Pipeline.engine; keep_records = true }

let test_archives_byte_identical () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let bytes_of engine =
        Hbbp_collector.Perf_data.to_bytes
          (Pipeline.collect_archive ~config:(config_for engine) w)
      in
      let reference = bytes_of Machine.Legacy in
      List.iter
        (fun engine ->
          checkb
            (Printf.sprintf "%s: %s archive byte-identical to legacy" name
               (Machine.engine_name engine))
            true
            (Bytes.equal (bytes_of engine) reference))
        engines)
    [ "hello"; "test40" ]

let profiles_equal (a : Pipeline.profile) (b : Pipeline.profile) =
  compare a.stats b.stats = 0
  && compare a.pmu_health b.pmu_health = 0
  && compare a.reference.counts b.reference.counts = 0
  && compare a.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
       b.ebs.Hbbp_analyzer.Ebs_estimator.bbec.counts
     = 0
  && compare a.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
       b.lbr.Hbbp_analyzer.Lbr_estimator.bbec.counts
     = 0
  && compare a.hbbp.counts b.hbbp.counts = 0
  && compare a.reference_mix b.reference_mix = 0
  && compare a.pmu_counts b.pmu_counts = 0
  && compare a.records b.records = 0
  && compare a.quality b.quality = 0

let test_reconstructions_identical () =
  let w = Hbbp_workloads.Registry.find "hello" in
  let reference = Pipeline.run ~config:(config_for Machine.Legacy) w in
  List.iter
    (fun engine ->
      let p = Pipeline.run ~config:(config_for engine) w in
      checkb
        (Printf.sprintf "%s profile equals legacy" (Machine.engine_name engine))
        true
        (profiles_equal p reference))
    engines

(* ------------------------------------------------------------------ *)
(* Seeded random-program fuzz: synthetic workloads spanning the
   generator's space (block shapes, FP flavours, indirect calls,
   long-latency density) must agree across engines, full-run.          *)

let fuzz_params seed =
  let module C = Hbbp_workloads.Codegen in
  let bit n = Int64.(to_int (logand (shift_right_logical seed n) 1L)) = 1 in
  let pick n k = Int64.(to_int (rem (shift_right_logical seed n) (of_int k))) in
  {
    C.blocks = 3 + pick 0 14;
    mean_len = 2 + pick 4 9;
    len_jitter = pick 8 4;
    iterations = 200 + (100 * pick 10 8);
    call_rate = float_of_int (pick 13 4) /. 8.0;
    indirect_calls = bit 16;
    profile =
      {
        C.fp =
          [| C.No_fp; C.X87_fp; C.Sse_scalar_fp; C.Sse_packed_fp;
             C.Avx_fp; C.Mixed_fp |].(pick 17 6);
        fp_rate = float_of_int (pick 20 5) /. 8.0;
        mem_rate = float_of_int (pick 23 5) /. 8.0;
        long_rate = float_of_int (pick 26 3) /. 16.0;
        simd_int_rate = float_of_int (pick 28 3) /. 8.0;
      };
  }

let test_fuzz_random_programs () =
  for i = 0 to 11 do
    let seed = Int64.of_int ((i * 0x9e3779b9) + 1) in
    let name = Printf.sprintf "fuzz%d" i in
    let ctx = Hbbp_workloads.Codegen.create_ctx ~seed in
    let funcs =
      Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name)
        ~helpers:(1 + (i mod 3))
        (fuzz_params seed)
    in
    let w = Hbbp_workloads.Codegen.user_workload ~name funcs in
    check_differential ~what:name w
  done

(* ------------------------------------------------------------------ *)
(* Observer identity: the tiered engines tell SDE and the PMUs about
   whole blocks inside their windows, the legacy engine tells them
   about every retirement.  Everything the observers report must agree
   — for each observer alone and all three together, with a fault plan
   armed, under budgets that stop a run mid-window, and over random
   programs with sampling periods so small that almost every block
   meets a PMI window.                                                 *)

type observers = { sde : bool; sampling : bool; counting : bool }

let observer_sets =
  [
    ("sde-only", { sde = true; sampling = false; counting = false });
    ("sampling-only", { sde = false; sampling = true; counting = false });
    ("counting-only", { sde = false; sampling = false; counting = true });
    ("all three", { sde = true; sampling = true; counting = true });
  ]

let sampling_pmu ~ebs ~lbr =
  Pmu.create Pmu_model.default
    [
      { Pmu.event = Pmu_event.Inst_retired_prec_dist;
        mode = Pmu.Sampling { period = ebs; lbr = true } };
      { Pmu.event = Pmu_event.Br_inst_retired_near_taken;
        mode = Pmu.Sampling { period = lbr; lbr = true } };
    ]

(* Every event class: per-instruction static, taken-branch, cycle. *)
let counting_pmu () =
  Pmu.create Pmu_model.default
    (List.map
       (fun event -> { Pmu.event; mode = Pmu.Counting })
       [ Pmu_event.Inst_retired_any; Pmu_event.Br_inst_retired_near_taken;
         Pmu_event.Cpu_clk_unhalted; Pmu_event.Fp_comp_ops_sse ])

let pmu_result pmu = (Pmu.samples pmu, Pmu.counts pmu, Pmu.health pmu)

let observe engine ?max_instructions ~ebs ~lbr set (w : Workload.t) =
  let machine = Machine.create ~process:w.Workload.live_process ~engine () in
  let sde =
    if set.sde then begin
      let maps =
        List.filter_map
          (fun (img : Hbbp_program.Image.t) ->
            if Hbbp_program.Ring.equal img.ring Hbbp_program.Ring.User then
              Some (Hbbp_program.Bb_map.of_image_exn img)
            else None)
          (Hbbp_program.Process.images w.Workload.live_process)
      in
      let sde = Hbbp_instrument.Sde.create Hbbp_instrument.Sde.default_config maps in
      Machine.add_observer machine (Hbbp_instrument.Sde.observer sde);
      Some sde
    end
    else None
  in
  let sampling = if set.sampling then Some (sampling_pmu ~ebs ~lbr) else None in
  let counting = if set.counting then Some (counting_pmu ()) else None in
  Option.iter (fun p -> Machine.add_observer machine (Pmu.observer p)) sampling;
  Option.iter (fun p -> Machine.add_observer machine (Pmu.observer p)) counting;
  let outcome =
    outcome_of (Machine.run machine ~entry:w.Workload.entry ?max_instructions)
  in
  let sde_result =
    Option.map
      (fun sde ->
        let module S = Hbbp_instrument.Sde in
        ( List.map
            (fun (_, (b : Hbbp_program.Basic_block.t), n) -> (b.addr, n))
            (S.block_counts sde),
          S.histogram sde,
          S.total_instructions sde,
          S.lost_kernel_instructions sde,
          S.instrumented_cycles sde ))
      sde
  in
  (outcome, sde_result, Option.map pmu_result sampling,
   Option.map pmu_result counting)

let check_observers ~what ?max_instructions ?(ebs = 1009) ?(lbr = 211) set
    (w : Workload.t) =
  let reference = observe Machine.Legacy ?max_instructions ~ebs ~lbr set w in
  List.for_all
    (fun engine ->
      let ((o, sde, sampling, counting) as got) =
        observe engine ?max_instructions ~ebs ~lbr set w
      in
      let ro, rsde, rsampling, rcounting = reference in
      if got = reference then true
      else
        Alcotest.failf
          "%s: %s engine's observers diverge from legacy (outcome %s/%s; \
           equal: sde %b, sampling %b, counting %b)"
          what (Machine.engine_name engine) (pp_outcome o) (pp_outcome ro)
          (sde = rsde) (sampling = rsampling) (counting = rcounting))
    engines

let each_set f = List.iter (fun (name, set) -> f name set) observer_sets

let test_observers_registry () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      each_set (fun set_name set ->
          ignore
            (check_observers
               ~what:(Printf.sprintf "%s %s" name set_name)
               ~max_instructions:100_000 set w
              : bool)))
    Hbbp_workloads.Registry.names

let with_plan spec f =
  match Hbbp_faults.Fault_plan.of_string spec with
  | Error msg -> Alcotest.failf "bad plan %S: %s" spec msg
  | Ok plan ->
      Hbbp_faults.Faults.arm plan;
      Fun.protect ~finally:Hbbp_faults.Faults.disarm f

let test_observers_fault_plan () =
  with_plan
    "seed=7,pmu.drop=0.05,pmu.burst_every=50,pmu.burst_len=4,pmu.skid=2,\
     pmu.jitter=3,lbr.truncate=8,lbr.stuck=0.05,lbr.misrotate=0.05"
    (fun () ->
      List.iter
        (fun name ->
          let w = Hbbp_workloads.Registry.find name in
          each_set (fun set_name set ->
              ignore
                (check_observers
                   ~what:(Printf.sprintf "%s %s (faults)" name set_name)
                   set w
                  : bool)))
        [ "hello"; "mcf" ])

(* Budgets that stop a run while every window is open, right at a block
   boundary, and inside per-instruction stretches. *)
let test_observers_runaway () =
  let w = Hbbp_workloads.Registry.find "hello" in
  List.iter
    (fun budget ->
      each_set (fun set_name set ->
          ignore
            (check_observers
               ~what:(Printf.sprintf "hello %s budget=%d" set_name budget)
               ~max_instructions:budget ~ebs:97 ~lbr:13 set w
              : bool)))
    [ 1; 2; 3; 7; 100; 1_001; 4_099; 65_537 ]

(* A PMU kept across two runs without [Pmu.reset]: the second run's
   cycle count restarts below the PMU's last one, so its first
   cycle-counter delta is not the retirement's issue cost. *)
let test_observers_rerun () =
  let w = Hbbp_workloads.Registry.find "mcf" in
  let run engine =
    let machine = Machine.create ~process:w.Workload.live_process ~engine () in
    let sampling = sampling_pmu ~ebs:97 ~lbr:13 and counting = counting_pmu () in
    Machine.add_observer machine (Pmu.observer sampling);
    Machine.add_observer machine (Pmu.observer counting);
    for _ = 1 to 2 do
      match Machine.run machine ~entry:w.Workload.entry ~max_instructions:50_000 () with
      | _ -> ()
      | exception Machine.Runaway _ -> ()
    done;
    (pmu_result sampling, pmu_result counting)
  in
  let reference = run Machine.Legacy in
  List.iter
    (fun engine ->
      checkb
        (Printf.sprintf "%s: re-run PMU results equal legacy"
           (Machine.engine_name engine))
        true
        (run engine = reference))
    engines

(* Sampling on the other event classes: at most one per retirement
   (FP / SIMD-integer ops, any instruction) and cycle-weighted (cycles,
   divider), whose windows differ, on FP-heavy random programs. *)
let test_observers_other_events () =
  let sample events =
    Pmu.create Pmu_model.default
      (List.map
         (fun (event, period) ->
           { Pmu.event; mode = Pmu.Sampling { period; lbr = true } })
         events)
  in
  let per_op () =
    sample [ (Pmu_event.Fp_comp_ops_sse, 7); (Pmu_event.Simd_int_128, 5) ]
  and cycle_weighted () =
    sample
      [ (Pmu_event.Cpu_clk_unhalted, 97); (Pmu_event.Arith_divider_cycles, 61) ]
  in
  (* One machine per PMU: the cycle-weighted one's zero window would
     otherwise send every block down the per-instruction path. *)
  let run engine (w : Workload.t) =
    List.map
      (fun pmu ->
        let p = pmu () in
        let machine =
          Machine.create ~process:w.Workload.live_process ~engine ()
        in
        Machine.add_observer machine (Pmu.observer p);
        (match
           Machine.run machine ~entry:w.Workload.entry
             ~max_instructions:300_000 ()
         with
        | _ -> ()
        | exception Machine.Runaway _ -> ());
        pmu_result p)
      [ per_op; cycle_weighted ]
  in
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let reference = run Machine.Legacy w in
      List.iter
        (fun engine ->
          checkb
            (Printf.sprintf "%s: %s PMU results equal legacy" name
               (Machine.engine_name engine))
            true
            (run engine w = reference))
        engines)
    [ "fitter-sse"; "test40"; "mcf" ]

let fuzz_workload seed =
  let name = Printf.sprintf "ofuzz%d" seed in
  let seed64 = Int64.of_int ((seed * 0x9e3779b9) + 1) in
  let ctx = Hbbp_workloads.Codegen.create_ctx ~seed:seed64 in
  let funcs =
    Hbbp_workloads.Codegen.synthetic_funcs ctx ~name:("f_" ^ name)
      ~helpers:(1 + (seed mod 3))
      (fuzz_params seed64)
  in
  Hbbp_workloads.Codegen.user_workload ~name funcs

let period_gen =
  QCheck2.Gen.(oneof [ int_range 1 3; int_range 4 64; int_range 65 2_000 ])

let prop_observers_random_programs =
  QCheck2.Test.make ~name:"observer identity on random programs" ~count:25
    ~print:(fun (seed, ebs, lbr, budget) ->
      Printf.sprintf "seed=%d ebs=%d lbr=%d budget=%s" seed ebs lbr
        (match budget with Some b -> string_of_int b | None -> "none"))
    QCheck2.Gen.(
      quad (int_range 1 100_000) period_gen period_gen
        (opt (int_range 1 200_000)))
    (fun (seed, ebs, lbr, max_instructions) ->
      let w = fuzz_workload seed in
      List.for_all
        (fun (name, set) ->
          check_observers ~what:name ?max_instructions ~ebs ~lbr set w)
        observer_sets)

(* Block-log boundaries: batches that end only because the log is full
   (SDE alone never bounds a window; sampling periods larger than the
   log), taken-branch periods so small that the taken window closes
   after every branch or two, and periods straddling the capacity. *)
let test_log_full_flushes () =
  let cap = Machine.log_capacity in
  let hello = Hbbp_workloads.Registry.find "hello" in
  let sde_only = { sde = true; sampling = false; counting = false } in
  ignore (check_observers ~what:"hello sde-only (uncapped)" sde_only hello : bool);
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      each_set (fun set_name set ->
          ignore
            (check_observers
               ~what:(Printf.sprintf "%s %s ebs=%d lbr=%d" name set_name
                        (7 * cap) (3 * cap))
               ~max_instructions:300_000 ~ebs:(7 * cap) ~lbr:(3 * cap) set w
              : bool)))
    [ "hello"; "mcf" ]

let test_taken_periods () =
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      List.iter
        (fun lbr ->
          each_set (fun set_name set ->
              ignore
                (check_observers
                   ~what:(Printf.sprintf "%s %s lbr=%d" name set_name lbr)
                   ~max_instructions:60_000 ~ebs:4_099 ~lbr set w
                  : bool)))
        [ 1; 2; 3 ])
    [ "hello"; "mcf"; "test40" ]

let prop_observers_log_capacity =
  let cap = Machine.log_capacity in
  let straddle =
    QCheck2.Gen.(
      oneof [ int_range (cap - 4) (cap + 4); int_range (2 * cap - 4) (2 * cap + 4) ])
  in
  QCheck2.Test.make ~name:"observer identity, periods straddling the log"
    ~count:10
    ~print:(fun (seed, ebs, lbr) ->
      Printf.sprintf "seed=%d ebs=%d lbr=%d" seed ebs lbr)
    QCheck2.Gen.(triple (int_range 1 100_000) straddle straddle)
    (fun (seed, ebs, lbr) ->
      let w = fuzz_workload seed in
      List.for_all
        (fun (name, set) -> check_observers ~what:name ~ebs ~lbr set w)
        observer_sets)

(* A fault inside a block that runs as a bare body: the observers must
   hold every block retired before it — the log is flushed before the
   exception leaves [Machine.run] — and nothing of the faulting block,
   whose first two members retired before the fault.  The loop retires
   a log and a half of blocks first, so a full flush precedes the fault
   and half a log is pending at it.  The [Legacy] reference is cut by
   budget just before the faulting block. *)
let faulting_workloads () =
  let open Hbbp_program.Asm in
  let module M = Hbbp_isa.Mnemonic in
  List.map
    (fun (name, fault) ->
      Hbbp_workloads.Codegen.user_workload ~name
        [
          func ("f_" ^ name)
            [
              i M.MOV [ rcx; imm (3 * Machine.log_capacity / 2) ];
              i M.MOV [ rbx; imm 0x100 ] (* unmapped *);
              label "loop";
              i M.ADD [ rax; rcx ];
              i M.DEC [ rcx ];
              i M.JNZ [ L "loop" ];
              i M.ADD [ rdx; imm 1 ];
              i M.ADD [ rdx; imm 2 ];
              fault;
              i M.RET_NEAR [];
            ];
        ])
    [
      ("memory-fault", i M.MOV [ rax; mem Hbbp_isa.Operand.RBX ]);
      ("syscall-no-kernel", i M.SYSCALL []);
    ]

let test_observers_fault_in_bare_block () =
  let pre_fault_members = 2 in
  List.iter
    (fun (w : Workload.t) ->
      let name = w.Workload.name in
      let outcome, _, notified = run_hashed Machine.Legacy w in
      (match outcome with
      | Faulted _ -> ()
      | o -> Alcotest.failf "%s: expected a fault, got %s" name (pp_outcome o));
      let budget = notified - pre_fault_members in
      each_set (fun set_name set ->
          let observe engine ?max_instructions () =
            observe engine ?max_instructions ~ebs:1_000_003 ~lbr:100_003 set w
          in
          let _, rsde, rsampling, rcounting =
            observe Machine.Legacy ~max_instructions:budget ()
          in
          List.iter
            (fun engine ->
              if engine <> Machine.Legacy then begin
                let o, sde, sampling, counting = observe engine () in
                (match o with
                | Faulted _ -> ()
                | o ->
                    Alcotest.failf "%s %s: %s expected a fault, got %s" name
                      set_name (Machine.engine_name engine) (pp_outcome o));
                if (sde, sampling, counting) <> (rsde, rsampling, rcounting) then
                  Alcotest.failf
                    "%s %s: %s observers differ from legacy cut before the \
                     faulting block (equal: sde %b, sampling %b, counting %b)"
                    name set_name (Machine.engine_name engine) (sde = rsde)
                    (sampling = rsampling) (counting = rcounting)
              end)
            engines))
    (faulting_workloads ())

(* ------------------------------------------------------------------ *)
(* Kernels against [step]: for every operand shape [Exec.compile_flat]
   specializes, [Exec.compile] and [Exec.step] run on two states built
   from one seed — generated registers, immediates, vector lanes, x87
   stack and flags, and memory operands based in a mapped scratch
   window or near the end of a region — and must return the same
   control and leave the same registers, flags, x87 stack and window
   memory, or raise the same exception after writing the same bytes.
   The shapes are found by asking the specializer about
   every mnemonic over every operand-kind list of up to three operands,
   so each arm it keeps is covered without being listed here.          *)

module Operand = Hbbp_isa.Operand
module Mnemonic = Hbbp_isa.Mnemonic
module Instruction = Hbbp_isa.Instruction

type kind = K_gpr | K_imm | K_mem | K_xmm | K_ymm | K_st | K_rel

let kinds = [ K_gpr; K_imm; K_mem; K_xmm; K_ymm; K_st; K_rel ]

let node_of instr =
  {
    Exec_graph.addr = Layout.user_code_base;
    instr;
    len = 4;
    ring = Hbbp_program.Ring.User;
    kernel = false;
    issue_cost = 1;
    latency = 1;
    long_latency = false;
    fall = None;
    target = None;
  }

(* Every (mnemonic, operand kinds) the specializer compiles, decided on
   placeholder operands: no arm looks at operand values. *)
let specialized_shapes =
  lazy
    (let placeholder = function
       | K_gpr -> Operand.Reg (Operand.Gpr Operand.RAX)
       | K_imm -> Operand.Imm 1L
       | K_mem -> Operand.mem Operand.RBX
       | K_xmm -> Operand.Reg (Operand.Xmm 1)
       | K_ymm -> Operand.Reg (Operand.Ymm 1)
       | K_st -> Operand.Reg (Operand.St 1)
       | K_rel -> Operand.Rel 8
     in
     let rec lists n =
       if n = 0 then [ [] ]
       else
         let shorter = lists (n - 1) in
         List.concat_map (fun k -> List.map (fun l -> k :: l) shorter) kinds
     in
     let shapes = List.concat_map lists [ 0; 1; 2; 3 ] in
     List.concat_map
       (fun m ->
         List.filter
           (fun ks ->
             let instr = Instruction.make m (List.map placeholder ks) in
             match Exec.compile_flat (node_of instr) with
             | Some _ -> true
             | None | (exception _) -> false)
           shapes
         |> List.map (fun ks -> (m, ks)))
       Mnemonic.all)

(* Memory operands mostly address [window, window + window_size): bases
   land in its middle half, indexes stay below 16 and displacements
   within 64 bytes, which leaves room for an 8-lane access.  One base in
   eight lands in the last 64 bytes of the user-data region and one in
   eight in those of the stack region, so 8-byte and multi-lane
   accesses fault part-way through; one in sixteen is unmapped.  The
   stack pointer points into the window, or one time in eight near the
   end of the stack.  The snapshot covers the window and the last
   [edge] bytes of both regions, everything a fault can leave written. *)
let window = Layout.user_data_base
let window_size = 1024
let data_end = Layout.user_data_base + Layout.user_data_size
let stack_end = Layout.user_stack_base + Layout.user_stack_size
let edge = 256

let windows =
  [ (window, window_size); (data_end - edge, edge); (stack_end - edge, edge) ]

let random_base rs =
  match Random.State.int rs 16 with
  | 0 -> 0x100
  | 1 | 2 -> data_end - 64 + Random.State.int rs 64
  | 3 | 4 -> stack_end - 64 + Random.State.int rs 64
  | _ -> window + (window_size / 4) + Random.State.int rs (window_size / 2)

let random_gpr rs = List.nth Operand.all_gprs (Random.State.int rs 16)

let random_int64 rs =
  match Random.State.int rs 5 with
  | 0 -> 0L
  | 1 -> Int64.of_int (Random.State.int rs 64)
  | 2 -> Int64.of_int (-Random.State.int rs 64)
  | 3 -> [| Int64.min_int; Int64.max_int; -1L; 1L |].(Random.State.int rs 4)
  | _ -> Random.State.bits64 rs

let random_float rs =
  match Random.State.int rs 5 with
  | 0 -> if Random.State.bool rs then 0.0 else -0.0
  | 1 -> float_of_int (Random.State.int rs 21 - 10)
  | 2 -> Random.State.float rs 2e6 -. 1e6
  | 3 -> ldexp (Random.State.float rs 1.0) (Random.State.int rs 200 - 100)
  | _ -> Random.State.float rs 1.0

let random_operand rs = function
  | K_gpr -> Operand.Reg (Operand.Gpr (random_gpr rs))
  | K_imm -> Operand.Imm (random_int64 rs)
  | K_mem ->
      let base = random_gpr rs and index = random_gpr rs in
      Operand.Mem
        {
          Operand.base;
          index =
            (if Random.State.bool rs && not (Operand.equal_gpr index base)
             then Some index
             else None);
          scale = [| 1; 2; 4; 8 |].(Random.State.int rs 4);
          disp = Random.State.int rs 129 - 64;
        }
  | K_xmm -> Operand.Reg (Operand.Xmm (Random.State.int rs 16))
  | K_ymm -> Operand.Reg (Operand.Ymm (Random.State.int rs 16))
  | K_st -> Operand.Reg (Operand.St (Random.State.int rs 8))
  | K_rel -> Operand.Rel (Random.State.int rs 2001 - 1000)

(* One initial state, to be loaded into both machines: random registers
   and window memory, then the stack pointer and every memory operand's
   registers aimed as above.  Memory's hot region is left at one of the
   three regions, so accesses also take the miss path. *)
let initial_state rs (instr : Instruction.t) =
  let gprs = Array.init 16 (fun _ -> random_int64 rs) in
  gprs.(Operand.gpr_code Operand.RSP) <-
    Int64.of_int
      (if Random.State.int rs 8 = 0 then stack_end - 64 + Random.State.int rs 64
       else window + (window_size / 2));
  Array.iter
    (function
      | Operand.Mem m ->
          Option.iter
            (fun ix ->
              gprs.(Operand.gpr_code ix) <-
                Int64.of_int (Random.State.int rs 16))
            m.Operand.index;
          gprs.(Operand.gpr_code m.Operand.base) <-
            Int64.of_int (random_base rs)
      | Operand.Reg _ | Operand.Imm _ | Operand.Rel _ -> ())
    instr.operands;
  let vregs =
    Array.init 16 (fun _ -> Array.init 8 (fun _ -> random_float rs))
  in
  let x87 = Array.init 8 (fun _ -> random_float rs) in
  let top = Random.State.int rs 8 in
  let flags = Array.init 4 (fun _ -> Random.State.bool rs) in
  let words =
    List.map
      (fun (base, size) ->
        (base, Array.init (size / 8) (fun _ -> Random.State.bits64 rs)))
      windows
  in
  let hot =
    [| Layout.user_data_base; Layout.user_stack_base; Layout.kernel_data_base |]
    .(Random.State.int rs 3)
  in
  fun (st : State.t) ->
    Array.iteri (fun k v -> Bigarray.Array1.set st.gprs k v) gprs;
    Array.iteri (fun k lanes -> Array.blit lanes 0 st.vregs.(k) 0 8) vregs;
    Array.blit x87 0 st.x87 0 8;
    st.x87_top <- top;
    st.zf <- flags.(0);
    st.sf <- flags.(1);
    st.cf <- flags.(2);
    st.off <- flags.(3);
    List.iter
      (fun (base, ws) ->
        Array.iteri (fun k v -> Memory.write_i64 st.mem (base + (8 * k)) v) ws)
      words;
    ignore (Memory.is_mapped st.mem hot : bool)

let memory_snapshot (st : State.t) =
  List.map
    (fun (base, size) ->
      Array.init (size / 8) (fun k -> Memory.read_i64 st.mem (base + (8 * k))))
    windows

(* Floats by their bits, so NaN lanes compare too. *)
let snapshot (st : State.t) =
  ( Array.init 16 (fun k -> Bigarray.Array1.get st.gprs k),
    Array.map (Array.map Int64.bits_of_float) st.vregs,
    Array.map Int64.bits_of_float st.x87,
    st.x87_top,
    (st.zf, st.sf, st.cf, st.off),
    memory_snapshot st )

let kernel_state = lazy (State.create ())
let step_state = lazy (State.create ())

let check_kernel_against_step rs (m, ks) =
  let instr =
    Instruction.make m (List.map (random_operand rs) ks)
  in
  let node = node_of instr in
  let load = initial_state rs instr in
  let run f st =
    load st;
    match f st with c -> Ok c | exception e -> Error e
  in
  let kst = Lazy.force kernel_state and sst = Lazy.force step_state in
  let got = run (Exec.compile node) kst
  and want = run (fun st -> Exec.step st node) sst in
  let same =
    match (got, want) with
    | Ok a, Ok b -> a = b && snapshot kst = snapshot sst
    | Error a, Error b -> a = b && memory_snapshot kst = memory_snapshot sst
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  if not same then
    QCheck2.Test.fail_reportf "%s: kernel and step disagree (%s vs %s)"
      (Instruction.to_string instr)
      (match got with Ok _ -> "returned" | Error e -> Printexc.to_string e)
      (match want with Ok _ -> "returned" | Error e -> Printexc.to_string e);
  true

let prop_kernels_match_step =
  QCheck2.Test.make ~name:"every specialized shape matches step" ~count:100
    ~print:string_of_int QCheck2.Gen.(no_shrink (int_bound 0x3FFF_FFFF))
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      List.for_all
        (check_kernel_against_step rs)
        (Lazy.force specialized_shapes))

(* The executor's memory path against [Memory]'s own accessors.  Kernel
   and [step] share that path, so comparing them cannot catch a fault
   in it; here a load or store of each width, through its kernel, at
   every address from 12 bytes before the end of each region to 4 past
   it, with the hot region left at each region in turn, must read and
   write the bytes [Memory] reads and writes and fault where it
   faults. *)
let test_memory_path () =
  let kst = State.create () and rst = State.create () in
  let rax = Operand.Reg (Operand.Gpr Operand.RAX)
  and xmm0 = Operand.Reg (Operand.Xmm 0)
  and at = Operand.mem Operand.RBX in
  let outcome f = match f () with v -> Ok v | exception e -> Error e in
  let bytes (st : State.t) lo hi =
    List.init (hi - lo) (fun k ->
        if Memory.is_mapped st.mem (lo + k) then Memory.read_u8 st.mem (lo + k)
        else -1)
  in
  List.iter
    (fun (base, size) ->
      let stop = base + size in
      let pattern = Array.init 4 (fun k -> Int64.of_int ((k * 0x0101) + 0x1234)) in
      for addr = stop - 12 to stop + 4 do
        List.iter
          (fun (hot, _) ->
            List.iter
              (fun (name, m, ops, (reference : State.t -> unit), result) ->
                let load (st : State.t) =
                  Array.iteri
                    (fun k v -> Memory.write_i64 st.mem (stop - 32 + (8 * k)) v)
                    pattern;
                  Bigarray.Array1.set st.gprs (Operand.gpr_code Operand.RBX)
                    (Int64.of_int addr);
                  Bigarray.Array1.set st.gprs (Operand.gpr_code Operand.RAX)
                    0x0102030405060708L;
                  Array.fill st.vregs.(0) 0 8 (-1.5);
                  ignore (Memory.is_mapped st.mem hot : bool)
                in
                load kst;
                load rst;
                let kernel =
                  Exec.compile (node_of (Instruction.make m ops))
                in
                let got = outcome (fun () -> ignore (kernel kst : Exec.control))
                and want = outcome (fun () -> reference rst) in
                if
                  not
                    (got = want
                    && result kst = result rst
                    && bytes kst (stop - 32) (stop + 8)
                       = bytes rst (stop - 32) (stop + 8))
                then
                  Alcotest.failf "%s at %#x (hot region %#x): kernel and \
                                  Memory disagree"
                    name addr hot)
              [
                ( "MOV load", Hbbp_isa.Mnemonic.MOV, [ rax; at ],
                  (fun st ->
                    State.set_gpr st Operand.RAX (Memory.read_i64 st.mem addr)),
                  fun st -> State.get_gpr st Operand.RAX );
                ( "MOV store", Hbbp_isa.Mnemonic.MOV, [ at; rax ],
                  (fun st ->
                    Memory.write_i64 st.mem addr (State.get_gpr st Operand.RAX)),
                  fun st -> State.get_gpr st Operand.RAX );
                ( "MOVSD load", Hbbp_isa.Mnemonic.MOVSD, [ xmm0; at ],
                  (fun st -> st.vregs.(0).(0) <- Memory.read_f64 st.mem addr),
                  fun st -> Int64.bits_of_float st.vregs.(0).(0) );
                ( "MOVSD store", Hbbp_isa.Mnemonic.MOVSD, [ at; xmm0 ],
                  (fun st -> Memory.write_f64 st.mem addr st.vregs.(0).(0)),
                  fun st -> Int64.bits_of_float st.vregs.(0).(0) );
                ( "MOVSS load", Hbbp_isa.Mnemonic.MOVSS, [ xmm0; at ],
                  (fun st -> st.vregs.(0).(0) <- Memory.read_f32 st.mem addr),
                  fun st -> Int64.bits_of_float st.vregs.(0).(0) );
                ( "MOVSS store", Hbbp_isa.Mnemonic.MOVSS, [ at; xmm0 ],
                  (fun st -> Memory.write_f32 st.mem addr st.vregs.(0).(0)),
                  fun st -> Int64.bits_of_float st.vregs.(0).(0) );
              ])
          Layout.memory_regions
      done)
    Layout.memory_regions

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "executor"
    [
      ( "differential",
        [
          Alcotest.test_case "registry sweep (capped)" `Quick
            test_registry_differential;
          Alcotest.test_case "bench set full runs + bare path" `Quick
            test_bench_set_full_runs;
          Alcotest.test_case "runaway budget sweep" `Quick test_runaway_budgets;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "archives byte-identical" `Quick
            test_archives_byte_identical;
          Alcotest.test_case "reconstructions identical" `Quick
            test_reconstructions_identical;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random programs" `Quick test_fuzz_random_programs;
        ] );
      ( "kernels",
        [
          QCheck_alcotest.to_alcotest prop_kernels_match_step;
          Alcotest.test_case "memory path agrees with Memory" `Quick
            test_memory_path;
        ] );
      ( "observers",
        [
          Alcotest.test_case "registry (capped), each observer set" `Quick
            test_observers_registry;
          Alcotest.test_case "fault plan armed" `Quick
            test_observers_fault_plan;
          Alcotest.test_case "runaway budgets mid-window" `Quick
            test_observers_runaway;
          Alcotest.test_case "PMU re-run without reset" `Quick
            test_observers_rerun;
          Alcotest.test_case "sampling on every event class" `Quick
            test_observers_other_events;
          QCheck_alcotest.to_alcotest prop_observers_random_programs;
          Alcotest.test_case "log-full flushes" `Quick test_log_full_flushes;
          Alcotest.test_case "taken-branch periods 1-3" `Quick
            test_taken_periods;
          QCheck_alcotest.to_alcotest prop_observers_log_capacity;
          Alcotest.test_case "fault inside a bare block" `Quick
            test_observers_fault_in_bare_block;
        ] );
    ]
