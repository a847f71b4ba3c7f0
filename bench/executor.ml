(* Executor gates, host-independent by construction, so CI can fail on
   an executor regression without pinning absolute numbers to a runner.
   Two are ratios between configurations measured in the same process
   on the same workloads:

   - the superblock engine must retire at least [required_ratio] times
     the legacy engine's aggregate rate over the machine bench set;
   - armed with the production observers (SDE, sampling PMU, counting
     PMU), the superblock engine must keep at least
     [required_armed_ratio] of its bare rate over the registry —
     observers consume logged blocks in batches and pay per
     instruction only inside PMI windows.  Batched observers measure
     ~0.70x (one call per block: ~0.49x; per instruction: 0.10x); the
     gate sits at about half that.

   The other two are exact counts over one bare registry pass:

   - at most [max_step_share] of the registry's retirements may run
     through the [step] thunk rather than a kernel of
     [Exec.compile_flat] (measured: 0.08%, all x87 transcendentals and
     compares);
   - [Machine.run] may allocate at most [max_alloc_per_retired] minor
     words per retired instruction (measured: 0.13, a third of it the
     [Taken] boxes of returns and indirect calls, the rest [Machine]'s
     block bookkeeping; a kernel that boxes its lane values or memory
     accesses costs several words per execution).

   A hot shape that silently loses its kernel, or a kernel that starts
   boxing again, retires the same stream, so only these counts can see
   it.  Minor-heap words are deterministic for a given build, whatever
   the host's load. *)

open Hbbp_cpu
module Workload = Hbbp_core.Workload

let required_ratio = 2.0
let required_armed_ratio = 0.35
let max_step_share = 0.0025
let max_alloc_per_retired = 0.25

let runs_step (node : Exec_graph.node) =
  match Exec.compile_flat node with
  | Some _ -> false
  | None | (exception _) -> true

(* Retirements over the whole registry on the superblock engine, and
   those of them that take the [step] thunk, by mnemonic.  An observer
   with unbounded windows counts every logged execution of each block;
   each block's members are classified once, after the run. *)
let step_retirements () =
  let total = ref 0 and by_mnemonic = Hashtbl.create 8 in
  let count (node : Exec_graph.node) n =
    total := !total + n;
    if runs_step node then begin
      let m = Hbbp_isa.Mnemonic.to_string node.instr.mnemonic in
      Hashtbl.replace by_mnemonic m
        (n + Option.value ~default:0 (Hashtbl.find_opt by_mnemonic m))
    end
  in
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let machine =
        Machine.create ~process:w.Workload.live_process
          ~engine:Machine.Superblock ()
      in
      let executions = ref [||] and blocks = ref [||] in
      let on_blocks (log : Machine.log) =
        blocks := log.blocks;
        let n = Array.length log.blocks in
        if Array.length !executions < n then begin
          let grown = Array.make n 0 in
          Array.blit !executions 0 grown 0 (Array.length !executions);
          executions := grown
        end;
        for k = 0 to log.len - 1 do
          let id = log.ids.(k) in
          let id = if id < 0 then lnot id else id in
          !executions.(id) <- !executions.(id) + 1
        done
      in
      Machine.add_observer machine
        {
          Machine.attach =
            (fun () ->
              {
                Machine.on_retire = (fun r -> count r.node 1);
                on_blocks;
                window = (fun _ -> max_int);
                taken_window = (fun () -> max_int);
              });
        };
      ignore
        (Machine.run machine ~entry:w.Workload.entry () : Machine.run_stats);
      Array.iteri
        (fun id n ->
          if n > 0 then
            Array.iter (fun node -> count node n) !blocks.(id).Machine.nodes)
        !executions)
    Hbbp_workloads.Registry.names;
  let by_mnemonic =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun m n acc -> (m, n) :: acc) by_mnemonic [])
  in
  (!total, by_mnemonic)

(* Minor words allocated inside [Machine.run] per retired instruction,
   over one bare superblock pass of the registry (machine creation
   excluded). *)
let bare_alloc_per_retired () =
  let words = ref 0.0 and retired = ref 0 in
  List.iter
    (fun name ->
      let w = Hbbp_workloads.Registry.find name in
      let machine =
        Machine.create ~process:w.Workload.live_process
          ~engine:Machine.Superblock ()
      in
      let before = Gc.minor_words () in
      let s = Machine.run machine ~entry:w.Workload.entry () in
      words := !words +. (Gc.minor_words () -. before);
      retired := !retired + s.Machine.retired)
    Hbbp_workloads.Registry.names;
  !words /. float_of_int !retired

let run ppf =
  Bench_util.header ppf
    "Executor gates: superblock >= 2x legacy, armed >= 0.35x bare, step <= \
     0.25% of registry retirements, <= 0.25 words allocated per retirement";
  let runs = Perf.machine_throughput () @ Perf.armed_throughput () in
  List.iter
    (fun (r : Perf.engine_run) ->
      Format.fprintf ppf "%-12s %-16s %9.2fM retired/s@." r.er_workload
        r.er_engine
        (Perf.rate r /. 1e6))
    runs;
  let legacy = Perf.engine_rate runs "legacy" in
  let superblock = Perf.engine_rate runs "superblock" in
  let bare = Perf.engine_rate runs "bare-superblock" in
  let armed = Perf.engine_rate runs "armed-superblock" in
  let ratio = superblock /. legacy in
  let armed_ratio = armed /. bare in
  let total, by_mnemonic = step_retirements () in
  let stepped = List.fold_left (fun a (_, n) -> a + n) 0 by_mnemonic in
  let step_share = float_of_int stepped /. float_of_int total in
  let alloc = bare_alloc_per_retired () in
  Format.fprintf ppf "aggregate: legacy %.2fM/s, superblock %.2fM/s@."
    (legacy /. 1e6) (superblock /. 1e6);
  Format.fprintf ppf "aggregate: bare-superblock %.2fM/s, armed-superblock \
                      %.2fM/s@."
    (bare /. 1e6) (armed /. 1e6);
  Format.fprintf ppf "superblock/legacy ratio: %.2fx (gate: >= %.2fx)@." ratio
    required_ratio;
  Format.fprintf ppf "armed/bare ratio: %.2fx (gate: >= %.2fx)@." armed_ratio
    required_armed_ratio;
  Format.fprintf ppf
    "step share: %.2f%% of %d registry retirements (gate: <= %.2f%%)%s@."
    (100.0 *. step_share) total (100.0 *. max_step_share)
    (match by_mnemonic with
    | [] -> ""
    | top ->
        "; by mnemonic: "
        ^ String.concat ", "
            (List.map
               (fun (m, n) ->
                 Printf.sprintf "%s %.2f%%" m
                   (100.0 *. float_of_int n /. float_of_int total))
               (List.filteri (fun k _ -> k < 5) top)));
  Format.fprintf ppf
    "allocation: %.3f minor words per retirement over a bare registry pass \
     (gate: <= %.2f)@."
    alloc max_alloc_per_retired;
  let failed = ref false in
  if ratio < required_ratio then begin
    Format.fprintf ppf
      "FAIL: superblock engine regressed below %.2fx legacy@." required_ratio;
    failed := true
  end;
  if armed_ratio < required_armed_ratio then begin
    Format.fprintf ppf
      "FAIL: armed superblock runs regressed below %.2fx bare@."
      required_armed_ratio;
    failed := true
  end;
  if step_share > max_step_share then begin
    Format.fprintf ppf
      "FAIL: more than %.2f%% of registry retirements run through step@."
      (100.0 *. max_step_share);
    failed := true
  end;
  if alloc > max_alloc_per_retired then begin
    Format.fprintf ppf
      "FAIL: bare runs allocate more than %.2f minor words per retirement@."
      max_alloc_per_retired;
    failed := true
  end;
  if !failed then exit 1;
  Format.fprintf ppf "PASS@."
