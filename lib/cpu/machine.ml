open Hbbp_isa
open Hbbp_program

type retirement = {
  mutable node : Exec_graph.node;
  mutable taken_src : int;
  mutable taken_tgt : int;
  mutable retired_index : int;
  mutable cycles : int;
  mutable shadow_active : bool;
}

type block = { id : int; nodes : Exec_graph.node array }

type log = {
  ids : int array;
  targets : int array;
  mutable len : int;
  mutable retired : int;
  mutable taken : int;
  mutable cycles : int;
  mutable blocks : block array;
}

type hooks = {
  on_retire : retirement -> unit;
  on_blocks : log -> unit;
  window : int -> int;
  taken_window : unit -> int;
}

type observer = { attach : unit -> hooks }

type run_stats = {
  retired : int;
  cycles : int;
  taken_branches : int;
  kernel_retired : int;
}

exception Runaway of int
exception Machine_fault of string

(* ------------------------------------------------------------------ *)
(* Engines.

   [Legacy] is the seed per-instruction loop, kept verbatim as the
   differential-testing reference.  [Superblock] executes cached
   basic-block closures and chains direct successors (fall-through and
   taken edges) through mutable pointers patched on first traversal, so
   steady-state execution only consults the cache when an indirect
   target changes.  Both retire bit-identical streams; they differ only
   in dispatch cost. *)
type engine = Legacy | Superblock

let engine_name = function
  | Legacy -> "legacy"
  | Superblock -> "superblock"

let all_engines = [ Legacy; Superblock ]

(* A basic block compiled to straight-line kernels plus the mutable
   successor links that superblock chaining patches.
   [c_taken] is keyed by [c_taken_addr] so one slot serves both direct
   branches (the guard always passes) and indirect ones (it degrades
   into a monomorphic inline cache). *)
type compiled = {
  c_block : block;  (** Members, and the id observers key them by. *)
  c_kernels : Exec.kernel array;
  c_last : Exec_graph.node;
  c_len : int;
  c_cost : int;  (** Sum of member issue costs. *)
  c_kernel_count : int;  (** Members retiring in ring 0. *)
  c_shadow : int;  (** PMI shadow relative to block entry; -1 = none. *)
  mutable c_fall : compiled option;
  mutable c_taken_addr : int;  (** Address [c_taken] resolves; -1 = none. *)
  mutable c_taken : compiled option;
}

type t = {
  graph : Exec_graph.t;
  st : State.t;
  process : Process.t;
  engine : engine;
  mutable observers_rev : hooks list;
      (* Accumulated in reverse; frozen to an array at [run] time so
         [add_observer] stays O(1) instead of re-copying an array. *)
  kernel_entry : int option;
  cache : compiled Exec_graph.table;
      (* Compiled blocks keyed by entry address — dense per-segment
         arrays, so resolving an indirect branch target to compiled
         code costs the same as [Exec_graph.node_at]. *)
  scratch : retirement;
  mutable log : log option;
      (* Allocated by the first run with observers, so bare machines
         allocate none. *)
  mutable blocks : block array;
      (* Compiled blocks by id, handed to observers as [log.blocks]. *)
  mutable compiled_blocks : int;  (* next [block.id] *)
}

let fault fmt = Format.kasprintf (fun s -> raise (Machine_fault s)) fmt

let log_capacity = 1024

let create ~process ?(seed = 42L) ?(engine = Superblock) () =
  let graph = Exec_graph.build_exn process in
  let st = State.create ~seed () in
  let dummy_node =
    (* Any node serves as the scratch record's initial value. *)
    let exception Found of Exec_graph.node in
    try
      List.iter
        (fun (img : Image.t) ->
          match Exec_graph.node_at graph img.base with
          | Some n -> raise (Found n)
          | None -> ())
        (Process.images process);
      fault "process has no decodable code"
    with Found n -> n
  in
  {
    graph;
    st;
    process;
    engine;
    observers_rev = [];
    kernel_entry = Kernel_abi.entry_addr process;
    cache = Exec_graph.create_table graph;
    scratch =
      {
        node = dummy_node;
        taken_src = -1;
        taken_tgt = -1;
        retired_index = 0;
        cycles = 0;
        shadow_active = false;
      };
    log = None;
    blocks = [||];
    compiled_blocks = 0;
  }

let state t = t.st
let process t = t.process
let engine t = t.engine

let add_observer t obs = t.observers_rev <- obs.attach () :: t.observers_rev

(* The sentinel "return address" pushed below the entry frame: returning
   to it ends the run. *)
let sentinel = 0

(* Compiled block whose entry is [addr]: dense cache hit, or compile the
   graph's (cached) basic block on a miss. *)
let compiled_at t addr =
  match Exec_graph.table_find t.cache addr with
  | Some c -> c
  | None -> (
      match Exec_graph.block_at t.graph addr with
      | None -> fault "branch to unmapped address %#x" addr
      | Some (b : Exec_graph.block) ->
          let id = t.compiled_blocks in
          t.compiled_blocks <- id + 1;
          let block = { id; nodes = b.b_nodes } in
          let n = Array.length t.blocks in
          if id = n then begin
            let blocks = Array.make (max 64 (2 * n)) block in
            Array.blit t.blocks 0 blocks 0 n;
            t.blocks <- blocks
          end;
          t.blocks.(id) <- block;
          let c =
            {
              c_block = block;
              c_kernels = Array.map Exec.compile b.b_nodes;
              c_last = b.b_last;
              c_len = b.b_len;
              c_cost = b.b_cost;
              c_kernel_count = b.b_kernel;
              c_shadow = b.b_shadow;
              c_fall = None;
              c_taken_addr = -1;
              c_taken = None;
            }
          in
          Exec_graph.table_set t.cache addr c;
          c)

(* ------------------------------------------------------------------ *)
(* Legacy engine: the seed per-instruction loop, unchanged.  Kept as
   the reference the superblock engine is differentially tested
   against. *)

let run_legacy t ~entry ~max_instructions =
  let st = t.st in
  let retired = ref 0 in
  let cycles = ref 0 in
  let shadow_until = ref 0 in
  let taken_branches = ref 0 in
  let kernel_retired = ref 0 in
  let observers = Array.of_list (List.rev t.observers_rev) in
  let nobs = Array.length observers in
  let scratch = t.scratch in
  let node0 =
    match Exec_graph.node_at t.graph entry with
    | Some n -> n
    | None -> fault "entry point %#x is not mapped code" entry
  in
  (* Resolve the node for a taken-branch target: per-node target cache
     first, dense lookup only on a miss. *)
  let resolve (node : Exec_graph.node) tgt =
    match node.target with
    | Some tn when tn.Exec_graph.addr = tgt -> tn
    | Some _ | None -> (
        match Exec_graph.node_at t.graph tgt with
        | Some n -> n
        | None -> fault "branch to unmapped address %#x" tgt)
  in
  let notify (node : Exec_graph.node) shadow_active =
    scratch.node <- node;
    scratch.retired_index <- !retired - 1;
    scratch.cycles <- !cycles;
    scratch.shadow_active <- shadow_active;
    for k = 0 to nobs - 1 do
      observers.(k).on_retire scratch
    done
  in
  (* One dispatch on [control] per retirement does everything: branch
     accounting, observer notification (scratch updates are skipped
     entirely when nobody listens), next-node resolution. *)
  let rec loop (node : Exec_graph.node) =
    if !retired >= max_instructions then raise (Runaway !retired);
    st.ip <- node.addr;
    let control = Exec.step st node in
    let shadow_active = !cycles < !shadow_until in
    let cycle_before = !cycles in
    cycles := !cycles + node.issue_cost;
    if node.long_latency then begin
      let until = cycle_before + node.latency in
      if until > !shadow_until then shadow_until := until
    end;
    incr retired;
    if node.kernel then incr kernel_retired;
    match control with
    | Exec.Fall -> (
        if nobs > 0 then begin
          scratch.taken_src <- -1;
          scratch.taken_tgt <- -1;
          notify node shadow_active
        end;
        match node.fall with
        | Some n -> loop n
        | None ->
            fault "execution fell off code at %#x" (node.addr + node.len))
    | Exec.Taken tgt ->
        incr taken_branches;
        if nobs > 0 then begin
          scratch.taken_src <- node.addr;
          scratch.taken_tgt <- tgt;
          notify node shadow_active
        end;
        (* Returning to the sentinel frame ends the run. *)
        if tgt <> sentinel then loop (resolve node tgt)
    | Exec.Syscall_enter ra -> (
        match t.kernel_entry with
        | None -> fault "SYSCALL with no kernel mapped (at %#x)" node.addr
        | Some kentry ->
            State.set_gpr st Operand.RCX (Int64.of_int ra);
            st.ring <- Ring.Kernel;
            incr taken_branches;
            if nobs > 0 then begin
              scratch.taken_src <- node.addr;
              scratch.taken_tgt <- kentry;
              notify node shadow_active
            end;
            loop (resolve node kentry))
    | Exec.Sysret_exit tgt ->
        st.ring <- Ring.User;
        incr taken_branches;
        if nobs > 0 then begin
          scratch.taken_src <- node.addr;
          scratch.taken_tgt <- tgt;
          notify node shadow_active
        end;
        if tgt <> sentinel then loop (resolve node tgt)
    | Exec.Halt ->
        if nobs > 0 then begin
          scratch.taken_src <- -1;
          scratch.taken_tgt <- -1;
          notify node shadow_active
        end
  in
  loop node0;
  {
    retired = !retired;
    cycles = !cycles;
    taken_branches = !taken_branches;
    kernel_retired = !kernel_retired;
  }

(* ------------------------------------------------------------------ *)
(* Superblock engine.

   One block-level loop, two bodies per block:

   - [exec_block] runs the whole block straight-line, updates the
     counters per block (the PMI shadow through the block's static
     [c_shadow]) and, when observers are attached, appends the block
     to the block log: its id, and the target if it branched — no
     call.  It is entered only when the block fits the horizons: the
     instruction budget and every observer's retirement window, and a
     taken-branch window with room for one more branch.  No kernel (nor
     fault handler) reads [State.t.ip], so only the terminator's store
     is kept; the post-run value matches the legacy engine's.

   - [exec_detailed] retires node by node with exactly the legacy
     loop's ordering — runaway check, [st.ip], kernel, shadow/cycle/
     counter updates, per-retirement notification — so a block that
     could overflow a sampling counter, advance a pending PMI or exceed
     the budget is bit-identical to the seed loop, including the
     retirement at which [Runaway] is raised.

   The log is handed to every observer's [on_blocks] when the next
   block does not fit, when the log is full, at run end and before an
   exception leaves the run.  The windows are queried afresh after
   every flush except the final one and after every detailed block, so
   they are fresh whenever the log is empty: a block runs detailed
   exactly when it does not fit windows reported just before it.

   That due-by-N budgeting is what keeps sampling semantics identical
   across engines.  Without observers the horizon is the budget and
   nothing is logged, so a bare run is [exec_block] throughout. *)

let run_superblock t ~entry ~max_instructions =
  let st = t.st in
  let retired = ref 0 in
  let cycles = ref 0 in
  let shadow_until = ref 0 in
  let taken_branches = ref 0 in
  let kernel_retired = ref 0 in
  let observers = Array.of_list (List.rev t.observers_rev) in
  let nobs = Array.length observers in
  let scratch = t.scratch in
  let log =
    match t.log with
    | Some log -> log
    | None ->
        let cap = if nobs > 0 then log_capacity else 0 in
        let log =
          { ids = Array.make cap 0; targets = Array.make cap 0; len = 0;
            retired = 0; taken = 0; cycles = 0; blocks = [||] }
        in
        (* Without observers nothing is logged: an empty log serves. *)
        if nobs > 0 then t.log <- Some log;
        log
  in
  let ids = log.ids and targets = log.targets in
  log.len <- 0;
  let c0 =
    match Exec_graph.node_at t.graph entry with
    | None -> fault "entry point %#x is not mapped code" entry
    | Some _ -> compiled_at t entry
  in
  (* Successor resolution, patching the link into the block on first
     traversal. *)
  let fall_of (c : compiled) =
    match c.c_fall with
    | Some c' -> c'
    | None -> (
        let last = c.c_last in
        match last.Exec_graph.fall with
        | None -> fault "execution fell off code at %#x" (last.addr + last.len)
        | Some n ->
            let c' = compiled_at t n.Exec_graph.addr in
            c.c_fall <- Some c';
            c')
  in
  let taken_of (c : compiled) tgt =
    if c.c_taken_addr = tgt then
      match c.c_taken with Some c' -> c' | None -> assert false
    else begin
      let c' = compiled_at t tgt in
      c.c_taken_addr <- tgt;
      c.c_taken <- Some c';
      c'
    end
  in
  (* Retirement index and taken-branch count up to which whole blocks
     may run bare. *)
  let horizon = ref max_instructions in
  let taken_horizon = ref max_int in
  let query_windows () =
    let w = ref max_int and tw = ref max_int in
    for k = 0 to nobs - 1 do
      let o = observers.(k) in
      let wk = o.window !cycles in
      if wk < !w then w := wk;
      let tk = o.taken_window () in
      if tk < !tw then tw := tk
    done;
    horizon :=
      if !w >= max_instructions - !retired then max_instructions
      else !retired + !w;
    taken_horizon :=
      if !tw >= max_int - !taken_branches then max_int
      else !taken_branches + !tw
  in
  (* Counters at the last flush or detailed block: the batch totals
     are measured from them. *)
  let batch_retired = ref 0 and batch_taken = ref 0 in
  let flush () =
    if log.len > 0 then begin
      log.retired <- !retired - !batch_retired;
      log.taken <- !taken_branches - !batch_taken;
      log.cycles <- !cycles;
      log.blocks <- t.blocks;
      for k = 0 to nobs - 1 do
        observers.(k).on_blocks log
      done;
      log.len <- 0
    end;
    batch_retired := !retired;
    batch_taken := !taken_branches
  in
  let sync () =
    flush ();
    query_windows ()
  in
  let notify (node : Exec_graph.node) shadow_active =
    scratch.node <- node;
    scratch.retired_index <- !retired - 1;
    scratch.cycles <- !cycles;
    scratch.shadow_active <- shadow_active;
    for k = 0 to nobs - 1 do
      observers.(k).on_retire scratch
    done
  in
  (* The terminator of a detailed block: its notification, then the
     windows the block left behind. *)
  let notify_last node shadow_active taken_src taken_tgt =
    if nobs > 0 then begin
      scratch.taken_src <- taken_src;
      scratch.taken_tgt <- taken_tgt;
      notify node shadow_active
    end;
    sync ()
  in
  (* Timing-model and counter updates for one retirement; returns
     whether a long-latency shadow inhibited PMI at this retirement.
     Field-for-field the legacy loop's update block. *)
  let retire (node : Exec_graph.node) =
    let shadow_active = !cycles < !shadow_until in
    let cycle_before = !cycles in
    cycles := !cycles + node.issue_cost;
    if node.long_latency then begin
      let until = cycle_before + node.latency in
      if until > !shadow_until then shadow_until := until
    end;
    incr retired;
    if node.kernel then incr kernel_retired;
    shadow_active
  in
  let rec exec (c : compiled) =
    if !retired + c.c_len <= !horizon && !taken_branches < !taken_horizon
    then exec_block c
    else if log.len > 0 then begin
      sync ();
      exec c
    end
    else exec_detailed c
  and exec_block (c : compiled) =
    let kernels = c.c_kernels in
    let lastk = c.c_len - 1 in
    for k = 0 to lastk - 1 do
      ignore ((Array.unsafe_get kernels k) st : Exec.control)
    done;
    let node = c.c_last in
    st.ip <- node.Exec_graph.addr;
    let control = (Array.unsafe_get kernels lastk) st in
    let cycle_before = !cycles in
    retired := !retired + c.c_len;
    cycles := cycle_before + c.c_cost;
    kernel_retired := !kernel_retired + c.c_kernel_count;
    if c.c_shadow >= 0 then begin
      let until = cycle_before + c.c_shadow in
      if until > !shadow_until then shadow_until := until
    end;
    match control with
    | Exec.Fall ->
        if nobs > 0 then begin
          let n = log.len in
          Array.unsafe_set ids n c.c_block.id;
          log.len <- n + 1;
          if n + 1 = log_capacity then sync ()
        end;
        exec (fall_of c)
    | Exec.Halt ->
        if nobs > 0 then begin
          let n = log.len in
          Array.unsafe_set ids n c.c_block.id;
          log.len <- n + 1
        end
    | Exec.Taken _ | Exec.Syscall_enter _ | Exec.Sysret_exit _ ->
        let tgt =
          match control with
          | Exec.Syscall_enter ra -> (
              match t.kernel_entry with
              | None ->
                  (* The block never retires whole, so the batch totals
                     a flush reports must not count it. *)
                  retired := !retired - c.c_len;
                  cycles := cycle_before;
                  fault "SYSCALL with no kernel mapped (at %#x)" node.addr
              | Some kentry ->
                  State.set_gpr st Operand.RCX (Int64.of_int ra);
                  st.ring <- Ring.Kernel;
                  kentry)
          | Exec.Sysret_exit tgt ->
              st.ring <- Ring.User;
              tgt
          | Exec.Taken tgt -> tgt
          | Exec.Fall | Exec.Halt -> assert false
        in
        incr taken_branches;
        if nobs > 0 then begin
          let n = log.len in
          Array.unsafe_set ids n (lnot c.c_block.id);
          Array.unsafe_set targets n tgt;
          log.len <- n + 1;
          if n + 1 = log_capacity then sync ()
        end;
        (* Returning to the sentinel frame ends the run; the kernel
           entry never is the sentinel. *)
        if tgt <> sentinel then exec (taken_of c tgt)
  and exec_detailed (c : compiled) =
    let kernels = c.c_kernels and nodes = c.c_block.nodes in
    let lastk = c.c_len - 1 in
    for k = 0 to lastk - 1 do
      if !retired >= max_instructions then raise (Runaway !retired);
      let node = Array.unsafe_get nodes k in
      st.ip <- node.Exec_graph.addr;
      ignore ((Array.unsafe_get kernels k) st : Exec.control);
      let shadow_active = retire node in
      if nobs > 0 then begin
        scratch.taken_src <- -1;
        scratch.taken_tgt <- -1;
        notify node shadow_active
      end
    done;
    if !retired >= max_instructions then raise (Runaway !retired);
    let node = c.c_last in
    st.ip <- node.Exec_graph.addr;
    let control = (Array.unsafe_get kernels lastk) st in
    let shadow_active = retire node in
    match control with
    | Exec.Fall ->
        notify_last node shadow_active (-1) (-1);
        exec (fall_of c)
    | Exec.Taken tgt ->
        incr taken_branches;
        notify_last node shadow_active node.addr tgt;
        if tgt <> sentinel then exec (taken_of c tgt)
    | Exec.Syscall_enter ra -> (
        match t.kernel_entry with
        | None -> fault "SYSCALL with no kernel mapped (at %#x)" node.addr
        | Some kentry ->
            State.set_gpr st Operand.RCX (Int64.of_int ra);
            st.ring <- Ring.Kernel;
            incr taken_branches;
            notify_last node shadow_active node.addr kentry;
            exec (taken_of c kentry))
    | Exec.Sysret_exit tgt ->
        st.ring <- Ring.User;
        incr taken_branches;
        notify_last node shadow_active node.addr tgt;
        if tgt <> sentinel then exec (taken_of c tgt)
    | Exec.Halt -> notify_last node shadow_active (-1) (-1)
  in
  query_windows ();
  (match exec c0 with
  | () -> flush ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      flush ();
      Printexc.raise_with_backtrace e bt);
  {
    retired = !retired;
    cycles = !cycles;
    taken_branches = !taken_branches;
    kernel_retired = !kernel_retired;
  }

let run t ~entry ?(max_instructions = 2_000_000_000) () =
  let st = t.st in
  State.reset_registers st;
  let rsp = Layout.initial_rsp - 8 in
  State.set_gpr st Operand.RSP (Int64.of_int rsp);
  Memory.write_i64 st.mem rsp (Int64.of_int sentinel);
  st.ip <- entry;
  match t.engine with
  | Legacy -> run_legacy t ~entry ~max_instructions
  | Superblock -> run_superblock t ~entry ~max_instructions
