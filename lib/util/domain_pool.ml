module Trace = Hbbp_telemetry.Trace
module Metrics = Hbbp_telemetry.Metrics

let default_jobs () =
  match Sys.getenv_opt "HBBP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let now = Unix.gettimeofday

type worker_stats = { tasks : int; busy_s : float; wait_s : float }

let utilization (s : worker_stats) =
  let total = s.busy_s +. s.wait_s in
  if total <= 0.0 then 0.0 else s.busy_s /. total

(* One accounting cell per worker (cell 0 doubles as the caller's cell
   on the single-job sequential path).  Workers update their own cell
   under the pool lock; [stats] reads under the same lock. *)
type cell = {
  mutable c_tasks : int;
  mutable c_busy_s : float;
  mutable c_wait_s : float;
}

type t = {
  n_jobs : int;
  (* A job returns its completion continuation; the worker accounts the
     task in its cell BEFORE invoking it, so by the time the submitter
     observes completion, [stats] already includes the task. *)
  queue : (unit -> unit -> unit) Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  cells : cell array;
}

let jobs t = t.n_jobs

let worker pool idx =
  let cell = pool.cells.(idx) in
  let rec next () =
    let arrived = now () in
    Mutex.lock pool.lock;
    let rec await () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.closed then None
      else begin
        Condition.wait pool.work_ready pool.lock;
        await ()
      end
    in
    let job = await () in
    cell.c_wait_s <- cell.c_wait_s +. (now () -. arrived);
    Mutex.unlock pool.lock;
    match job with
    | Some run ->
        let t0 = now () in
        let complete = run () in
        let t1 = now () in
        Mutex.lock pool.lock;
        cell.c_tasks <- cell.c_tasks + 1;
        cell.c_busy_s <- cell.c_busy_s +. (t1 -. t0);
        Mutex.unlock pool.lock;
        complete ();
        next ()
    | None -> ()
  in
  next ()

let create ?jobs () =
  let n_jobs =
    match jobs with Some n -> max 1 n | None -> default_jobs ()
  in
  let recommended = Domain.recommended_domain_count () in
  if n_jobs > recommended then
    Printf.eprintf
      "hbbp: warning: %d jobs exceeds the %d recommended domains on this \
       host; expect oversubscription\n\
       %!"
      n_jobs recommended;
  let pool =
    {
      n_jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      closed = false;
      workers = [];
      cells =
        Array.init n_jobs (fun _ ->
            { c_tasks = 0; c_busy_s = 0.0; c_wait_s = 0.0 });
    }
  in
  if n_jobs > 1 then
    pool.workers <-
      List.init n_jobs (fun idx -> Domain.spawn (fun () -> worker pool idx));
  pool

let stats pool =
  Mutex.lock pool.lock;
  let out =
    Array.map
      (fun c -> { tasks = c.c_tasks; busy_s = c.c_busy_s; wait_s = c.c_wait_s })
      pool.cells
  in
  Mutex.unlock pool.lock;
  out

(* Serializes the read-add-set of the time gauges when two pools shut
   down at once. *)
let fold_lock = Mutex.create ()

(* Fold the pool's lifetime accounting into the metrics registry —
   called once, by the first [shutdown].  Counters and time gauges both
   accumulate, so after several pools every [pool.*] metric covers all
   of them, and each utilization is recomputed from the summed times. *)
let emit_metrics pool =
  if Metrics.enabled () then begin
    let all = stats pool in
    Mutex.lock fold_lock;
    Metrics.add
      (Metrics.counter "pool.tasks")
      (Array.fold_left (fun acc s -> acc + s.tasks) 0 all);
    Array.iteri
      (fun k s ->
        let name part = Printf.sprintf "pool.domain%d.%s" k part in
        let accumulate part v =
          let g = Metrics.gauge (name part) in
          let total = Metrics.gauge_value g +. v in
          Metrics.set g total;
          total
        in
        Metrics.add (Metrics.counter (name "tasks")) s.tasks;
        let busy_s = accumulate "busy_s" s.busy_s in
        let wait_s = accumulate "wait_s" s.wait_s in
        Metrics.set
          (Metrics.gauge (name "utilization"))
          (utilization { tasks = 0; busy_s; wait_s }))
      all;
    (* The registry holds every domain slot any pool has used. *)
    let sum suffix =
      List.fold_left
        (fun acc (n, v) ->
          match v with
          | Metrics.Gauge g
            when String.starts_with ~prefix:"pool.domain" n
                 && String.ends_with ~suffix n ->
              acc +. g
          | _ -> acc)
        0.0 (Metrics.snapshot ())
    in
    Metrics.set
      (Metrics.gauge "pool.utilization")
      (utilization
         { tasks = 0; busy_s = sum ".busy_s"; wait_s = sum ".wait_s" });
    Mutex.unlock fold_lock
  end

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.closed then Mutex.unlock pool.lock
  else begin
    pool.closed <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.workers;
    pool.workers <- [];
    emit_metrics pool
  end

(* Every task runs inside a [pool]/[task] span: the trace's record of
   when each worker was busy. *)
let map_core pool f xs =
  let apply x = Trace.with_span ~cat:"pool" "task" (fun () -> f x) in
  let n = Array.length xs in
  if pool.closed then invalid_arg "Domain_pool: pool is shut down";
  if n = 0 then [||]
  else if pool.n_jobs = 1 then begin
    (* Sequential path: no domains, but the same accounting as the
       workers so [stats] is equivalent regardless of the job count.
       The first exception propagates immediately — which is the
       lowest-indexed one, since tasks run in order. *)
    let cell = pool.cells.(0) in
    Array.map
      (fun x ->
        let t0 = now () in
        let v = apply x in
        cell.c_tasks <- cell.c_tasks + 1;
        cell.c_busy_s <- cell.c_busy_s +. (now () -. t0);
        v)
      xs
  end
  else begin
    let results = Array.make n None in
    let failure = ref None in
    let remaining = ref n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let task k () =
      (match apply xs.(k) with
      | v ->
          Mutex.lock done_lock;
          results.(k) <- Some v;
          Mutex.unlock done_lock
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock done_lock;
          (* Keep the lowest-indexed failure so the surfaced exception
             does not depend on scheduling. *)
          (match !failure with
          | Some (k0, _, _) when k0 < k -> ()
          | Some _ | None -> failure := Some (k, e, bt));
          Mutex.unlock done_lock);
      fun () ->
        Mutex.lock done_lock;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock done_lock
    in
    Mutex.lock pool.lock;
    for k = 0 to n - 1 do
      Queue.add (task k) pool.queue
    done;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    Mutex.lock done_lock;
    while !remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let map pool f xs = Array.to_list (map_core pool f (Array.of_list xs))

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run ?jobs f xs = with_pool ?jobs (fun pool -> map pool f xs)
