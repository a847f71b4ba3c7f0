module Trace = Hbbp_telemetry.Trace

let default_jobs () =
  match Sys.getenv_opt "HBBP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

type t = {
  n_jobs : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.n_jobs

let worker pool =
  let rec next () =
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
    Mutex.unlock pool.lock;
    match job with
    | Some run ->
        run ();
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
    }
  in
  if n_jobs > 1 then
    pool.workers <-
      List.init n_jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.closed then Mutex.unlock pool.lock
  else begin
    pool.closed <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

(* Every task runs inside a [pool]/[task] span: the trace's one record of
   when each worker was busy. *)
let map_core pool f xs =
  let apply x = Trace.with_span ~cat:"pool" "task" (fun () -> f x) in
  let n = Array.length xs in
  if pool.closed then invalid_arg "Domain_pool: pool is shut down";
  if n = 0 then [||]
  else if pool.n_jobs = 1 then
    (* Sequential path: no domains, the same task spans.  The first
       exception propagates immediately — which is the lowest-indexed
       one, since tasks run in order. *)
    Array.map apply xs
  else begin
    let results = Array.make n None in
    let failure = ref None in
    let remaining = ref n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let task k () =
      let outcome =
        match apply xs.(k) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock done_lock;
      (match outcome with
      | Ok v -> results.(k) <- Some v
      | Error (e, bt) -> (
          (* Keep the lowest-indexed failure so the surfaced exception
             does not depend on scheduling. *)
          match !failure with
          | Some (k0, _, _) when k0 < k -> ()
          | Some _ | None -> failure := Some (k, e, bt)));
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
