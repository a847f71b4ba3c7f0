module Fault_prng = Hbbp_faults.Fault_prng

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  jitter : float;
  seed : int64;
}

let default =
  {
    max_attempts = 4;
    base_delay_s = 0.001;
    max_delay_s = 0.05;
    jitter = 0.25;
    seed = 1L;
  }

exception Exhausted of { attempts : int; last : exn }

let () =
  Printexc.register_printer (function
    | Exhausted { attempts; last } ->
        Some
          (Printf.sprintf "Retry.Exhausted(attempts=%d, last=%s)" attempts
             (Printexc.to_string last))
    | _ -> None)

(* Process-wide tallies, recorded on a command's root span by
   [Telemetry.with_root] as the CLI records [Faults.tally]. *)
let attempts_cell = Atomic.make 0
let exhausted_cell = Atomic.make 0

let tally () =
  let a = Atomic.get attempts_cell and e = Atomic.get exhausted_cell in
  (if a > 0 then [ ("retry.attempts", a) ] else [])
  @ if e > 0 then [ ("retry.exhausted", e) ] else []

let reset_tally () =
  Atomic.set attempts_cell 0;
  Atomic.set exhausted_cell 0

let transient = function
  | Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK | EBUSY), _, _) -> true
  | _ -> false

let backoff_s policy prng attempt =
  let base = policy.base_delay_s *. (2.0 ** float_of_int (attempt - 1)) in
  let base = Float.min policy.max_delay_s base in
  base *. (1.0 +. (policy.jitter *. Fault_prng.float prng))

let with_retry ?(policy = default) ?(is_transient = transient) f =
  let prng = Fault_prng.create ~seed:policy.seed in
  let rec go attempt =
    try f ()
    with e when is_transient e ->
      if attempt >= policy.max_attempts then begin
        ignore (Atomic.fetch_and_add exhausted_cell 1);
        raise (Exhausted { attempts = attempt; last = e })
      end
      else begin
        ignore (Atomic.fetch_and_add attempts_cell 1);
        let d = backoff_s policy prng attempt in
        if d > 0.0 then Unix.sleepf d;
        go (attempt + 1)
      end
  in
  go 1
