type span = {
  name : string;
  cat : string;
  track : int;
  start_us : float;
  dur_us : float;
  depth : int;
  args : (string * string) list;
}

type event =
  | Counter of {
      e_name : string;
      e_track : int;
      e_ts_us : float;
      e_values : (string * float) list;
    }
  | Instant of {
      e_name : string;
      e_cat : string;
      e_track : int;
      e_ts_us : float;
      e_args : (string * string) list;
    }

(* One atomic word gates every instrumentation site: bit 0 = span
   recording (tracing proper), bit 1 = boundary hooks armed (runtime
   profiler probe and/or snapshot tick).  The disabled [with_span] fast
   path is a single atomic load and compare with zero — the same cost
   as the original boolean — which is what keeps the disabled span
   budget at ~2 ns. *)
let trace_bit = 1
let hook_bit = 2
let mode = Atomic.make 0

let enabled () = Atomic.get mode land trace_bit <> 0

(* Span-boundary hooks.  [probe] is consulted at span open/close (the
   runtime profiler captures GC deltas there); [tick] fires once per
   span close (the snapshot emitter counts spans there).  Both are set
   quiescently — before the instrumented work starts — and read without
   a lock; an OCaml ref read cannot tear. *)
type probe = {
  p_open : unit -> unit;
  p_close : name:string -> cat:string -> (string * string) list;
}

let probe : probe option ref = ref None
let tick : (unit -> unit) option ref = ref None

let update_hook_bit () =
  let rec go () =
    let m = Atomic.get mode in
    let m' =
      if !probe <> None || !tick <> None then m lor hook_bit
      else m land lnot hook_bit
    in
    if m <> m' && not (Atomic.compare_and_set mode m m') then go ()
  in
  go ()

let set_probe p =
  probe := p;
  update_hook_bit ()

let set_tick t =
  tick := t;
  update_hook_bit ()

(* Trace epoch: gettimeofday at [enable]; span timestamps are relative
   to it.  The wall clock can step backwards (NTP); [now] monotonizes it
   with a global high-water mark so exported timestamps never regress
   across domains. *)
let epoch = Atomic.make 0.0

let high_water = Atomic.make 0.0

let rec now () =
  let t = Unix.gettimeofday () in
  let last = Atomic.get high_water in
  if t >= last then
    if Atomic.compare_and_set high_water last t then t else now ()
  else last

let now_us () = (now () -. Atomic.get epoch) *. 1e6

(* Per-domain buffer.  Only its owner domain appends; [reset] is the
   lone cross-domain write and is documented quiescent-only.  Each span
   carries a per-track sequence number taken when it {e opens}, so spans
   whose microsecond timestamps tie still sort parents-before-children
   and in program order. *)
type buffer = {
  track : int;
  mutable depth : int;
  mutable next_seq : int;
  mutable spans_rev : (int * span) list;
  mutable events_rev : event list;
  mutable open_names : string list;
}

let registry_lock = Mutex.create ()
let buffers : buffer list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          track = (Domain.self () :> int);
          depth = 0;
          next_seq = 0;
          spans_rev = [];
          events_rev = [];
          open_names = [];
        }
      in
      Mutex.lock registry_lock;
      buffers := b :: !buffers;
      Mutex.unlock registry_lock;
      b)

let current_span () =
  match (Domain.DLS.get key).open_names with
  | name :: _ -> Some name
  | [] -> None

let enable () =
  let rec set_bit () =
    let m = Atomic.get mode in
    if m land trace_bit = 0 then begin
      Atomic.set epoch (Unix.gettimeofday ());
      if not (Atomic.compare_and_set mode m (m lor trace_bit)) then set_bit ()
    end
  in
  set_bit ()

let disable () =
  let rec clear () =
    let m = Atomic.get mode in
    if
      m land trace_bit <> 0
      && not (Atomic.compare_and_set mode m (m land lnot trace_bit))
    then clear ()
  in
  clear ()

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      b.spans_rev <- [];
      b.events_rev <- [];
      b.open_names <- [];
      b.depth <- 0;
      b.next_seq <- 0)
    !buffers;
  Mutex.unlock registry_lock

let counter name values =
  if Atomic.get mode land trace_bit <> 0 then begin
    let b = Domain.DLS.get key in
    b.events_rev <-
      Counter { e_name = name; e_track = b.track; e_ts_us = now_us ();
                e_values = values }
      :: b.events_rev
  end

let instant ?(cat = "hbbp") ?(args = []) name =
  if Atomic.get mode land trace_bit <> 0 then begin
    let b = Domain.DLS.get key in
    b.events_rev <-
      Instant { e_name = name; e_cat = cat; e_track = b.track;
                e_ts_us = now_us (); e_args = args }
      :: b.events_rev
  end

let with_span ?(cat = "hbbp") ?(args = []) name f =
  let m = Atomic.get mode in
  if m = 0 then f ()
  else begin
    let tracing = m land trace_bit <> 0 in
    let b = Domain.DLS.get key in
    let depth = b.depth in
    b.depth <- depth + 1;
    let seq = b.next_seq in
    b.next_seq <- seq + 1;
    (* Probe open runs before the new span is pushed: the GC delta since
       the previous boundary belongs to the {e enclosing} span. *)
    (match !probe with Some p -> p.p_open () | None -> ());
    b.open_names <- name :: b.open_names;
    let t0 = if tracing then now_us () else 0.0 in
    let finish () =
      let probe_args =
        match !probe with Some p -> p.p_close ~name ~cat | None -> []
      in
      if tracing then begin
        let dur = Float.max 0.0 (now_us () -. t0) in
        b.spans_rev <-
          ( seq,
            { name; cat; track = b.track; start_us = t0; dur_us = dur; depth;
              args = args @ probe_args } )
          :: b.spans_rev
      end;
      b.depth <- depth;
      (match b.open_names with _ :: tl -> b.open_names <- tl | [] -> ());
      match !tick with Some t -> t () | None -> ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let spans () =
  Mutex.lock registry_lock;
  let all = List.concat_map (fun b -> b.spans_rev) !buffers in
  Mutex.unlock registry_lock;
  List.map snd
    (List.sort
       (fun ((seq_a : int), (a : span)) (seq_b, b) ->
         match compare a.start_us b.start_us with
         | 0 ->
             if a.track = b.track then compare seq_a seq_b
             else compare a.track b.track
         | c -> c)
       all)

let span_count () =
  Mutex.lock registry_lock;
  let n = List.fold_left (fun acc b -> acc + List.length b.spans_rev) 0 !buffers in
  Mutex.unlock registry_lock;
  n

let events () =
  Mutex.lock registry_lock;
  let all = List.concat_map (fun b -> List.rev b.events_rev) !buffers in
  Mutex.unlock registry_lock;
  let ts = function Counter c -> c.e_ts_us | Instant i -> i.e_ts_us in
  List.stable_sort (fun a b -> compare (ts a) (ts b)) all

let event_count () =
  Mutex.lock registry_lock;
  let n =
    List.fold_left (fun acc b -> acc + List.length b.events_rev) 0 !buffers
  in
  Mutex.unlock registry_lock;
  n

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun k (key, v) ->
      if k > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (Json.escape key) (Json.escape v)))
    args;
  Buffer.add_string buf "}"

let export () =
  let all = spans () in
  let evs = events () in
  let tracks =
    List.sort_uniq compare
      (List.map (fun (s : span) -> s.track) all
      @ List.map
          (function Counter c -> c.e_track | Instant i -> i.e_track)
          evs)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"hbbp\"}}";
  List.iter
    (fun track ->
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d%s\"}}"
           track track (if track = 0 then " (main)" else "")))
    tracks;
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":"
           (Json.escape s.name) (Json.escape s.cat) s.start_us s.dur_us
           s.track);
      add_args buf s.args;
      Buffer.add_string buf "}")
    all;
  List.iter
    (fun e ->
      match e with
      | Counter { e_name; e_track; e_ts_us; e_values } ->
          Buffer.add_string buf
            (Printf.sprintf
               ",{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
               (Json.escape e_name) e_ts_us e_track);
          List.iteri
            (fun k (key, v) ->
              if k > 0 then Buffer.add_string buf ",";
              Buffer.add_string buf
                (Printf.sprintf "\"%s\":%.3f" (Json.escape key) v))
            e_values;
          Buffer.add_string buf "}}"
      | Instant { e_name; e_cat; e_track; e_ts_us; e_args } ->
          Buffer.add_string buf
            (Printf.sprintf
               ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":"
               (Json.escape e_name) (Json.escape e_cat) e_ts_us e_track);
          add_args buf e_args;
          Buffer.add_string buf "}")
    evs;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* Atomic publish: an interrupted run leaves the previous trace (or
   nothing), never a torn JSON file Perfetto rejects. *)
let write ~path = Hbbp_durable.Durable.write_file ~fsync:false ~path (export ())
