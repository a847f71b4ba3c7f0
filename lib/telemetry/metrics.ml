type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : float Atomic.t }

type histogram = {
  h_name : string;
  bounds : float array;
  buckets : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let registry_lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.reset registry;
  Mutex.unlock registry_lock

let register name build pick =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = build () in
        Hashtbl.replace registry name m;
        m
  in
  Mutex.unlock registry_lock;
  match pick m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as another kind"
           name)

let counter name =
  register name
    (fun () -> M_counter { c_name = name; c = Atomic.make 0 })
    (function M_counter c -> Some c | _ -> None)

let add c n = ignore (Atomic.fetch_and_add c.c n)
let incr c = add c 1
let counter_value c = Atomic.get c.c

let gauge name =
  register name
    (fun () -> M_gauge { g_name = name; g = Atomic.make 0.0 })
    (function M_gauge g -> Some g | _ -> None)

let set g v = Atomic.set g.g v
let gauge_value g = Atomic.get g.g

let default_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

let histogram ?(bounds = default_bounds) name =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun k b ->
      if k > 0 && bounds.(k - 1) >= b then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  register name
    (fun () ->
      M_histogram
        {
          h_name = name;
          bounds = Array.copy bounds;
          buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.0;
        })
    (function M_histogram h -> Some h | _ -> None)

let rec atomic_add_float a v =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. v)) then atomic_add_float a v

let observe ?(n = 1) h v =
  if n > 0 then begin
    let nb = Array.length h.bounds in
    let rec bucket k = if k >= nb || v <= h.bounds.(k) then k else bucket (k + 1) in
    ignore (Atomic.fetch_and_add h.buckets.(bucket 0) n);
    ignore (Atomic.fetch_and_add h.h_count n);
    atomic_add_float h.h_sum (float_of_int n *. v)
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      buckets : int array;
      count : int;
      sum : float;
    }

type snapshot = (string * value) list

(* Read one histogram consistently: the bucket array, count and sum are
   separate atomics, so a concurrent [observe] can land between reads.
   Re-read the count after the pass and retry while it moved; after
   [max_tries] accept the last pass (the residual inconsistency is then
   bounded by the updates of one in-flight [observe], i.e. one bucket
   increment vs count/sum — never a torn value). *)
let read_histogram h =
  let max_tries = 8 in
  let rec go tries =
    let before = Atomic.get h.h_count in
    let buckets = Array.map Atomic.get h.buckets in
    let sum = Atomic.get h.h_sum in
    let after = Atomic.get h.h_count in
    if before = after || tries >= max_tries then
      Histogram { bounds = Array.copy h.bounds; buckets; count = after; sum }
    else go (tries + 1)
  in
  go 1

(* Two phases: collect the metric handles under the registry lock, then
   read every value in one tight allocation-light pass.  Cross-metric
   skew is bounded by the duration of that pass (microseconds — no I/O,
   no lock waits); each individual value is a single atomic read (plus
   the histogram retry above), never torn. *)
let snapshot () =
  Mutex.lock registry_lock;
  let handles = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_lock;
  let handles =
    List.sort (fun (a, _) (b, _) -> String.compare a b) handles
  in
  List.map
    (fun (name, m) ->
      let v =
        match m with
        | M_counter c -> Counter (Atomic.get c.c)
        | M_gauge g -> Gauge (Atomic.get g.g)
        | M_histogram h -> read_histogram h
      in
      (name, v))
    handles

let find snapshot name = List.assoc_opt name snapshot

(* %.17g round-trips floats; %g keeps integers readable. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The bare {...} metrics object, for embedding (JSONL snapshot lines,
   health payloads). *)
let json_object snapshot =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun k (name, v) ->
      if k > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\"%s\":" (Json.escape name));
      match v with
      | Counter n ->
          Buffer.add_string buf
            (Printf.sprintf "{\"type\":\"counter\",\"value\":%d}" n)
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "{\"type\":\"gauge\",\"value\":%s}" (json_float g))
      | Histogram { bounds; buckets; count; sum } ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"bounds\":[%s],\"buckets\":[%s]}"
               count (json_float sum)
               (String.concat ","
                  (List.map json_float (Array.to_list bounds)))
               (String.concat ","
                  (List.map string_of_int (Array.to_list buckets)))))
    snapshot;
  Buffer.add_string buf "}";
  Buffer.contents buf

let to_json snapshot =
  Printf.sprintf "{\"metrics\":%s}\n" (json_object snapshot)

let hist_cell bounds buckets count sum =
  let mean = if count = 0 then 0.0 else sum /. float_of_int count in
  let cells = ref [] in
  Array.iteri
    (fun k n ->
      if n > 0 then
        let label =
          if k < Array.length bounds then
            Printf.sprintf "<=%g" bounds.(k)
          else Printf.sprintf ">%g" bounds.(Array.length bounds - 1)
        in
        cells := Printf.sprintf "%s:%d" label n :: !cells)
    buckets;
  Printf.sprintf "n=%d mean=%.2f  %s" count mean
    (String.concat " " (List.rev !cells))

let pp_table ppf snapshot =
  let rows =
    List.map
      (fun (name, v) ->
        let cell =
          match v with
          | Counter n -> string_of_int n
          | Gauge g -> Printf.sprintf "%.4f" g
          | Histogram { bounds; buckets; count; sum } ->
              hist_cell bounds buckets count sum
        in
        (name, cell))
      snapshot
  in
  let name_w =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 6 rows
  in
  Format.fprintf ppf "%-*s  %s@." name_w "metric" "value";
  Format.fprintf ppf "%s  %s@." (String.make name_w '-') (String.make 12 '-');
  List.iter
    (fun (name, cell) -> Format.fprintf ppf "%-*s  %s@." name_w name cell)
    rows
