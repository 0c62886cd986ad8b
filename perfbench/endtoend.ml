(* The end-to-end run: fresh [chlsc serve] daemons with one worker
   domain, each driven by one client connection in a closed loop with
   [window] requests in flight.  Everything here is measured on the daemon
   as shipped, with its request spans on.

   A workload's measured phase takes one of two shapes:

   - one daemon, set up once, sent traffic for [seconds] after a short
     unmeasured lead-in; throughput is the median rate over short windows;
   - epochs ([Traffic.epoch]): a fresh daemon per epoch, each answering a
     fixed number of requests from its empty state, until [seconds] have
     passed; throughput is the median epoch rate.  Every epoch does the
     same amount of the same kind of work, so a long run neither drifts
     with nor grows the daemon's memory. *)

let window = 4
let setup_reps = 9
let rate_window = 0.5

type result = {
  attempted : int;
  failed : int;
  reasons : string list;  (** the first few failure reasons *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  fingerprint : Traffic.fingerprint;
  lines : string list;  (** human-readable detail *)
}

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile of an ascending array *)
let percentile a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The tail percentile as the median over consecutive chunks of
   [tail_chunk] latencies (in send order), each chunk leaving ten samples
   beyond its p99: one stalled stretch of the machine moves one chunk,
   not the run's tail.  Fewer samples than a chunk: the pooled value. *)
let tail_chunk = 1000

let chunked_percentile latencies q =
  let n = Array.length latencies in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  if n < 2 * tail_chunk then percentile (sorted latencies) q
  else
    median
      (List.init (n / tail_chunk) (fun c ->
           percentile (sorted (Array.sub latencies (c * tail_chunk) tail_chunk)) q))

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let check (t : tally) (reqs : Traffic.request array) index response =
  t.attempted <- t.attempted + 1;
  match Traffic.check reqs.(index).Traffic.expect response with
  | Ok () -> ()
  | Error why ->
    t.failed <- t.failed + 1;
    if List.length t.reasons < 5 then
      t.reasons <-
        Printf.sprintf "%s: %s" reqs.(index).Traffic.key why :: t.reasons

let answer_all d (t : tally) reqs =
  Daemon.drive d ~traffic:reqs ~window
    ~next:(fun seq -> if seq < Array.length reqs then Some seq else None)
    ~deadline:infinity
    ~on_sample:(fun (s : Daemon.sample) ->
      check t reqs s.index (Daemon.parse s.frame))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let json_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Traffic.field k)) (Some j) path

(* what one daemon did while it was measured *)
type stint = {
  samples : Daemon.sample list;  (** in arrival order *)
  cpu_ms : float;  (** daemon CPU over the measured span *)
  completed : int;  (** responses inside that span *)
  rss_mb : float;
  domains : int;
}

let run ~exe ~dir ~(wl : Traffic.workload) ~seconds =
  let socket = Filename.concat dir "d.sock" in
  let t = { attempted = 0; failed = 0; reasons = [] } in
  let stores = ref 0 in
  let store () =
    match wl.Traffic.store with
    | `None -> None
    | `Fresh ->
      incr stores;
      Some (Filename.concat dir (Printf.sprintf "store-%d" !stores))
    | `Prewritten -> Some (Filename.concat dir "store")
  in
  (* warm-repeat: a store that an earlier daemon process wrote *)
  if wl.Traffic.store = `Prewritten then begin
    let d = Daemon.start ~exe ~socket ?cache_dir:(store ()) () in
    answer_all d t (Array.map (Traffic.expect_tier "miss") wl.Traffic.setup);
    Daemon.stop d
  end;
  let setup_times = ref [] in
  (* spawn to ready: answering a stats round trip and the set-up requests *)
  let set_up () =
    let t0 = Daemon.now () in
    let d = Daemon.start ~exe ~socket ?cache_dir:(store ()) () in
    ignore (Daemon.stats d);
    answer_all d t wl.Traffic.setup;
    setup_times := (Daemon.now () -. t0) :: !setup_times;
    d
  in
  let traffic = wl.Traffic.traffic in
  let n = Array.length traffic in
  let secs = float_of_int seconds in
  (* drive [d] on traffic positions [first, first + count) until [deadline],
     measuring from the first response received at or after [from] *)
  let stint d ~first ~count ~from ~deadline =
    let next seq =
      if seq >= count then None
      else if wl.Traffic.cycle || wl.Traffic.epoch <> None then
        Some ((first + seq) mod n)
      else if first + seq < n then Some (first + seq)
      else None
    in
    let samples = ref [] and cpu0 = ref None in
    Daemon.drive d ~traffic ~window ~next ~deadline ~on_sample:(fun s ->
        let s = { s with Daemon.seq = first + s.Daemon.seq } in
        samples := s :: !samples;
        if !cpu0 = None && s.Daemon.received >= from then
          cpu0 := Some (s.Daemon.received, Daemon.cpu_ms d.Daemon.pid));
    let cpu1 = Daemon.cpu_ms d.Daemon.pid in
    let rss_mb = Daemon.peak_rss_mb d.Daemon.pid in
    let domains =
      match json_path [ "serve"; "pool"; "domains" ] (Daemon.stats d) with
      | Some (Metrics.Int k) -> k
      | _ -> -1
    in
    Daemon.stop d;
    let samples = List.rev !samples in
    let cpu_ms, completed =
      match !cpu0 with
      | Some (at, c0) ->
        ( cpu1 -. c0,
          List.length
            (List.filter (fun s -> s.Daemon.received > at) samples) )
      | None -> (0., 0)
    in
    { samples; cpu_ms; completed; rss_mb; domains }
  in
  let t_start = Daemon.now () in
  let stints, rates, latency_from, shape =
    match wl.Traffic.epoch with
    | None ->
      for _ = 2 to setup_reps do
        Daemon.stop (set_up ())
      done;
      let d = set_up () in
      let t_start = Daemon.now () in
      let t_measure = t_start +. Float.max 0.5 (0.1 *. secs) in
      let deadline = t_measure +. secs in
      let s = stint d ~first:0 ~count:max_int ~from:t_measure ~deadline in
      (* the median rate over short windows the sender kept busy, so a
         stall of the machine costs one window, not the run *)
      let exhausted =
        (not wl.Traffic.cycle) && List.length s.samples >= n
      in
      let busy_until =
        if exhausted then
          List.fold_left (fun m x -> Float.max m x.Daemon.sent) t_measure s.samples
        else deadline
      in
      let windows =
        List.init (int_of_float (secs /. rate_window)) (fun w ->
            let lo = t_measure +. (float_of_int w *. rate_window) in
            (lo, lo +. rate_window))
        |> List.filter (fun (_, hi) -> hi <= busy_until +. 1e-9)
      in
      let rates =
        List.map
          (fun (lo, hi) ->
            float_of_int
              (List.length
                 (List.filter
                    (fun x -> x.Daemon.received >= lo && x.Daemon.received < hi)
                    s.samples))
            /. rate_window)
          windows
      in
      ( [ s ], rates, t_measure,
        Printf.sprintf "one daemon, %.1f s lead-in, %d rate windows of %.1f s%s"
          (t_measure -. t_start) (List.length rates) rate_window
          (if exhausted then "; the traffic ran out before the deadline" else "") )
    | Some size ->
      let deadline = t_start +. secs in
      let rec epochs k acc =
        if Daemon.now () < deadline || k < 2 then begin
          let d = set_up () in
          let s = stint d ~first:(k * size) ~count:size ~from:0. ~deadline:infinity in
          epochs (k + 1) (s :: acc)
        end
        else List.rev acc
      in
      let stints = epochs 0 [] in
      for _ = List.length stints + 1 to setup_reps do
        Daemon.stop (set_up ())
      done;
      let rate s =
        let first = List.fold_left (fun m x -> Float.min m x.Daemon.sent) infinity s.samples
        and last = List.fold_left (fun m x -> Float.max m x.Daemon.received) 0. s.samples in
        float_of_int (List.length s.samples) /. (last -. first)
      in
      ( stints, List.map rate stints, 0.,
        Printf.sprintf "%d epochs of %d requests, a fresh daemon each"
          (List.length stints) size )
  in
  rm_rf dir;
  let samples = List.concat_map (fun s -> s.samples) stints in
  let responses = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let r = Daemon.parse s.Daemon.frame in
      Hashtbl.replace responses s.Daemon.seq r;
      check t traffic s.Daemon.index r)
    samples;
  let in_send_order =
    List.filter_map
      (fun s ->
        if s.Daemon.sent >= latency_from then
          Some ((s.Daemon.received -. s.Daemon.sent) *. 1000.)
        else None)
      (List.sort (fun a b -> compare a.Daemon.sent b.Daemon.sent) samples)
    |> Array.of_list
  in
  let latencies = Array.copy in_send_order in
  Array.sort compare latencies;
  let cpu_per_req =
    List.fold_left (fun a s -> a +. s.cpu_ms) 0. stints
    /. float_of_int (max 1 (List.fold_left (fun a s -> a + s.completed) 0 stints))
  in
  (* the fingerprint stretch, and for cycling traffic every full cycle *)
  let stretch lo len =
    let part =
      List.filter (fun s -> s.Daemon.seq >= lo && s.Daemon.seq < lo + len) samples
      |> List.sort (fun a b -> compare a.Daemon.seq b.Daemon.seq)
    in
    if List.length part < len then None
    else
      Some
        (Traffic.observe traffic
           (List.map (fun s -> s.Daemon.index) part)
           (List.map (fun s -> Hashtbl.find responses s.Daemon.seq) part))
  in
  let len = wl.Traffic.fingerprint_len in
  let fingerprint =
    match stretch 0 len with
    | Some fp -> fp
    | None -> failwith "the run ended before the fingerprint stretch completed"
  in
  let cycles_checked = ref 0 in
  if wl.Traffic.cycle then begin
    let c = ref 1 in
    while
      match stretch (!c * len) len with
      | Some fp ->
        incr cycles_checked;
        if fp <> fingerprint then begin
          t.failed <- t.failed + 1;
          t.reasons <-
            Printf.sprintf "traffic cycle %d's fingerprint differs from the first" !c
            :: t.reasons
        end;
        true
      | None -> false
    do
      incr c
    done
  end;
  let domains = List.fold_left (fun _ s -> s.domains) (-1) stints in
  { attempted = t.attempted;
    failed = t.failed;
    reasons = List.rev t.reasons;
    metrics =
      [ ("throughput_rps", median rates, "1/s");
        ("latency_p50_ms", percentile latencies 0.50, "ms");
        ("cpu_ms_per_req", cpu_per_req, "ms");
        ("setup_s", median !setup_times, "s");
        ("peak_rss_mb", median (List.map (fun s -> s.rss_mb) stints), "MB") ];
    fingerprint;
    lines =
      [ Printf.sprintf "daemon: domains=%d window=%d set-ups=%d" domains window
          (List.length !setup_times);
        Printf.sprintf "measured: %s; %d latency samples" shape
          (Array.length latencies);
        (* printed, not in the result object: the tail moved 0.2-0.4
           between runs on a shared 2-core VM, and fail_ratio is 0 on every
           correct run (attempted/failed carry it) *)
        Printf.sprintf "latency_p99_ms %.4f (median p99 of %d-sample chunks)"
          (chunked_percentile in_send_order 0.99) tail_chunk;
        Printf.sprintf "fail_ratio %.6f (%d of %d)"
          (float_of_int t.failed /. float_of_int (max 1 t.attempted))
          t.failed t.attempted;
        Printf.sprintf "rates (1/s): %s"
          (String.concat " " (List.map (Printf.sprintf "%.0f") rates));
        Printf.sprintf "setup_s per set-up: %s"
          (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setup_times));
        Printf.sprintf "full traffic cycles fingerprinted after the first: %d"
          !cycles_checked ] }
