(* BENCH_serve: the synthesis service under load.

   Two questions the cache-as-a-subsystem refactor has to answer with
   numbers rather than unit tests:

     persistence  does a compiled design survive a process restart?  A
                  forked child cold-compiles the sequential workload
                  suite into a fresh on-disk store and exits; the parent
                  (a genuinely different process image by then) opens the
                  same directory and sweeps again, counting disk-store
                  revivals instead of recompiles.
     throughput   what does the Domain pool buy?  The same sweep is
                  pushed through [Serve.Pool] as wire-shaped [compile]
                  requests — cold, warm (front-cache), and persistent
                  (disk-store) — at 1 domain and at the machine's
                  recommended domain count, reading compiles/sec and the
                  p50/p99 latency histograms the daemon itself serves
                  from its [stats] op.

   Every pooled compile carries an argument vector, so the serve handler
   checks each design against the interpreter oracle
   ([matches_reference]); a sweep only counts as passed when every
   response verifies.  The cache-provenance counts per sweep are
   deterministic and asserted (cold: all miss; warm: all front;
   persistent: all store).  Wall times vary machine to machine; on a
   single-core container the 1->N scaling ratio is meaningless, so it is
   recorded but only asserted >1 when the machine actually has cores to
   scale onto ([scaling_limited_by_cores] flags the degenerate case).

   Ordering constraint: the fork-based persistence phase MUST run before
   any pool is created — [Unix.fork] is unavailable once a Domain has
   been spawned. *)

let workloads = Workloads.sequential
let backends () = Registry.compiling ()

(* one wire-shaped compile request per (workload, compiling backend),
   each with the workload's first argument vector so the serve handler
   runs the design and checks it against the interpreter oracle *)
let requests () =
  List.concat_map
    (fun (w : Workloads.t) ->
      List.map
        (fun b ->
          Serve.Compile
            { id =
                Metrics.String
                  (w.Workloads.name ^ "/" ^ Registry.name b);
              source = w.Workloads.source;
              entry = w.Workloads.entry;
              backend = Registry.name b;
              args = Some (List.hd w.Workloads.arg_sets);
              config = None })
        (backends ()))
    workloads

(* --- phase 1: restart survival, two real processes over one store --- *)

type persistence = {
  child_ms : float;  (* cold-populate process, fork to exit *)
  revive_ms : float;  (* parent's sweep over the child's store *)
  designs : int;
  store_hits : int;
  entries : int;
  bytes : int;
  verified : int;
}

let sweep_driver () =
  let sessions =
    List.map
      (fun (w : Workloads.t) ->
        Driver.create ~entry:w.Workloads.entry w.Workloads.source)
      workloads
  in
  let results =
    List.concat_map
      (fun s -> Driver.compile_all ~backends:(backends ()) s)
      sessions
  in
  (sessions, List.filter_map (fun (_, r) -> Result.to_option r) results)

let sum_counter sessions key =
  List.fold_left
    (fun acc s ->
      match Metrics.find (Driver.metrics s) key with
      | Some (Metrics.Int n) -> acc + n
      | _ -> acc)
    0 sessions

let persistence_phase dir =
  (* fork duplicates the stdio buffers: flush so the child cannot replay
     half-written bench output on exit *)
  flush stdout;
  flush stderr;
  let t0 = Unix.gettimeofday () in
  (match Unix.fork () with
  | 0 ->
    (* the child: a separate process cold-compiling into the store *)
    let code =
      match Driver.attach_disk_cache ~dir () with
      | Error _ -> 1
      | Ok _ ->
        Driver.clear_cache ();
        let _, designs = sweep_driver () in
        if designs <> [] then 0 else 1
    in
    (* _exit: skip at_exit, or the inherited buffers would double-print *)
    Unix._exit code
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "serve bench: store-populating child process failed"));
  let child_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* the parent: a different live process opening the same directory *)
  (match Driver.attach_disk_cache ~dir () with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  Driver.clear_cache ();
  let t1 = Unix.gettimeofday () in
  let sessions, designs = sweep_driver () in
  let revive_ms = (Unix.gettimeofday () -. t1) *. 1000. in
  let store_hits = sum_counter sessions "driver.cache.design_store_hits" in
  (* the restart-survival claim itself: nothing recompiled, every design
     revived from the store the other process wrote *)
  assert (store_hits = List.length designs);
  assert (sum_counter sessions "driver.cache.design_misses" = 0);
  (* spot-check the revived artifacts against the interpreter oracle *)
  let verified =
    List.fold_left2
      (fun acc (s : Driver.session) (w : Workloads.t) ->
        match Driver.compile s (Registry.get "bachc") with
        | Error _ -> acc
        | Ok d -> (
          let args = List.hd w.Workloads.arg_sets in
          match (Design.run_int d args, Driver.reference s ~args) with
          | Some got, Ok want when got = want -> acc + 1
          | _ -> acc))
      0 sessions workloads
  in
  assert (verified = List.length workloads);
  let entries, bytes =
    match Driver.cache_store () with
    | Some store ->
      let c = Cache.store_counters store in
      (c.Cache.entries, c.Cache.bytes)
    | None -> (0, 0)
  in
  { child_ms; revive_ms; designs = List.length designs; store_hits;
    entries; bytes; verified }

(* --- phase 2: the Domain pool, 1 vs N domains --- *)

type sweep = {
  label : string;
  domains : int;
  wall_ms : float;
  responses : int;
  verified : int;  (* accepted, run, and equal to the oracle *)
  rejected : int;  (* typed dialect/frontend rejections (cones on loops) *)
  miss : int;
  front : int;
  store : int;
  p50_ms : float;
  p99_ms : float;
}

let pool_sweep ~label ~domains () =
  let pool = Serve.Pool.create ~domains () in
  let lock = Mutex.create () in
  let acc = ref [] in
  let reqs = requests () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun r ->
      Serve.Pool.submit pool r ~respond:(fun resp ->
          Mutex.lock lock;
          acc := resp :: !acc;
          Mutex.unlock lock))
    reqs;
  Serve.Pool.drain pool;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let p50, p99 =
    match Metrics.histogram (Serve.Pool.metrics pool) "serve.latency.compile_ms"
    with
    | Some h ->
      (Metrics.Histogram.percentile h 50., Metrics.Histogram.percentile h 99.)
    | None -> (0., 0.)
  in
  Serve.Pool.shutdown pool;
  let responses = !acc in
  let count f = List.length (List.filter f responses) in
  let cached kind r =
    Metrics.member "cached" r = Some (Metrics.String kind)
  in
  let verified =
    count (fun r ->
        Metrics.member "ok" r = Some (Metrics.Bool true)
        && Metrics.member "status" r = Some (Metrics.String "ok")
        && Metrics.member "matches_reference" r = Some (Metrics.Bool true))
  in
  (* some pairs are meant to bounce: cones dialect-rejects unbounded
     loops.  Those must come back as typed errors, nothing else. *)
  let rejected =
    count (fun r ->
        Metrics.member "ok" r = Some (Metrics.Bool false)
        &&
        match Metrics.member "error" r with
        | Some e ->
          Metrics.member "kind" e = Some (Metrics.String "dialect-reject")
        | None -> false)
  in
  let s =
    { label; domains; wall_ms;
      responses = List.length responses;
      verified; rejected;
      miss = count (cached "miss");
      front = count (cached "front");
      store = count (cached "store");
      p50_ms = p50; p99_ms = p99 }
  in
  (* every request answered; every accepted design oracle-checked, every
     refusal a typed dialect rejection — no third outcome *)
  assert (s.responses = List.length reqs);
  assert (s.verified + s.rejected = s.responses);
  s

(* --- phase 3: what does tracing cost on the warm path? ---

   The serve handler over the warm (front-cache) request list, spans on
   vs [Span.set_enabled false].  Measured through [Pool.handle] — the
   exact surface the span machinery instruments — rather than through
   submit/drain: on a single-core container the queue's domain wakeups
   cost tens of microseconds of scheduler noise per request, which
   swamps the microseconds the spans themselves take.  Each measurement
   is best-of-5 over three passes of the whole list, so one GC or
   scheduler hiccup cannot masquerade as instrumentation cost.  The
   warm cache is deliberate: with compiles memoized, per-request span
   bookkeeping is at its largest relative to the work left (simulate +
   oracle, plus the flight-recorder dump on every typed rejection). *)

let span_overhead () =
  let pool = Serve.Pool.create ~domains:1 () in
  let sessions = Some (Hashtbl.create 8) in
  let reqs = requests () in
  let pass () =
    List.iter (fun r -> ignore (Serve.Pool.handle pool sessions r)) reqs
  in
  pass () (* warm the session table alongside the design cache *);
  let best_of_5 () =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      pass ();
      pass ();
      pass ();
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      if ms < !best then best := ms
    done;
    !best
  in
  Span.set_enabled true;
  let warm_on_ms = best_of_5 () in
  Span.set_enabled false;
  let warm_off_ms = best_of_5 () in
  Span.set_enabled true;
  Serve.Pool.shutdown pool;
  let overhead_pct =
    (warm_on_ms -. warm_off_ms) /. Float.max 1e-6 warm_off_ms *. 100.
  in
  (warm_on_ms, warm_off_ms, overhead_pct)

let compiles_per_sec s =
  float_of_int s.responses /. Float.max 1e-6 (s.wall_ms /. 1000.)

let json_of_sweep s =
  Metrics.Obj
    [ ("domains", Metrics.Int s.domains);
      ("wall_ms", Metrics.Fixed (3, s.wall_ms));
      ("compiles_per_sec", Metrics.Fixed (1, compiles_per_sec s));
      ("responses", Metrics.Int s.responses);
      ("verified", Metrics.Int s.verified);
      ("rejected", Metrics.Int s.rejected);
      ("p50_ms", Metrics.Fixed (3, s.p50_ms));
      ("p99_ms", Metrics.Fixed (3, s.p99_ms));
      ( "cached",
        Metrics.Obj
          [ ("miss", Metrics.Int s.miss);
            ("front", Metrics.Int s.front);
            ("store", Metrics.Int s.store) ] ) ]

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chlsc-serve-bench-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let run_all () =
  Tables.section "BENCH"
    "chlsc serve: Domain-pool throughput and cache persistence"
    "the daemon's compile path over the sequential workload suite: every \
     response is oracle-checked, the store written by one process is \
     read back by another";
  let cores = Domain.recommended_domain_count () in
  let n_domains = max 2 cores in
  let n_requests = List.length (requests ()) in
  let dir = fresh_dir () in
  (* fork-based phase first: Unix.fork is illegal once domains exist *)
  let persist = persistence_phase dir in
  (* detach the store and drop the front tier: the pool sweeps start cold *)
  Driver.set_cache_store None;
  Driver.clear_cache ();
  let cold_1 = pool_sweep ~label:"cold" ~domains:1 () in
  let warm_1 = pool_sweep ~label:"warm (front)" ~domains:1 () in
  (* a third process image: fresh front, the same on-disk store *)
  Driver.clear_cache ();
  (match Driver.attach_disk_cache ~dir () with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let persistent_1 = pool_sweep ~label:"persistent (store)" ~domains:1 () in
  Driver.set_cache_store None;
  Driver.clear_cache ();
  let cold_n = pool_sweep ~label:"cold" ~domains:n_domains () in
  let warm_n = pool_sweep ~label:"warm (front)" ~domains:n_domains () in
  (* the front tier is warm from the sweep above: measure tracing cost *)
  let warm_on_ms, warm_off_ms, overhead_pct = span_overhead () in
  remove_dir dir;
  (* deterministic provenance: every sweep accepts the same pairs, and
     each accepted design's cache tier is forced by the sweep's setup *)
  let accepted = cold_1.verified in
  assert (accepted > 0 && accepted = persist.designs);
  List.iter
    (fun s -> assert (s.verified = accepted))
    [ warm_1; persistent_1; cold_n; warm_n ];
  assert (cold_1.miss = accepted && cold_n.miss = accepted);
  assert (warm_1.front = accepted && warm_n.front = accepted);
  assert (persistent_1.store = accepted);
  let speedup_cold = cold_1.wall_ms /. Float.max 1e-6 cold_n.wall_ms in
  let speedup_warm = warm_1.wall_ms /. Float.max 1e-6 warm_n.wall_ms in
  let scaling_limited = cores < 2 in
  let sweeps = [ cold_1; warm_1; persistent_1; cold_n; warm_n ] in
  Tables.table
    [ 20; 8; 10; 13; 9; 9; 6; 6; 6 ]
    [ "sweep"; "domains"; "wall ms"; "compiles/sec"; "p50 ms"; "p99 ms";
      "miss"; "front"; "store" ]
    (List.map
       (fun s ->
         [ s.label; Tables.i s.domains; Printf.sprintf "%.1f" s.wall_ms;
           Printf.sprintf "%.1f" (compiles_per_sec s);
           Printf.sprintf "%.3f" s.p50_ms; Printf.sprintf "%.3f" s.p99_ms;
           Tables.i s.miss; Tables.i s.front; Tables.i s.store ])
       sweeps);
  let m = Metrics.create () in
  Metrics.set_string m "experiment"
    "chlsc serve: Domain-pool compile throughput (cold / warm / \
     persistent, 1 vs N domains) and two-process store persistence";
  Metrics.set_int m "workloads" (List.length workloads);
  Metrics.set_int m "backends" (List.length (backends ()));
  Metrics.set_int m "requests" n_requests;
  Metrics.set_int m "cores" cores;
  Metrics.set_int m "domains_n" n_domains;
  Metrics.set_bool m "scaling_limited_by_cores" scaling_limited;
  Metrics.set m "persistence"
    (Metrics.Obj
       [ ("child_cold_ms", Metrics.Fixed (3, persist.child_ms));
         ("parent_revive_ms", Metrics.Fixed (3, persist.revive_ms));
         ("designs", Metrics.Int persist.designs);
         ("store_hits", Metrics.Int persist.store_hits);
         ("store_entries", Metrics.Int persist.entries);
         ("store_bytes", Metrics.Int persist.bytes);
         ("oracle_verified_workloads", Metrics.Int persist.verified) ]);
  Metrics.set m "cold_1" (json_of_sweep cold_1);
  Metrics.set m "warm_1" (json_of_sweep warm_1);
  Metrics.set m "persistent_1" (json_of_sweep persistent_1);
  Metrics.set m "cold_n" (json_of_sweep cold_n);
  Metrics.set m "warm_n" (json_of_sweep warm_n);
  Metrics.set_fixed m "speedup_cold_1_to_n" ~decimals:2 speedup_cold;
  Metrics.set_fixed m "speedup_warm_1_to_n" ~decimals:2 speedup_warm;
  Metrics.set m "span_overhead"
    (Metrics.Obj
       [ ("warm_on_ms", Metrics.Fixed (3, warm_on_ms));
         ("warm_off_ms", Metrics.Fixed (3, warm_off_ms));
         ("overhead_pct", Metrics.Fixed (1, overhead_pct)) ]);
  Metrics.write_file m "BENCH_serve.json";
  Printf.printf
    "\nPersistence: %d designs revived from the other process's store \
     (%d store hits); pool sweeps: %d oracle checks passed, %d typed \
     dialect rejections, nothing else; span overhead on the warm path \
     %.1f%% (%.1f ms on vs %.1f ms off, best of 5); wrote \
     BENCH_serve.json%s\n"
    persist.designs persist.store_hits
    (List.fold_left (fun a s -> a + s.verified) 0 sweeps)
    (List.fold_left (fun a s -> a + s.rejected) 0 sweeps)
    overhead_pct warm_on_ms warm_off_ms
    (if scaling_limited then " (single core: scaling ratio not asserted)"
     else "");
  (* the scaling claim only means something with cores to scale onto;
     it is checked last, so a failing run still leaves its table and
     BENCH_serve.json behind *)
  if (not scaling_limited) && not (speedup_cold > 1.0) then
    failwith
      (Printf.sprintf
         "serve bench: %d domains compile no faster than 1 (nproc %d): \
          cold sweep %.1f ms at 1 domain vs %.1f ms at %d, warm sweep \
          %.1f ms vs %.1f ms"
         n_domains cores cold_1.wall_ms cold_n.wall_ms n_domains
         warm_1.wall_ms warm_n.wall_ms)

(* CI entry: the sweep is already single-pass, so the smoke run is the
   real thing — it regenerates BENCH_serve.json with the persistence and
   oracle assertions live *)
let run_smoke () = run_all ()
