(* BENCH_driver: the parse-once compile driver vs per-backend re-parse.

   The paper's comparisons push one C program through many surveyed
   compilers, which used to cost one full frontend run per backend.  This
   experiment sweeps the sequential workload suite across every
   registered C-compiling backend three ways:

     baseline    a fresh session per (workload, backend) pair — the
                 frontend runs W*B times
     parse-once  one session per workload, [Driver.compile_all] — the
                 frontend runs W times, B-1 frontend cache hits each
     warm-cache  the same sessions again — every design is a content-hash
                 cache hit, no backend work at all

   The cache counters are deterministic (asserted below); only the wall
   times vary machine to machine.  Results print as a table and land in
   BENCH_driver.json so the perf trajectory is tracked across PRs. *)

let workloads = Workloads.sequential

let backends () = Registry.compiling ()

let sum_counter sessions key =
  List.fold_left
    (fun acc s ->
      match Metrics.find (Driver.metrics s) key with
      | Some (Metrics.Int n) -> acc + n
      | _ -> acc)
    0 sessions

type phase = {
  label : string;
  wall_ms : float;
  compiled : int;  (* (workload, backend) pairs that produced a design *)
  frontend_runs : int;
  cache_hits : int;
  cache_misses : int;
}

let phase_of label ~wall_ms ~compiled sessions =
  { label;
    wall_ms;
    compiled;
    frontend_runs = sum_counter sessions "driver.cache.frontend_misses";
    cache_hits = sum_counter sessions "driver.cache.hits";
    cache_misses = sum_counter sessions "driver.cache.misses" }

(* Best-of-repeats: the counters are identical across repetitions, only
   the wall time varies. *)
let timed_phase ~repeats f =
  let best = ref None in
  for _ = 1 to repeats do
    let t0 = Sys.time () in
    let p = f () in
    let wall = (Sys.time () -. t0) *. 1000. in
    match !best with
    | Some prev when prev.wall_ms <= wall -> ()
    | _ -> best := Some { p with wall_ms = wall }
  done;
  Option.get !best

let count_ok results =
  List.length
    (List.filter (fun (_, r) -> Result.is_ok r) results)

let baseline () =
  Driver.clear_cache ();
  let compiled = ref 0 and sessions = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun b ->
          let s =
            Driver.create ~entry:w.Workloads.entry w.Workloads.source
          in
          sessions := s :: !sessions;
          match Driver.compile s b with
          | Ok _ -> incr compiled
          | Error _ -> ())
        (backends ()))
    workloads;
  phase_of "per-backend re-parse" ~wall_ms:0. ~compiled:!compiled !sessions

let parse_once () =
  Driver.clear_cache ();
  let sessions =
    List.map
      (fun (w : Workloads.t) ->
        Driver.create ~entry:w.Workloads.entry w.Workloads.source)
      workloads
  in
  let compiled =
    List.fold_left
      (fun acc s ->
        acc + count_ok (Driver.compile_all ~backends:(backends ()) s))
      0 sessions
  in
  (phase_of "parse-once driver" ~wall_ms:0. ~compiled sessions, sessions)

let warm sessions =
  let compiled =
    List.fold_left
      (fun acc s ->
        acc + count_ok (Driver.compile_all ~backends:(backends ()) s))
      0 sessions
  in
  (* the sessions' counters accumulate across phases; report the deltas
     by construction: every lookup in this phase is a hit *)
  compiled

let json_of_phase p =
  Metrics.Obj
    [ ("wall_ms", Metrics.Fixed (3, p.wall_ms));
      ("compiled", Metrics.Int p.compiled);
      ("frontend_runs", Metrics.Int p.frontend_runs);
      ("cache_hits", Metrics.Int p.cache_hits);
      ("cache_misses", Metrics.Int p.cache_misses) ]

let run_all () =
  Tables.section "BENCH"
    "Compile driver: parse-once + content-hashed cache vs re-parse"
    "the survey's tables compare many compilers on one program; the \
     driver amortizes the shared frontend and memoizes designs by \
     content hash";
  let n_backends = List.length (backends ()) in
  let n_workloads = List.length workloads in
  let base = timed_phase ~repeats:3 baseline in
  let once = timed_phase ~repeats:3 (fun () -> fst (parse_once ())) in
  (* the warm phase needs live sessions: run parse-once one more time and
     sweep again on its sessions *)
  let cold, sessions = parse_once () in
  let t0 = Sys.time () in
  let warm_compiled = warm sessions in
  let warm_ms = (Sys.time () -. t0) *. 1000. in
  let warm_hits = sum_counter sessions "driver.cache.hits" - cold.cache_hits in
  let warm_phase =
    { label = "warm cache (again)";
      wall_ms = warm_ms;
      compiled = warm_compiled;
      frontend_runs = 0;
      cache_hits = warm_hits;
      cache_misses =
        sum_counter sessions "driver.cache.misses" - cold.cache_misses }
  in
  (* deterministic invariants: frontend work is once per source in the
     driver sweep (B-1 frontend hits per workload), W*B in the baseline;
     the warm sweep misses nothing *)
  assert (base.frontend_runs = n_workloads * n_backends);
  assert (once.frontend_runs = n_workloads);
  assert (once.cache_hits >= n_workloads * (n_backends - 1));
  assert (warm_phase.cache_misses = 0);
  assert (base.compiled = once.compiled && once.compiled = warm_compiled);
  let widths = [ 22; 10; 9; 14; 12; 12 ] in
  Tables.table widths
    [ "sweep"; "wall ms"; "designs"; "frontend runs"; "cache hits";
      "cache misses" ]
    (List.map
       (fun p ->
         [ p.label; Printf.sprintf "%.3f" p.wall_ms; Tables.i p.compiled;
           Tables.i p.frontend_runs; Tables.i p.cache_hits;
           Tables.i p.cache_misses ])
       [ base; once; warm_phase ]);
  let m = Metrics.create () in
  Metrics.set_string m "experiment"
    "compile driver: parse-once + content-hashed design cache vs \
     per-backend re-parse";
  Metrics.set_int m "workloads" n_workloads;
  Metrics.set_int m "backends" n_backends;
  Metrics.set m "baseline" (json_of_phase base);
  Metrics.set m "parse_once" (json_of_phase once);
  Metrics.set m "warm_cache" (json_of_phase warm_phase);
  Metrics.set_fixed m "frontend_amortization" ~decimals:2
    (float_of_int base.frontend_runs /. float_of_int (max 1 once.frontend_runs));
  Metrics.set_fixed m "speedup_parse_once" ~decimals:2
    (base.wall_ms /. Float.max 0.001 once.wall_ms);
  Metrics.set_fixed m "speedup_warm" ~decimals:2
    (base.wall_ms /. Float.max 0.001 warm_phase.wall_ms);
  Metrics.write_file m "BENCH_driver.json";
  Printf.printf
    "\nFrontend runs: %d -> %d (once per source); warm sweep misses \
     nothing; wrote BENCH_driver.json\n"
    base.frontend_runs once.frontend_runs
