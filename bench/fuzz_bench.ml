(* BENCH_fuzz: the dialect-matrix fuzzer as an experiment.

   Two tables in one artifact:

   - fuzz throughput: for every C-compiling dialect, generate a fixed
     corpus with Fuzzgen and push it through the whole differential
     stack (reference interpreter + every backend + the concurrency
     checker).  The JSON rows carry corpus size, backend compile
     attempts per second, and the divergence count — which must be
     zero, or the bench fails loudly with the shrunk reproducer.

   - oracle-agreement matrix: every built-in workload kernel against
     every backend.  Each cell is "agree" (compiled, ran, matched the
     reference on every argument vector), "reject" (typed dialect
     rejection), "skip" (no C frontend), or "DIVERGE".  Any DIVERGE
     cell fails the bench.

   Results go to BENCH_fuzz.json (schema chls.bench-fuzz/1). *)

let seed = 1

(* --- fuzz throughput ------------------------------------------------- *)

type fuzz_row = {
  dialect : string;
  programs : int;
  attempts : int; (* backend compile+run attempts, rejections included *)
  agreed : int;
  rejected : int;
  divergences : int;
  wall_ms : float;
}

let fuzz_row n (d : Dialect.t) =
  let r = Fuzz.run_dialect d ~seed ~n in
  { dialect = r.Fuzz.rep_dialect;
    programs = r.Fuzz.rep_generated;
    attempts =
      r.Fuzz.rep_agreed + r.Fuzz.rep_rejected
      + List.length r.Fuzz.rep_divergences;
    agreed = r.Fuzz.rep_agreed;
    rejected = r.Fuzz.rep_rejected;
    divergences = List.length r.Fuzz.rep_divergences;
    wall_ms = r.Fuzz.rep_wall_ms }

let attempts_per_sec r =
  float_of_int r.attempts /. Float.max 1e-9 (r.wall_ms /. 1000.)

let json_of_fuzz_row r =
  Metrics.Obj
    [ ("dialect", Metrics.String r.dialect);
      ("programs", Metrics.Int r.programs);
      ("compile_attempts", Metrics.Int r.attempts);
      ("agreed", Metrics.Int r.agreed);
      ("rejected", Metrics.Int r.rejected);
      ("divergences", Metrics.Int r.divergences);
      ("wall_ms", Metrics.Fixed (1, r.wall_ms));
      ("attempts_per_sec", Metrics.Fixed (0, attempts_per_sec r)) ]

(* --- oracle-agreement matrix ----------------------------------------- *)

type cell = Agree | Reject | Skip | Diverge of string

let cell_string = function
  | Agree -> "agree"
  | Reject -> "reject"
  | Skip -> "skip"
  | Diverge d -> "DIVERGE: " ^ d

type matrix_row = { workload : string; cells : (string * cell) list }

(* One Driver.compare per workload: the oracle runs once per vector and
   every backend is judged against it. *)
let matrix_row backends (w : Workloads.t) =
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  let cell = function
    | Error (Driver.Dialect_reject _) -> Reject
    | Error (Driver.No_c_frontend _) -> Skip
    | Error e -> Diverge (Driver.render_error e)
    | Ok (_, verdicts) -> (
      match List.find_opt (fun v -> not v.Driver.agrees) verdicts with
      | None -> Agree
      | Some v ->
        (* the first vector the backend got wrong, as the daemon would
           answer it *)
        Diverge
          (Printf.sprintf "args %s: %s"
             (String.concat "," (List.map string_of_int v.Driver.vector))
             (Metrics.render_compact (Metrics.Obj (Driver.run_members v)))))
  in
  { workload = w.Workloads.name;
    cells =
      (match
         Driver.compare ~backends session ~vectors:w.Workloads.arg_sets
       with
      | Ok table -> List.map (fun (b, r) -> (Registry.name b, cell r)) table
      | Error e ->
        List.map (fun b -> (Registry.name b, cell (Error e))) backends) }

let json_of_matrix_row r =
  Metrics.Obj
    [ ("workload", Metrics.String r.workload);
      ( "backends",
        Metrics.Obj
          (List.map (fun (b, c) -> (b, Metrics.String (cell_string c)))
             r.cells) ) ]

(* --- the bench ------------------------------------------------------- *)

let emit_json path fuzz_rows matrix_rows =
  let m = Metrics.create () in
  Metrics.set_string m "schema" "chls.bench-fuzz/1";
  Metrics.set_string m "experiment"
    "dialect-matrix fuzzing throughput and workload oracle-agreement \
     matrix";
  Metrics.set_int m "fuzz_seed" seed;
  Metrics.set m "fuzz" (Metrics.List (List.map json_of_fuzz_row fuzz_rows));
  Metrics.set m "agreement"
    (Metrics.List (List.map json_of_matrix_row matrix_rows));
  Metrics.set_int m "workloads" (List.length matrix_rows);
  Metrics.set_int m "diverging"
    (List.length
       (List.filter
          (fun r ->
            List.exists
              (fun (_, c) -> match c with Diverge _ -> true | _ -> false)
              r.cells)
          matrix_rows));
  Metrics.write_file m path

let run_with ~n () =
  Tables.section "BENCH"
    "Dialect-matrix fuzzing and the oracle-agreement matrix"
    "dialect-gated random programs through every backend against the \
     reference interpreter, then every workload kernel against every \
     backend; a divergence anywhere fails the bench";
  let dialects = Fuzz.default_dialects () in
  let fuzz_rows = List.map (fuzz_row n) dialects in
  Printf.printf "\nfuzz throughput (%d programs per dialect, seed %d):\n" n
    seed;
  Tables.table
    [ 18; 9; 9; 8; 9; 11; 9 ]
    [ "dialect"; "programs"; "attempts"; "agreed"; "rejected";
      "divergences"; "att/sec" ]
    (List.map
       (fun r ->
         [ r.dialect; Tables.i r.programs; Tables.i r.attempts;
           Tables.i r.agreed; Tables.i r.rejected; Tables.i r.divergences;
           Printf.sprintf "%.0f" (attempts_per_sec r) ])
       fuzz_rows);
  List.iter
    (fun r ->
      if r.divergences > 0 then
        failwith
          (Printf.sprintf
             "fuzz bench: %d divergence(s) under %s — run `chlsc fuzz \
              --seed %d -n %d --dialects %s --out-dir fuzz-repro` for the \
              shrunk reproducers"
             r.divergences r.dialect seed n r.dialect))
    fuzz_rows;
  let backends = Registry.all () in
  let matrix_rows = List.map (matrix_row backends) Workloads.all in
  Printf.printf "\noracle-agreement matrix (%d workloads x %d backends):\n"
    (List.length matrix_rows) (List.length backends);
  Tables.table
    (16 :: List.map (fun _ -> 7) backends)
    ("workload" :: List.map Registry.name backends)
    (List.map
       (fun r ->
         r.workload
         :: List.map
              (fun (_, c) ->
                match c with
                | Agree -> "agree"
                | Reject -> "-"
                | Skip -> "skip"
                | Diverge _ -> "DIVERGE")
              r.cells)
       matrix_rows);
  let diverging =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (b, c) ->
            match c with
            | Diverge d -> Some (Printf.sprintf "%s/%s: %s" r.workload b d)
            | _ -> None)
          r.cells)
      matrix_rows
  in
  if diverging <> [] then
    failwith
      ("fuzz bench: oracle-agreement matrix has diverging cells:\n  "
      ^ String.concat "\n  " diverging);
  emit_json "BENCH_fuzz.json" fuzz_rows matrix_rows;
  Printf.printf
    "\nAll cells agree or reject by dialect rule; wrote BENCH_fuzz.json\n"

let run_all () = run_with ~n:50 ()

(* CI smoke: a smaller corpus, same artifact, same hard failure on any
   divergence *)
let run_smoke () = run_with ~n:10 ()
