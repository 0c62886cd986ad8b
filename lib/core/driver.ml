(* The parse-once compile driver.  See driver.mli. *)

type oracle_failure =
  | Timeout
  | Deadlock
  | Void_entry
  | Runtime_error of string
  | Internal_error of string * Ast.loc

type error =
  | Frontend_error of { message : string; loc : Ast.loc }
  | No_c_frontend of { backend : string }
  | Dialect_reject of { backend : string;
                        violations : Dialect.violation list }
  | Backend_error of { backend : string; message : string; loc : Ast.loc }
  | Verification_error of { backend : string; message : string }
  | Constraint_infeasible of { backend : string; message : string }
  | Arity_mismatch of { entry : string; expected : int; given : int }
  | Oracle_error of oracle_failure

type session = {
  source : string;
  entry : string;
  digest : string;
  metrics : Metrics.t;
  mutable frontend : (Ast.program, error) result option;
  (* the program as the oracle runs it, resolved on the first oracle
     miss: compiles and memo hits never need it *)
  mutable resolved : Interp.resolved option;
  (* argument vector -> the oracle's answer; the source and entry are
     the session's own *)
  oracle : (int list, (int, error) result) Hashtbl.t;
  (* dialect name -> its verdict on the program: a verdict depends only
     on (program, dialect), and the session fixes the program *)
  mutable verdicts : (string * Dialect.violation list) list;
  (* the last explicit config the session digested, and its digest *)
  mutable digested : (Config.t * string) option;
}

let create ?(entry = "main") source =
  { source; entry; digest = Digest.to_hex (Digest.string source);
    metrics = Metrics.create (); frontend = None; resolved = None;
    oracle = Hashtbl.create 8; verdicts = []; digested = None }

let entry t = t.entry
let source_digest t = t.digest
let metrics t = t.metrics

let render_loc ?file (loc : Ast.loc) =
  if loc = Ast.no_loc then Option.value file ~default:""
  else
    Printf.sprintf "%s%d:%d"
      (match file with Some f -> f ^ ":" | None -> "")
      loc.Ast.line loc.Ast.col

(* The one name of each error on every surface: serve's error kinds,
   compare's row status, fuzz's failure classes. *)
let error_kind = function
  | Frontend_error _ -> "frontend-error"
  | No_c_frontend _ -> "no-c-frontend"
  | Dialect_reject _ -> "dialect-reject"
  | Backend_error _ -> "backend-error"
  | Verification_error _ -> "verification-error"
  | Constraint_infeasible _ -> "constraint-infeasible"
  | Arity_mismatch _ -> "arity-mismatch"
  | Oracle_error Timeout -> "oracle-timeout"
  | Oracle_error Deadlock -> "oracle-deadlock"
  | Oracle_error Void_entry -> "oracle-void-entry"
  | Oracle_error (Runtime_error _) -> "oracle-runtime-error"
  | Oracle_error (Internal_error _) -> "oracle-internal-error"

let rec render_error ?file = function
  | Frontend_error { message; loc } ->
    let where = render_loc ?file loc in
    if where = "" then Printf.sprintf "error: %s" message
    else Printf.sprintf "%s: error: %s" where message
  | No_c_frontend { backend } ->
    Printf.sprintf "%s: structural EDSL, no C frontend — build designs \
                    with the Ocapi module" backend
  | Dialect_reject { backend; violations } -> (
    match violations with
    | { Dialect.rule; where; vloc } :: _ ->
      let at = render_loc ?file vloc in
      if at = "" then
        Printf.sprintf "%s: dialect rejects: %s (in %s)" backend rule where
      else
        Printf.sprintf "%s: dialect rejects: %s (in %s, at %s)" backend rule
          where at
    | [] -> Printf.sprintf "%s: dialect rejects" backend)
  | Backend_error { backend; message; loc } ->
    let where = render_loc ?file loc in
    if where = "" then Printf.sprintf "%s: error: %s" backend message
    else Printf.sprintf "%s: %s: error: %s" backend where message
  | Verification_error { backend; message } ->
    Printf.sprintf "%s: pass verification failed: %s" backend message
  | Constraint_infeasible { backend; message } ->
    Printf.sprintf "%s: unsatisfiable timing constraints: %s" backend message
  | Arity_mismatch { entry; expected; given } ->
    (* a usage error about the source's entry, rendered like an
       unlocated frontend error *)
    render_error ?file
      (Frontend_error
         { message =
             Printf.sprintf "%s expects %d argument(s), the vector has %d"
               entry expected given;
           loc = Ast.no_loc })
  | Oracle_error failure ->
    let message, loc =
      match failure with
      | Timeout -> ("timeout (step budget exhausted)", Ast.no_loc)
      | Deadlock -> ("deadlock (no thread can make progress)", Ast.no_loc)
      | Void_entry -> ("entry returned void", Ast.no_loc)
      | Runtime_error message -> (message, Ast.no_loc)
      | Internal_error (message, loc) -> ("internal error: " ^ message, loc)
    in
    render_error ?file (Backend_error { backend = "reference"; message; loc })

(* --- cache bookkeeping --- *)

(* content hash -> design; process-wide so sessions over the same source
   (and repeated sessions in one run) share artifacts.  The decoded
   front tier is always on; attaching a byte store (usually Cache.Disk)
   makes warm-cache state survive restarts and lets workers share.  The
   codec marshals only the design's data part (no closures) and revives
   it through Design.of_data, which rebuilds the simulation engine and
   structural views.  Marshal is still untyped — bytes written by a
   build whose artifact types differ would decode to garbage — so the
   disk store keeps versioning entries by executable digest. *)
let design_cache : Design.t Cache.t =
  Cache.create ~name:"designs"
    ~encode:(fun d ->
      try Some (Marshal.to_string (Design.data d : Design.data) [])
      with _ -> None)
    ~decode:(fun s ->
      try Some (Design.of_data (Marshal.from_string s 0 : Design.data))
      with _ -> None)
    ()

let cache_size () = Cache.size design_cache
let clear_cache () = Cache.clear design_cache

let set_cache_store s = Cache.set_store design_cache s
let cache_store () = Cache.store design_cache

let attach_disk_cache ?max_bytes ~dir () =
  match Cache.Disk.open_dir ?max_bytes dir with
  | Ok d ->
    let s = Cache.Disk.store d in
    set_cache_store (Some s);
    Ok s
  | Error _ as e -> e

(* Global cache-subsystem state (store counters, residency) as metric
   pairs, for the CLI's reports and [chlsc cache stats]. *)
let cache_metrics () =
  let front =
    [ ("driver.cache.front_entries", cache_size ());
      ("driver.cache.decode_failures", Cache.decode_failures design_cache) ]
  in
  let front =
    front
    @ [ ("driver.cache.front_hits", Cache.front_hits design_cache);
        ("driver.cache.front_misses", Cache.front_misses design_cache) ]
  in
  match cache_store () with
  | None -> front
  | Some s ->
    let c = Cache.store_counters s in
    front
    @ [ ("driver.store.hits", c.Cache.hits);
        ("driver.store.misses", c.Cache.misses);
        ("driver.store.puts", c.Cache.puts);
        ("driver.store.evictions", c.Cache.evictions);
        ("driver.store.corrupt", c.Cache.corrupt);
        ("driver.store.version_skew", c.Cache.version_skew);
        ("driver.store.entries", c.Cache.entries);
        ("driver.store.bytes", c.Cache.bytes) ]

(* Derived hit rates, only where there was traffic: a fresh process has
   no lookups and a percentage would be noise, so absent beats 0%. *)
let cache_hit_rates () =
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then None
    else Some (100. *. float_of_int hits /. float_of_int total)
  in
  let front =
    match
      rate (Cache.front_hits design_cache) (Cache.front_misses design_cache)
    with
    | Some r -> [ ("driver.cache.front_hit_rate_pct", r) ]
    | None -> []
  in
  let store =
    match cache_store () with
    | None -> []
    | Some s -> (
      let c = Cache.store_counters s in
      match rate c.Cache.hits c.Cache.misses with
      | Some r -> [ ("driver.store.hit_rate_pct", r) ]
      | None -> [])
  in
  front @ store

(* [counter] is the tier's own name, e.g. driver.cache.frontend_hits *)
let hit t counter =
  Metrics.incr t.metrics "driver.cache.hits";
  Metrics.incr t.metrics counter

let miss t counter =
  Metrics.incr t.metrics "driver.cache.misses";
  Metrics.incr t.metrics counter

(* The configuration is part of the compile's identity — resource
   bounds, unroll factor, verify vectors and dump hooks all change what
   the backend produces or does — so its digest joins the content hash.
   Distinct config points are distinct cached designs, on disk too.  A
   config is immutable, so its digest is taken once per value:
   Config.default's once per process, and any other config once per
   session that meets it.  The session keeps the last one, compared by
   address, which a compare's backends and a serve request's compile and
   echo share. *)
let default_digest = Config.digest Config.default

let config_digest t config =
  if config == Config.default then default_digest
  else
    match t.digested with
    | Some (c, d) when c == config -> d
    | Some _ | None ->
      let d = Config.digest config in
      t.digested <- Some (config, d);
      d

let design_key t name config =
  String.concat "|" [ t.digest; name; t.entry; config_digest t config ]

(* --- the frontend, exactly once per session --- *)

let program ?(ctx = Span.null) t =
  Span.span ctx "frontend" (fun sctx ->
      match t.frontend with
      | Some r ->
        hit t "driver.cache.frontend_hits";
        Span.add_attr sctx "memo" (Metrics.Bool true);
        r
      | None ->
        miss t "driver.cache.frontend_misses";
        Span.add_attr sctx "memo" (Metrics.Bool false);
        let t0 = Sys.time () in
        let r =
          match Typecheck.parse_and_check t.source with
          | p -> Ok p
          | exception
              ( Lexer.Error (message, loc)
              | Parser.Error (message, loc)
              | Typecheck.Error (message, loc) ) ->
            Error (Frontend_error { message; loc })
        in
        Metrics.add_ms t.metrics "driver.frontend_ms"
          ((Sys.time () -. t0) *. 1000.);
        (match r with
        | Error _ -> Span.add_attr sctx "rejected" (Metrics.Bool true)
        | Ok _ -> ());
        t.frontend <- Some r;
        r)

(* The one arity check, before any simulator, pass check or oracle
   runs: every vector's length against the entry's parameter count.  An
   entry the program lacks is the backend's or the oracle's to report. *)
let fits t vectors prog =
  match Ast.find_func prog t.entry with
  | None -> Ok prog
  | Some f -> (
    let expected = List.length f.Ast.f_params in
    match List.find_opt (fun v -> List.length v <> expected) vectors with
    | None -> Ok prog
    | Some v ->
      Error
        (Arity_mismatch { entry = t.entry; expected; given = List.length v }))

(* --- per-backend compilation --- *)

(* Passes cannot open spans itself (chl_ir sits below chl_obs in the
   library order), so pass spans are reconstructed post hoc from the
   trace records a fresh compile produced: each record carries its own
   start offset within the pipeline run, anchored at [at] — the trace
   offset where the backend compile began. *)
let emit_pass_spans ctx ~at (trace : Passes.trace) =
  List.iter
    (fun (r : Passes.record) ->
      Span.emit ctx
        ~attrs:
          [ ( "level",
              Metrics.String
                (match r.Passes.level with
                | Passes.Source -> "source"
                | Passes.Ir -> "ir") );
            ("blocks", Metrics.Int r.Passes.after.Passes.blocks);
            ( "instrs_delta",
              Metrics.Int
                (r.Passes.after.Passes.instrs - r.Passes.before.Passes.instrs)
            );
            ("verified", Metrics.Int r.Passes.verified) ]
        ~start_ms:(at +. r.Passes.start_ms) ~dur_ms:r.Passes.wall_ms
        ("pass:" ^ r.Passes.pass_name))
    trace

(* The dialect's verdict on the session's program, checked once per
   (session, dialect) *)
let verdict_on t prog (dialect : Dialect.t) =
  match List.assoc dialect.Dialect.name t.verdicts with
  | vs -> vs
  | exception Not_found ->
    let vs = Dialect.check dialect prog in
    t.verdicts <- (dialect.Dialect.name, vs) :: t.verdicts;
    vs

let compile ?(ctx = Span.null) ?(config = Config.default) t backend =
  match Result.bind (program ~ctx t) (fits t config.Config.verify) with
  | Error e -> Error e
  | Ok prog ->
    let name = Registry.name backend in
    if not (Registry.capabilities backend).Backend.c_frontend then
      Error (No_c_frontend { backend = name })
    else begin
      let violations =
        Span.span ctx "dialect-check"
          ~attrs:[ ("backend", Metrics.String name) ]
          (fun sctx ->
            let vs = verdict_on t prog (Registry.dialect backend) in
            Span.add_attr sctx "violations" (Metrics.Int (List.length vs));
            vs)
      in
      match violations with
      | _ :: _ as violations ->
        Error (Dialect_reject { backend = name; violations })
      | [] ->
        Span.span ctx "backend"
          ~attrs:[ ("backend", Metrics.String name) ]
          (fun sctx ->
        let key = design_key t name config in
        match Cache.find design_cache key with
        | Some (design, `Front) ->
          hit t "driver.cache.design_hits";
          Span.add_attr sctx "cache" (Metrics.String "front");
          Ok design
        | Some (design, `Store) ->
          (* revived from the persistent store: a hit that did no
             backend work, distinguished so benchmarks can see
             restart-survival *)
          hit t "driver.cache.design_store_hits";
          Span.add_attr sctx "cache" (Metrics.String "store");
          Ok design
        | None ->
          miss t "driver.cache.design_misses";
          Span.add_attr sctx "cache" (Metrics.String "miss");
          let t0 = Sys.time () in
          let at = Span.elapsed_ms sctx in
          let fail ?(loc = Ast.no_loc) message =
            Error (Backend_error { backend = name; message; loc })
          in
          let r =
            match Registry.compile backend ~config prog ~entry:t.entry with
            | design ->
              Cache.add design_cache key design;
              (* only a fresh compile has live pass timings — a cached
                 design's pass_trace describes work another request did *)
              emit_pass_spans sctx ~at design.Design.pass_trace;
              Ok design
            | exception Backend.No_c_frontend b ->
              Error (No_c_frontend { backend = b })
            | exception Backend.Dialect_rejected { backend; violations } ->
              (* a backend entered through a side door (another backend's
                 fallback, a stricter embedded check) still reports a
                 dialect property, not an internal failure *)
              Error (Dialect_reject { backend; violations })
            | exception Lower.Error (message, loc) -> fail ~loc message
            | exception Conc_check.Check_failed ds ->
              fail
                (String.concat "; "
                   (List.map (Conc_check.render ?file:None) ds))
            | exception Passes.Verification_failed message ->
              Error (Verification_error { backend = name; message })
            | exception Hardwarec.Unsatisfiable message ->
              (* a typed verdict, not a failure: the design point asks
                 for timing no allocation can meet — explore sweeps
                 report these as infeasible cells *)
              Error (Constraint_infeasible { backend = name; message })
            | exception (Cones.Unsupported message | Failure message) ->
              fail message
          in
          Metrics.add_ms t.metrics
            (Printf.sprintf "driver.compile.%s_ms" name)
            ((Sys.time () -. t0) *. 1000.);
          r)
    end

let compile_all ?ctx ?config ?backends t =
  let backends =
    match backends with Some bs -> bs | None -> Registry.all ()
  in
  List.map (fun b -> (b, compile ?ctx ?config t b)) backends

(* Answers are memoised per session: the interpreter is deterministic
   under its fixed step budget, so a repeated vector is a table hit.  A
   session belongs to one domain, so the table takes no lock; it is
   dropped whole when full, as serve drops its session table. *)
let oracle_memo_cap = 64

let interpret t prog args =
  match
    let resolved =
      match t.resolved with
      | Some r -> r
      | None ->
        let r = Interp.resolve prog in
        t.resolved <- Some r;
        r
    in
    Interp.run_resolved resolved ~entry:t.entry
      ~args:(List.map (Bitvec.of_int ~width:64) args)
  with
  | { Interp.return_value = Some v; _ } -> Ok (Bitvec.to_int v)
  | { Interp.return_value = None; _ } -> Error (Oracle_error Void_entry)
  | exception Interp.Runtime_error message ->
    Error (Oracle_error (Runtime_error message))
  | exception Interp.Timeout -> Error (Oracle_error Timeout)
  | exception Interp.Deadlock -> Error (Oracle_error Deadlock)
  | exception Interp.Internal_error (message, loc) ->
    Error (Oracle_error (Internal_error (message, loc)))

let reference ?(ctx = Span.null) t ~args =
  Span.span ctx "oracle"
    ~attrs:[ ("args", Metrics.Int (List.length args)) ]
    (fun sctx ->
      match Result.bind (program ~ctx:sctx t) (fits t [ args ]) with
      | Error e -> Error e
      | Ok prog -> (
        match Hashtbl.find_opt t.oracle args with
        | Some r ->
          Metrics.incr t.metrics "driver.oracle.memo_hits";
          Span.add_attr sctx "memo" (Metrics.Bool true);
          r
        | None ->
          Metrics.incr t.metrics "driver.oracle.runs";
          Span.add_attr sctx "memo" (Metrics.Bool false);
          let r = interpret t prog args in
          if Hashtbl.length t.oracle >= oracle_memo_cap then
            Hashtbl.reset t.oracle;
          Hashtbl.add t.oracle args r;
          r))

(* --- one verdict: the only place a run is judged against the oracle --- *)

type verdict = {
  vector : int list;
  run : (Design.run_result, Design.stop) result;
  oracle : (int, error) result option;
  agrees : bool;
}

let observed v =
  match v.run with
  | Ok r -> Option.map Bitvec.to_int r.Design.result
  | Error _ -> None

let agree verdicts =
  verdicts <> [] && List.for_all (fun v -> v.agrees) verdicts

let verdict vector run oracle =
  let v = { vector; run; oracle; agrees = false } in
  match oracle with
  | Some (Ok expected) -> { v with agrees = (observed v = Some expected) }
  | Some (Error _) | None -> v

(* --- rendering verdicts: one vocabulary for chlsc and the daemon --- *)

let int_or_null = function Some n -> Metrics.Int n | None -> Metrics.Null

let run_members v =
  let some key json = Option.fold ~none:[] ~some:(fun x -> [ (key, json x) ]) in
  let units t = Metrics.Fixed (1, t) in
  let run =
    match v.run with
    | Error { Design.reason; progress } -> (
      ("status", Metrics.String (Design.stop_reason_name reason))
      :: (match reason with
         | Design.Fault message -> [ ("detail", Metrics.String message) ]
         | Design.Timeout | Design.Deadlock | Design.Combinational_loop -> [])
      @
      (match progress with
      | Design.Cycles { cycles; state } ->
        [ ("cycles", Metrics.Int cycles); ("state", Metrics.Int state) ]
      | Design.Tokens { fired; time } ->
        [ ("tokens_fired", Metrics.Int fired); ("time_units", units time) ]
      | Design.Unreported -> []))
    | Ok r ->
      [ ("status", Metrics.String "ok"); ("result", int_or_null (observed v)) ]
      @ some "cycles" (fun c -> Metrics.Int c) r.Design.cycles
      @ some "time_units" units r.Design.time_units
  in
  run
  @
  match v.oracle with
  | None -> []
  | Some (Error e) -> [ ("reference_error", Metrics.String (render_error e)) ]
  | Some (Ok _) -> [ ("matches_reference", Metrics.Bool v.agrees) ]

let compare_row = function
  | Error e ->
    [ ("status", Metrics.String (error_kind e));
      ("detail", Metrics.String (render_error e)) ]
  | Ok (_, verdicts) ->
    ("status", Metrics.String "ok")
    :: ( "results",
         Metrics.List (List.map (fun v -> int_or_null (observed v)) verdicts) )
    ::
    if verdicts = [] then []
    else [ ("agrees", Metrics.Bool (agree verdicts)) ]

let mismatch table =
  List.exists
    (function
      | _, Ok (_, (_ :: _ as verdicts)) -> not (agree verdicts)
      | _, (Ok (_, []) | Error _) -> false)
    table

let simulate ?ctx ?vcd ?sim design args =
  match Design.run_traced ?ctx ?vcd ?sim design (Design.int_args args) with
  | r -> Ok r
  | exception Design.Stopped stop -> Error stop

let judge ?ctx ?vcd ?sim design ~args ~oracle =
  verdict args (simulate ?ctx ?vcd ?sim design args) (Some oracle)

let check ?ctx ?vcd ?sim t design ~args =
  (* the design came from this session, so its program is memoised: the
     peek opens no frontend span and counts no cache hit *)
  let prog = match t.frontend with Some r -> r | None -> program ?ctx t in
  match Result.bind prog (fits t [ args ]) with
  | Error e -> Error e
  | Ok _ -> (
    match simulate ?ctx ?vcd ?sim design args with
    | Ok _ as run -> Ok (verdict args run (Some (reference ?ctx t ~args)))
    | Error _ as run -> Ok (verdict args run None))

(* The oracle runs once per vector, not once per backend x vector: on
   warm designs it is the costlier half of a verify batch. *)
let compare ?ctx ?config ?backends t ~vectors =
  match Result.bind (program ?ctx t) (fits t vectors) with
  | Error e -> Error e
  | Ok _ ->
    let oracles =
      List.map (fun args -> (args, reference ?ctx t ~args)) vectors
    in
    let sim = Option.map (fun c -> c.Config.sim) config in
    let judge_all design =
      ( design,
        List.map (fun (args, oracle) -> judge ?ctx ?sim design ~args ~oracle)
          oracles )
    in
    Ok
      (List.map
         (fun (b, compiled) -> (b, Result.map judge_all compiled))
         (compile_all ?ctx ?config ?backends t))

let engine_mismatches design ~args =
  let run sim =
    let w = Vcd.create () in
    let r = simulate ~vcd:w ~sim design args in
    (r, Vcd.contents w)
  in
  let rc, vcd_c = run Design.Compiled in
  match rc with
  | Ok c
    when Metrics.find c.Design.metrics "sim.engine"
         <> Some (Metrics.String "compiled") ->
    None
  | _ ->
    let re, vcd_e = run Design.Event_driven in
    let named eq = List.equal (fun (n, a) (m, b) -> n = m && eq a b) in
    let memory a b =
      List.equal Bitvec.equal (Array.to_list a) (Array.to_list b)
    in
    let surfaces =
      match (rc, re) with
      | Ok c, Ok e ->
        [ ("result", Option.equal Bitvec.equal c.Design.result e.Design.result);
          ("globals", named Bitvec.equal c.Design.globals e.Design.globals);
          ("memories", named memory c.Design.memories e.Design.memories);
          ("cycles", c.Design.cycles = e.Design.cycles) ]
      | Error c, Error e -> [ ("stop", c = e) ]
      | Ok _, Error _ | Error _, Ok _ -> [ ("stop", false) ]
    in
    Some
      (List.filter_map
         (fun (what, same) -> if same then None else Some what)
         (surfaces @ [ ("vcd", vcd_c = vcd_e) ]))
