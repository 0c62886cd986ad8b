(* One verdict: runs are judged against the oracle in Driver only, and
   every way a simulator or the interpreter stops is a typed outcome —
   never an uncaught exception, never a serve [internal] error.

   Both programs below burn their full budgets on purpose: the timeout
   rows cost a few seconds each (the interpreter's 10M steps, the
   Handel-C and C2Verilog machines' cycle bounds). *)

(* [n] never changes, so the loop spins for any positive argument *)
let spin_source =
  "int spin(int n) { int x = 0; while (n > 0) { x = x + 1; } return x; }"

(* the send arm is skipped for n <= 5, so recv never pairs *)
let dead_source =
  "chan int c;\n\
   int run(int n) { int a = 0; par { { if (n > 5) { send(c, 1); } } \
   { a = recv(c); } } return a; }"

(* a callee that never returns: the Handel-C clock cannot advance inside
   one big-step call, so the shared step budget stops it *)
let callee_spin_source =
  "int g(int n) { int x = 0; while (n > 0) { x = x + 1; } return x; } \
   int f(int a) { return g(a); }"

(* A machine's own runtime errors: recursion past C2Verilog's 32K-word
   stack; a local array larger than one thread's 65,536-word stack; a
   pointer argument that is a negative address. *)
let deep_source =
  "int sum(int n) { if (n <= 0) { return 0; } return n + sum(n - 1); }"

let big_array_source = "int f(int n) { int a[70000]; a[0] = n; return a[0]; }"

let deref_source = "int f(int *p) { return *p; }"

let faults =
  [ ("c2verilog", deep_source, "sum", [ 100_000 ], "stack overflow");
    ("handelc", big_array_source, "f", [ 5 ], "stack overflow");
    ("c2verilog", deref_source, "f", [ -5 ], "load out of memory (-5)") ]

(* two par branches that each declare a variable on every iteration of
   a 40,000-iteration loop *)
let par_leak_source =
  "int g; int f(int n) { int r = 0; par { { int i = 0; while (i < n) { \
   int t = i; r = r + t; i = i + 1; } } { int j = 0; while (j < n) { \
   int u = j; g = g + u; j = j + 1; } } } return r + g; }"

(* one thread's loop declaration: its block's word is free again at the
   end of every iteration *)
let leak_source =
  "int fib(int n) { int a = 0; int b = 1; int i = 0; \
   while (i < n) { int t = a + b; a = b; b = t; i = i + 1; } return a; }"

let compile session backend =
  match Driver.compile session (Registry.get backend) with
  | Ok d -> d
  | Error e -> Alcotest.fail (Driver.render_error e)

let check session design ~args =
  match Driver.check session design ~args with
  | Ok v -> v
  | Error e -> Alcotest.fail (Driver.render_error e)

let oracle_runs session =
  match Metrics.find (Driver.metrics session) "driver.oracle.runs" with
  | Some (Metrics.Int n) -> n
  | _ -> 0

let test_reference_types_interpreter_stops () =
  let typed what source entry failure =
    let session = Driver.create ~entry source in
    let first = Driver.reference session ~args:[ 1 ] in
    (match first with
    | Error (Driver.Oracle_error f as e) ->
      Alcotest.(check bool) (what ^ " typed") true (f = failure);
      let prefix = "reference: error: " ^ what in
      let shown = Driver.render_error e in
      Alcotest.(check bool) (what ^ " named") true
        (String.length shown >= String.length prefix
        && String.sub shown 0 (String.length prefix) = prefix)
    | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e)
    | Ok v -> Alcotest.failf "%s: oracle returned %d" what v);
    (* asked again, the session's memo answers with the same typed
       error instead of burning the budget twice *)
    Alcotest.(check bool) (what ^ " answered again") true
      (Driver.reference session ~args:[ 1 ] = first);
    Alcotest.(check int) (what ^ " interpreted once") 1 (oracle_runs session)
  in
  typed "timeout" spin_source "spin" Driver.Timeout;
  typed "deadlock" dead_source "run" Driver.Deadlock;
  (* the same program with a paired rendezvous still answers *)
  match Driver.reference (Driver.create ~entry:"run" dead_source) ~args:[ 9 ]
  with
  | Ok v -> Alcotest.(check int) "paired rendezvous" 1 v
  | Error e -> Alcotest.fail (Driver.render_error e)

let test_check_types_every_simulator_stop () =
  let stops source entry reason backends =
    let session = Driver.create ~entry source in
    List.iter
      (fun backend ->
        let v = check session (compile session backend) ~args:[ 1 ] in
        (match v.Driver.run with
        | Error stop ->
          Alcotest.(check string)
            (backend ^ " stop reason")
            (Design.stop_reason_name reason)
            (Design.stop_reason_name stop.Design.reason)
        | Ok _ -> Alcotest.failf "%s: run completed" backend);
        Alcotest.(check bool) (backend ^ " disagrees") false v.Driver.agrees;
        (* a stopped run never pays for the oracle *)
        Alcotest.(check bool) (backend ^ " oracle skipped") true
          (v.Driver.oracle = None))
      backends
  in
  stops spin_source "spin" Design.Timeout
    [ "bachc"; "systemc"; "cash"; "c2verilog"; "handelc" ];
  stops callee_spin_source "f" Design.Timeout [ "handelc" ];
  stops dead_source "run" Design.Deadlock [ "handelc" ];
  List.iter
    (fun (backend, source, entry, args, message) ->
      let session = Driver.create ~entry source in
      let v = check session (compile session backend) ~args in
      let what = Printf.sprintf "%s %s(%d)" backend entry (List.hd args) in
      (match v.Driver.run with
      | Error stop ->
        Alcotest.(check string) (what ^ " stop") ("fault: " ^ message)
          (Design.render_stop stop)
      | Ok _ -> Alcotest.failf "%s: run completed" what);
      Alcotest.(check bool) (what ^ " oracle skipped") true
        (v.Driver.oracle = None))
    faults

(* A closed block's words are free again, so a loop that declares a
   variable on every iteration answers on the oracle and on the Handel-C
   clock alike. *)
let test_closed_blocks_free_words () =
  let session = Driver.create ~entry:"fib" leak_source in
  let v = check session (compile session "handelc") ~args:[ 70_000 ] in
  (match v.Driver.run with
  | Ok _ -> ()
  | Error stop -> Alcotest.fail (Design.render_stop stop));
  (match v.Driver.oracle with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.fail (Driver.render_error e)
  | None -> Alcotest.fail "the oracle was not asked");
  Alcotest.(check bool) "handelc agrees with the oracle" true v.Driver.agrees

(* Each par branch frees its own blocks' words, whatever the other
   branch does: the interleaved loops answer on the oracle and on the
   Handel-C clock alike, and the oracle also stops on a real overflow. *)
let test_par_branches_free_words () =
  let session = Driver.create ~entry:"f" par_leak_source in
  let v = check session (compile session "handelc") ~args:[ 40_000 ] in
  (match v.Driver.run with
  | Ok r ->
    Alcotest.(check (option int)) "handelc answers" (Some 1_599_960_000)
      (Option.map Bitvec.to_int r.Design.result)
  | Error stop -> Alcotest.fail (Design.render_stop stop));
  (match v.Driver.oracle with
  | Some (Ok n) -> Alcotest.(check int) "the oracle answers" 1_599_960_000 n
  | Some (Error e) -> Alcotest.fail (Driver.render_error e)
  | None -> Alcotest.fail "the oracle was not asked");
  Alcotest.(check bool) "handelc agrees with the oracle" true v.Driver.agrees;
  match Driver.reference (Driver.create ~entry:"f" big_array_source) ~args:[ 5 ]
  with
  | Error (Driver.Oracle_error (Driver.Runtime_error m)) ->
    Alcotest.(check string) "the oracle overflows" "stack overflow" m
  | Error e -> Alcotest.fail (Driver.render_error e)
  | Ok n -> Alcotest.failf "a[70000] answered %d" n

(* The detail chlsc prints survives the one exception: FSMD state and
   CASH token counts ride along with the reason. *)
let test_stop_keeps_progress () =
  let session = Driver.create ~entry:"spin" spin_source in
  let stop backend =
    let v = check session (compile session backend) ~args:[ 1 ] in
    match v.Driver.run with
    | Error s -> s
    | Ok _ -> Alcotest.failf "%s: run completed" backend
  in
  let fsmd = stop "bachc" in
  (match fsmd.Design.progress with
  | Design.Cycles { cycles; _ } ->
    Alcotest.(check int) "cycles reached" 2_000_000 cycles
  | Design.Tokens _ | Design.Unreported ->
    Alcotest.fail "an FSMD reports its cycles");
  Alcotest.(check string) "rendered as chlsc prints it"
    "timeout after 2000000 cycles (in state 2)" (Design.render_stop fsmd);
  match (stop "cash").Design.progress with
  | Design.Tokens { fired; _ } ->
    Alcotest.(check bool) "tokens fired" true (fired > 0)
  | Design.Cycles _ | Design.Unreported ->
    Alcotest.fail "cash reports its token count"

let json = Alcotest.testable (Fmt.of_to_string Metrics.render_compact) ( = )

let member name j =
  match Metrics.member name j with
  | Some v -> v
  | None ->
    Alcotest.fail
      (Printf.sprintf "missing %S in %s" name (Metrics.render_compact j))

let rec mentions_internal = function
  | Metrics.String "internal" -> true
  | Metrics.Obj fields ->
    List.exists (fun (_, v) -> mentions_internal v) fields
  | Metrics.List items -> List.exists mentions_internal items
  | _ -> false

let test_serve_stops_are_typed () =
  let pool = Serve.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let handle req = Serve.Pool.handle pool None req in
      let compile ?(backend = "handelc") ?(args = [ 1 ]) source entry =
        handle
          (Serve.Compile
             { id = Metrics.Null; source; entry; backend; args = Some args;
               config = None })
      in
      let compare ?backends source entry =
        handle
          (Serve.Compare
             { id = Metrics.Null; source; entry; backends;
               vectors = [ [ 1 ] ]; config = None })
      in
      let no_internal what resp =
        Alcotest.(check bool) (what ^ ": no internal error") false
          (mentions_internal resp)
      in
      let dead = compile dead_source "run" in
      no_internal "compile dead.c" dead;
      Alcotest.check json "deadlock status"
        (Metrics.String "deadlock") (member "status" dead);
      let spin = compile spin_source "spin" in
      no_internal "compile spin.c" spin;
      Alcotest.check json "timeout status"
        (Metrics.String "timeout") (member "status" spin);
      (* a stop answers with the progress chlsc compile reports *)
      let fsmd = compile ~backend:"bachc" spin_source "spin" in
      Alcotest.check json "bachc timeout status"
        (Metrics.String "timeout") (member "status" fsmd);
      Alcotest.check json "bachc cycles reached" (Metrics.Int 2_000_000)
        (member "cycles" fsmd);
      Alcotest.check json "bachc FSM state" (Metrics.Int 2)
        (member "state" fsmd);
      (* a machine fault answers with its message *)
      List.iter
        (fun (backend, source, entry, args, message) ->
          let what = Printf.sprintf "compile %s %s" backend entry in
          let resp = compile ~backend ~args source entry in
          no_internal what resp;
          Alcotest.check json (what ^ " status") (Metrics.String "fault")
            (member "status" resp);
          Alcotest.check json (what ^ " detail") (Metrics.String message)
            (member "detail" resp))
        faults;
      let cash = compile ~backend:"cash" spin_source "spin" in
      Alcotest.check json "cash timeout status"
        (Metrics.String "timeout") (member "status" cash);
      (match (member "tokens_fired" cash, member "time_units" cash) with
      | Metrics.Int n, Metrics.Fixed (_, t) ->
        Alcotest.(check bool) "cash tokens fired, time advanced" true
          (n > 0 && t > 0.)
      | n, t ->
        Alcotest.failf "cash progress: %s, %s" (Metrics.render_compact n)
          (Metrics.render_compact t));
      List.iter
        (fun (what, resp) ->
          no_internal what resp;
          Alcotest.check json (what ^ " answered") (Metrics.Bool true)
            (member "ok" resp);
          Alcotest.check json (what ^ " mismatch")
            (Metrics.Bool true) (member "mismatch" resp))
        [ ("compare dead.c", compare dead_source "run");
          ( "compare spin.c",
            compare ~backends:[ "bachc" ] spin_source "spin" ) ])

(* The oracle is the costlier half of a warm verify batch: a compare
   consults it once per vector, never once per backend x vector, and a
   vector the session has answered before comes from its memo. *)
let test_compare_one_oracle_per_vector () =
  let traces = ref [] in
  let pool =
    Serve.Pool.create ~domains:1
      ~on_trace:(fun ~pid:_ ~tid:_ tr -> traces := tr :: !traces)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let w = Workloads.gcd in
      let sessions = Hashtbl.create 4 in
      let vectors = [ [ 12; 18 ]; [ 54; 24 ]; [ 1071; 462 ]; [ 12; 18 ] ] in
      let compare () =
        traces := [];
        let resp =
          Serve.Pool.handle pool (Some sessions)
            (Serve.Compare
               { id = Metrics.Null; source = w.Workloads.source;
                 entry = w.Workloads.entry; backends = None; vectors;
                 config = None })
        in
        Alcotest.check json "no mismatch" (Metrics.Bool false)
          (member "mismatch" resp);
        (* bachc's row: one result per vector, memo hits included *)
        let bachc =
          match member "backends" resp with
          | Metrics.List rows ->
            List.find
              (fun r -> member "backend" r = Metrics.String "bachc")
              rows
          | j -> Alcotest.failf "backends: %s" (Metrics.render_compact j)
        in
        Alcotest.check json "results per vector"
          (Metrics.List
             (List.map (fun v -> Metrics.Int (Workloads.reference w v))
                vectors))
          (member "results" bachc);
        match !traces with
        | [ tr ] ->
          let records = Span.records tr in
          let count k =
            List.length (List.filter (fun r -> r.Span.kind = k) records)
          in
          let memo_hits =
            List.length
              (List.filter
                 (fun r ->
                   r.Span.kind = "oracle"
                   && List.assoc_opt "memo" r.Span.attrs
                      = Some (Metrics.Bool true))
                 records)
          in
          Alcotest.(check bool) "every accepted backend simulated" true
            (count "simulate" > 4);
          (count "oracle", memo_hits)
        | l -> Alcotest.failf "expected one trace, got %d" (List.length l)
      in
      Alcotest.(check (pair int int))
        "one oracle span per vector, the repeat from the memo" (4, 1)
        (compare ());
      Alcotest.(check (pair int int))
        "the same request again: every answer from the memo" (4, 4)
        (compare ()))

(* The compiled engine and the event-driven one agree on every surface
   (result, globals, memories, cycles, VCD) for every argument vector:
   on gcd, and on bsort, whose global array is a memory.  SystemC's event
   engine is its kernel; it agrees on every kernel SystemC accepts, as
   Cones' packed netlist agrees with its evaluator.  CASH and the
   statement machine (Handel-C, and a concurrent kernel on SystemC) have
   one engine, so the cross-check does not apply to them. *)
let test_engine_cross_check () =
  let cross backends (w : Workloads.t) =
    let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
    List.iter
      (fun backend ->
        match Driver.compile session (Registry.get backend) with
        | Error (Driver.Dialect_reject _) -> ()
        | Error e -> Alcotest.fail (Driver.render_error e)
        | Ok design ->
          List.iter
            (fun args ->
              Alcotest.(check (option (list string)))
                (Printf.sprintf "%s %s: compiled == event-driven" backend
                   w.Workloads.name)
                (match design.Design.artifact with
                | Design.Dataflow _ | Design.Statement_machine _ -> None
                | _ -> Some [])
                (Driver.engine_mismatches design ~args))
            w.Workloads.arg_sets)
      backends
  in
  List.iter
    (cross
       [ "bachc"; "transmogrifier"; "hardwarec"; "systemc"; "cash";
         "c2verilog" ])
    Workloads.[ gcd; bsort ];
  List.iter (cross [ "systemc"; "cones"; "handelc" ]) Workloads.all

(* A vector of the wrong length is refused once, in Driver, before any
   pass check, simulator or oracle runs: one typed error on every
   compiling backend, in compare, for the config's verify vectors, and on
   the daemon. *)
let two_source = "int f(int a, int b) { return a + b; }"

let test_wrong_arity_refused () =
  let session = Driver.create ~entry:"f" two_source in
  let refused what = function
    | Error (Driver.Arity_mismatch { entry = "f"; expected = 2; given = 1 }
             as e) ->
      Alcotest.(check string) (what ^ " kind") "arity-mismatch"
        (Driver.error_kind e)
    | Error e -> Alcotest.failf "%s: %s" what (Driver.render_error e)
    | Ok _ -> Alcotest.failf "%s: the vector was accepted" what
  in
  List.iter
    (fun backend ->
      let name = Registry.name backend in
      let design = compile session name in
      let tr, ctx = Span.start ~kind:"check" () in
      refused (name ^ " run") (Driver.check ~ctx session design ~args:[ 1 ]);
      Span.finish tr;
      Alcotest.(check bool) (name ^ ": no simulate span") false
        (List.exists (fun r -> r.Span.kind = "simulate") (Span.records tr));
      refused (name ^ " verify vector")
        (Driver.compile
           ~config:{ Config.default with Config.verify = [ [ 1 ] ] }
           session backend))
    (Registry.compiling ());
  refused "compare" (Driver.compare session ~vectors:[ [ 1; 2 ]; [ 1 ] ]);
  refused "oracle" (Driver.reference session ~args:[ 1 ]);
  Alcotest.(check int) "the oracle never ran" 0 (oracle_runs session);
  let pool = Serve.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let kind resp =
        match member "error" resp with
        | Metrics.Obj _ as e -> member "kind" e
        | j -> j
      in
      List.iter
        (fun (what, req) ->
          Alcotest.check json (what ^ " answers the kind")
            (Metrics.String "arity-mismatch")
            (kind (Serve.Pool.handle pool None req)))
        [ ( "serve compile",
            Serve.Compile
              { id = Metrics.Null; source = two_source; entry = "f";
                backend = "cash"; args = Some [ 1 ]; config = None } );
          ( "serve compare",
            Serve.Compare
              { id = Metrics.Null; source = two_source; entry = "f";
                backends = None; vectors = [ [ 1 ] ]; config = None } );
          ( "serve config.verify",
            Serve.Compile
              { id = Metrics.Null; source = two_source; entry = "f";
                backend = "bachc"; args = None;
                config =
                  Some { Config.default with Config.verify = [ [ 1 ] ] } } )
        ])

(* Same-step store->load forwarding is Transmogrifier C's alone: no
   configuration can schedule it onto an FSMD whose memory buffers its
   stores, so every FSMD backend answers 17. *)
let test_forwarding_is_transmogrifiers () =
  let source =
    "int f(int a) { int m[4]; m[0] = a; m[1] = m[0] + 1; \
     m[2] = m[1] * 2; return m[2] + m[0]; }"
  in
  let session = Driver.create ~entry:"f" source in
  List.iter
    (fun backend ->
      let v = check session (compile session backend) ~args:[ 5 ] in
      Alcotest.(check (option int)) (backend ^ " result") (Some 17)
        (Driver.observed v);
      Alcotest.(check bool) (backend ^ " agrees") true v.Driver.agrees)
    [ "bachc"; "cyber"; "hardwarec"; "specc"; "systemc"; "transmogrifier" ]

let suite =
  ( "verdict",
    [ Alcotest.test_case "reference types interpreter stops" `Quick
        test_reference_types_interpreter_stops;
      Alcotest.test_case "check types every simulator stop" `Quick
        test_check_types_every_simulator_stop;
      Alcotest.test_case "closed blocks free their words" `Quick
        test_closed_blocks_free_words;
      Alcotest.test_case "par branches free their words" `Quick
        test_par_branches_free_words;
      Alcotest.test_case "stop keeps simulator progress" `Quick
        test_stop_keeps_progress;
      Alcotest.test_case "serve answers stops with a status" `Quick
        test_serve_stops_are_typed;
      Alcotest.test_case "compare runs one oracle per vector" `Quick
        test_compare_one_oracle_per_vector;
      Alcotest.test_case "engine cross-check, full surface" `Quick
        test_engine_cross_check;
      Alcotest.test_case "wrong-arity vectors refused once" `Quick
        test_wrong_arity_refused;
      Alcotest.test_case "forwarding is transmogrifier's alone" `Quick
        test_forwarding_is_transmogrifiers ] )
