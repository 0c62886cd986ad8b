(* The static concurrency checker (lib/analysis) and the crash-path
   regressions that ride along with it: par-block races, channel lint,
   per-dialect severities, and the located diagnostics that replaced
   assert-false crashes in the front end and lowering. *)

let check ?(dialect = Dialect.handelc) src =
  Conc_check.check_program ~dialect (Typecheck.parse_and_check src)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let count_kind p diags = List.length (List.filter (fun d -> p d.Conc_check.d_kind) diags)

let is_ww = function Conc_check.Race_ww _ -> true | _ -> false
let is_rw = function Conc_check.Race_rw _ -> true | _ -> false

(* --- race detection --- *)

let racy_src =
  {|
  int g;
  int f(int n) {
    int t = 0;
    par {
      { g = n + 1; t = 1; }
      { g = n * 2; }
      { int mine = g; mine = mine + 1; }
    }
    return g + t;
  }
  |}

let test_clean_pipeline () =
  let src =
    {|
    chan int c1;
    int f(int n) {
      int hits = 0;
      par {
        { int i = 0; while (i < n) { send(c1, i); i = i + 1; } send(c1, -1); }
        { int v = 0; v = recv(c1); while (v != -1) { hits = hits + v; v = recv(c1); } }
      }
      return hits;
    }
    |}
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length (check src))

let test_ww_race_handelc () =
  let diags = check racy_src in
  Alcotest.(check int) "one write/write race" 1 (count_kind is_ww diags);
  Alcotest.(check int) "two read/write races" 2 (count_kind is_rw diags);
  (* Handel-C: the paper says two writers are illegal; a reader beside a
     writer is merely dangerous *)
  Alcotest.(check int) "ww is the only hard error" 1
    (List.length (Conc_check.errors diags));
  let e = List.hd (Conc_check.errors diags) in
  Alcotest.(check bool) "error is the ww race" true (is_ww e.Conc_check.d_kind);
  Alcotest.(check bool) "carries a real location" true
    (e.Conc_check.d_loc.Ast.line > 0);
  Alcotest.(check bool) "carries the sibling location" true
    (e.Conc_check.d_other <> None)

let test_severity_per_dialect () =
  (* same program, three verdicts *)
  let errors_under d = List.length (Conc_check.errors (check ~dialect:d racy_src)) in
  Alcotest.(check int) "handelc: ww only" 1 (errors_under Dialect.handelc);
  Alcotest.(check int) "specc: silent hazard, warnings only" 0
    (errors_under Dialect.specc);
  Alcotest.(check int) "bachc: untimed semantics, rw also errors" 3
    (errors_under Dialect.bachc)

let test_arm_private_state_ok () =
  let src =
    {|
    int f(int n) {
      par {
        { int x = n; x = x + 1; }
        { int x = n; x = x * 2; }
      }
      return n;
    }
    |}
  in
  Alcotest.(check int) "arm-locals never race" 0 (List.length (check src))

let test_array_race () =
  let src =
    {|
    int buf[8];
    int f(int n) {
      par {
        { buf[0] = n; }
        { buf[7] = n; }
      }
      return buf[0];
    }
    |}
  in
  (* whole-array granularity: disjoint indices still conflict *)
  let diags = check src in
  Alcotest.(check int) "array ww race" 1 (count_kind is_ww diags);
  match (List.hd diags).Conc_check.d_kind with
  | Conc_check.Race_ww (Conc_check.Array "buf") -> ()
  | _ -> Alcotest.fail "expected a race on array buf"

let test_pointer_param_aliasing () =
  let shared =
    {|
    int a[4];
    int store(int *p, int v) { p[0] = v; return 0; }
    int f(int n) {
      par {
        { int r1 = store(a, n); r1 = r1 + 1; }
        { int r2 = store(a, n + 1); r2 = r2 + 1; }
      }
      return a[0];
    }
    |}
  in
  (* the array argument is charged read+write at each call site, so two
     arms passing the same array to a pointer parameter conflict *)
  Alcotest.(check int) "same array through pointer params races" 1
    (count_kind is_ww (check shared));
  let disjoint =
    {|
    int a[4];
    int b[4];
    int store(int *p, int v) { p[0] = v; return 0; }
    int f(int n) {
      par {
        { int r1 = store(a, n); r1 = r1 + 1; }
        { int r2 = store(b, n); r2 = r2 + 1; }
      }
      return a[0] + b[0];
    }
    |}
  in
  (* ...and distinct arrays do not: the summary is per call site, not a
     single blanket "touches pointers" verdict *)
  Alcotest.(check int) "distinct arrays stay clean" 0
    (List.length (check disjoint))

let test_call_effects () =
  let src =
    {|
    int g;
    int bump(int by) { g = g + by; return g; }
    int f(int n) {
      par {
        { int r1 = bump(n); r1 = r1 + 1; }
        { int r2 = bump(1); r2 = r2 + 1; }
      }
      return g;
    }
    |}
  in
  let diags = check src in
  Alcotest.(check int) "race through function summaries" 1
    (count_kind is_ww diags);
  (* the conflict is charged to the call sites inside the par arms *)
  let d = List.hd diags in
  Alcotest.(check bool) "charged to a source line" true
    (d.Conc_check.d_loc.Ast.line > 0)

let test_nested_par () =
  let src =
    {|
    int g;
    int f(int n) {
      par {
        {
          par {
            { g = n; }
            { g = n + 1; }
          }
        }
        { int x = n; x = x + 1; }
      }
      return g;
    }
    |}
  in
  Alcotest.(check int) "race inside nested par is found" 1
    (count_kind is_ww (check src))

(* Only names declared inside an arm are private to it: the enclosing
   function's locals and parameters are shared like globals. *)
let test_outer_locals_shared () =
  let local_src =
    "int f(int n) { int x = 0; par { { x = n; } { x = n + 1; } } return x; }"
  and array_src =
    "int f(int n) { int b[4]; par { { b[0] = n; } { b[1] = n; } } return b[0]; }"
  and param_src = "int f(int n) { par { { n = 1; } { n = 2; } } return n; }"
  and read_src =
    "int g0; int g1; \
     int f(int n) { par { { g0 = n + 1; } { g1 = n * 2; } } return g0 + g1; }"
  in
  let dialects =
    [ (Dialect.handelc, "error"); (Dialect.bachc, "error");
      (Dialect.cyber, "error"); (Dialect.specc, "warning") ]
  in
  List.iter
    (fun (what, src, name) ->
      List.iter
        (fun ((d : Dialect.t), severity) ->
          let where = what ^ " under " ^ d.Dialect.name in
          match check ~dialect:d src with
          | [ { Conc_check.d_kind = Race_ww (Scalar v); d_severity; _ } ] ->
            Alcotest.(check (pair string string)) where (name, severity)
              (v, Conc_check.severity_name d_severity)
          | ds ->
            Alcotest.failf "%s: %d diagnostics, expected one write/write race"
              where (List.length ds))
        dialects)
    [ ("local", local_src, "x"); ("local array", array_src, "b");
      ("parameter", param_src, "n") ];
  List.iter
    (fun ((d : Dialect.t), _) ->
      Alcotest.(check int)
        ("parameter two arms read, under " ^ d.Dialect.name)
        0
        (List.length (check ~dialect:d read_src)))
    dialects;
  (* a local named like a global is its own storage: writing it races
     with no call that writes the global *)
  List.iter
    (fun src ->
      Alcotest.(check int) "a local named like a global" 0
        (List.length (check src)))
    [ "int g; void h() { g = 1; } \
       int f(int n) { int g = 0; par { { g = n; } { h(); } } return g; }";
      "int b[4]; void h() { b[0] = 1; } \
       int f(int n) { int b[4]; par { { b[1] = n; } { h(); } } return b[1]; }" ]

(* --- channel lint --- *)

(* A pointer reaches an enclosing scalar only when the scalar is an
   array or its address is taken: writes through [p] race with each
   other and with reads of [buf], but not with a read of [n], whose
   address nobody takes. *)
let test_pointer_reaches_addressable () =
  let bachc = Dialect.bachc in
  let diags =
    check ~dialect:bachc
      "int f(int n) { int buf[4]; int *p = buf; \
       par { { p[0] = n; } { p[1] = n; } } return buf[0]; }"
  in
  Alcotest.(check (list string)) "only the write/write through p"
    [ "write/write race on pointer-aliased storage between par arms 1 and 2" ]
    (List.map (fun d -> d.Conc_check.d_msg) diags);
  let diags =
    check ~dialect:bachc
      "int f(int n) { int buf[4]; int *p = buf; int x = 0; \
       par { { x = buf[0]; } { p[1] = n; } } return x; }"
  in
  Alcotest.(check bool) "a read of buf races with a write through p" true
    (List.exists
       (fun d ->
         is_rw d.Conc_check.d_kind
         && contains ~affix:"pointer-aliased" d.Conc_check.d_msg)
       diags);
  let diags =
    check ~dialect:bachc
      "int f(int n) { int *q = &n; int r = 0; \
       par { { *q = 1; } { r = n; } } return r; }"
  in
  Alcotest.(check bool) "a read of n races with a write through &n" true
    (List.exists
       (fun d ->
         is_rw d.Conc_check.d_kind
         && contains ~affix:"pointer-aliased" d.Conc_check.d_msg)
       diags)

let test_chan_unmatched_send () =
  let src =
    {|
    chan int c;
    int f(int n) {
      par {
        { send(c, n); }
        { int x = n; x = x + 1; }
      }
      return n;
    }
    |}
  in
  let diags = check src in
  Alcotest.(check int) "one unmatched send" 1
    (count_kind (function Conc_check.Chan_unmatched_send _ -> true | _ -> false) diags);
  (* the channel is used nowhere else in the program, so the rendezvous
     provably never completes: a hard error under strict rules *)
  Alcotest.(check int) "certain deadlock is an error" 1
    (List.length (Conc_check.errors diags))

let test_chan_fan () =
  let src =
    {|
    chan int c;
    int f(int n) {
      par {
        { send(c, n); }
        { int a = recv(c); a = a + 1; }
        { int b = recv(c); b = b + 1; }
      }
      return n;
    }
    |}
  in
  let diags = check src in
  Alcotest.(check bool) "fan is reported" true
    (count_kind (function Conc_check.Chan_fan _ -> true | _ -> false) diags > 0)

let test_chan_self_deadlock () =
  let src =
    {|
    chan int c;
    int f(int n) {
      par {
        { send(c, n); int x = recv(c); x = x + 1; }
        { int y = n; y = y + 1; }
      }
      return n;
    }
    |}
  in
  let diags = check src in
  Alcotest.(check bool) "self-communication is reported" true
    (count_kind (function Conc_check.Chan_self _ -> true | _ -> false) diags > 0)

let test_metric_counters () =
  let counters = Conc_check.metric_counters (check racy_src) in
  Alcotest.(check int) "all six counters present" 6 (List.length counters);
  Alcotest.(check int) "ww count" 1 (List.assoc "races.write_write" counters);
  Alcotest.(check int) "rw count" 2 (List.assoc "races.read_write" counters);
  Alcotest.(check int) "no channel hazards" 0
    (List.assoc "chan.unmatched_send" counters)

let test_pipeline_pass_rejects () =
  (* the checker runs as a declared pass in the Handel-C pipeline: a racy
     program must not reach the statement machine *)
  let program = Typecheck.parse_and_check racy_src in
  match Handelc.compile program ~entry:"f" with
  | _ -> Alcotest.fail "expected Check_failed from the pipeline pass"
  | exception Conc_check.Check_failed diags ->
    Alcotest.(check bool) "the pass reports the ww race" true
      (List.exists (fun d -> is_ww d.Conc_check.d_kind) diags)

(* --- crash-path regressions --- *)

let test_negative_global_array_diagnosed () =
  (* used to sail through typecheck and crash in storage allocation *)
  match Typecheck.parse_and_check "int g[-3]; int f(int n) { return n; }" with
  | _ -> Alcotest.fail "expected a type error for int g[-3]"
  | exception Typecheck.Error (msg, _) ->
    Alcotest.(check bool) "message names the size" true
      (contains ~affix:"-3" msg)

let test_lower_error_carries_location () =
  let program =
    Typecheck.parse_and_check
      "int g;\nint f(int n) {\n  par { { g = n; } { int x = n; x = x + 1; } }\n  return g;\n}"
  in
  match Lower.lower_program program ~entry:"f" with
  | _ -> Alcotest.fail "expected lowering to reject par"
  | exception Lower.Error (msg, loc) ->
    Alcotest.(check bool) "message mentions par" true
      (contains ~affix:"par" msg);
    Alcotest.(check int) "location is the par statement line" 3
      loc.Ast.line

let test_c2verilog_channel_rejection () =
  (* sequential recv slips past the dialect gate (which only rejects par
     here), so the stack-machine compiler itself must refuse it with a
     descriptive error, not a crash *)
  let program =
    Typecheck.parse_and_check
      {|
      chan int c;
      int f(int n) {
        int v = recv(c);
        return v + n;
      }
      |}
  in
  match C2verilog.compile_program program ~entry:"f" with
  | _ -> Alcotest.fail "expected C2Verilog to reject channels"
  | exception C2verilog.Compile_error msg ->
    Alcotest.(check bool) "descriptive, not a crash" true
      (contains ~affix:"channel" msg)

let test_logical_ops_on_guarded_backends () =
  (* the backends whose assert-false crashes became descriptive errors
     must still take every logical-operator shape down the guarded
     dispatch: datapath, condition, and mixed positions *)
  let src =
    "int f(int a, int b) { int r = (a && b) || !a; if (!(a || b)) { r = r + 2; } return r; }"
  in
  let program = Typecheck.parse_and_check src in
  List.iter
    (fun (a, b) ->
      let expected = Interp.run_int src ~entry:"f" ~args:[ a; b ] in
      let cones = Design.run_int (Cones.compile program ~entry:"f") [ a; b ] in
      let c2v =
        Design.run_int (C2v_backend.compile program ~entry:"f") [ a; b ]
      in
      Alcotest.(check (option int)) "cones" (Some expected) cones;
      Alcotest.(check (option int)) "c2verilog" (Some expected) c2v)
    [ (0, 0); (0, 1); (1, 0); (3, 5) ]

let suite =
  ( "conc-check",
    [ Alcotest.test_case "clean pipeline program" `Quick test_clean_pipeline;
      Alcotest.test_case "write/write race (handelc)" `Quick
        test_ww_race_handelc;
      Alcotest.test_case "severity per dialect" `Quick
        test_severity_per_dialect;
      Alcotest.test_case "arm-private state ok" `Quick
        test_arm_private_state_ok;
      Alcotest.test_case "whole-array race" `Quick test_array_race;
      Alcotest.test_case "pointer-parameter aliasing" `Quick
        test_pointer_param_aliasing;
      Alcotest.test_case "races through calls" `Quick test_call_effects;
      Alcotest.test_case "nested par" `Quick test_nested_par;
      Alcotest.test_case "outer locals and parameters are shared" `Quick
        test_outer_locals_shared;
      Alcotest.test_case "a pointer reaches only addressable locals" `Quick
        test_pointer_reaches_addressable;
      Alcotest.test_case "unmatched send" `Quick test_chan_unmatched_send;
      Alcotest.test_case "channel fan-in/out" `Quick test_chan_fan;
      Alcotest.test_case "self-communication deadlock" `Quick
        test_chan_self_deadlock;
      Alcotest.test_case "metric counters" `Quick test_metric_counters;
      Alcotest.test_case "pipeline pass rejects racy program" `Quick
        test_pipeline_pass_rejects;
      Alcotest.test_case "negative global array size" `Quick
        test_negative_global_array_diagnosed;
      Alcotest.test_case "lower errors carry locations" `Quick
        test_lower_error_carries_location;
      Alcotest.test_case "c2verilog rejects channels descriptively" `Quick
        test_c2verilog_channel_rejection;
      Alcotest.test_case "logical ops on guarded backends" `Quick
        test_logical_ops_on_guarded_backends ] )
