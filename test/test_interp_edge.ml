(* Interpreter edge cases: channel protocols, nested par, pointer and
   malloc corners, error conditions — the parts of the software semantics
   the plain workload runs don't reach. *)

let run_int = Interp.run_int

let test_multiple_channels_interleave () =
  Alcotest.(check int) "two channels, strict alternation" 1234
    (run_int
       {|
       chan int even;
       chan int odd;
       int f(void) {
         int result = 0;
         par {
           { send(even, 1); send(even, 3); }
           { send(odd, 2); send(odd, 4); }
           {
             int a = recv(even);
             int b = recv(odd);
             int c = recv(even);
             int d = recv(odd);
             result = a * 1000 + b * 100 + c * 10 + d;
           }
         }
         return result;
       }
       |}
       ~entry:"f" ~args:[])

let test_nested_par () =
  Alcotest.(check int) "par inside par joins correctly" 15
    (run_int
       {|
       int f(void) {
         int a = 0;
         int b = 0;
         int c = 0;
         int d = 0;
         par {
           {
             par {
               { a = 1; }
               { b = 2; }
             }
           }
           {
             par {
               { c = 4; }
               { d = 8; }
             }
           }
         }
         return a + b + c + d;
       }
       |}
       ~entry:"f" ~args:[])

let test_par_sequencing () =
  (* statements after par see all branch effects *)
  Alcotest.(check int) "join is a barrier" 30
    (run_int
       {|
       int f(void) {
         int x = 0;
         par {
           { x = x + 10; }
         }
         par {
           { x = x + 20; }
         }
         return x;
       }
       |}
       ~entry:"f" ~args:[])

let test_send_before_recv_and_reverse () =
  (* rendezvous works regardless of which side arrives first *)
  let src ready_first =
    Printf.sprintf
      {|
      chan int c;
      int f(void) {
        int got = 0;
        par {
          { %s send(c, 99); }
          { %s got = recv(c); }
        }
        return got;
      }
      |}
      (if ready_first then "" else "delay; delay;")
      (if ready_first then "delay; delay;" else "")
  in
  Alcotest.(check int) "sender first" 99
    (run_int (src true) ~entry:"f" ~args:[]);
  Alcotest.(check int) "receiver first" 99
    (run_int (src false) ~entry:"f" ~args:[])

let test_channel_in_loop () =
  Alcotest.(check int) "stream of 10 values" 45
    (run_int
       {|
       chan int c;
       int f(void) {
         int sum = 0;
         par {
           { for (int i = 0; i < 10; i = i + 1) { send(c, i); } }
           { for (int i = 0; i < 10; i = i + 1) { int v = recv(c); sum = sum + v; } }
         }
         return sum;
       }
       |}
       ~entry:"f" ~args:[])

let test_malloc_isolation () =
  (* two allocations do not overlap; heap survives function return *)
  Alcotest.(check int) "separate blocks" 1059
    (run_int
       {|
       int* make(int v) {
         int* p = malloc(3);
         p[0] = v;
         p[1] = v * 2;
         p[2] = v * 3;
         return p;
       }
       int f(void) {
         int* a = make(100);
         int* b = make(23);
         return a[0] + a[1] + b[0] + b[1] + b[2] * 10;
       }
       |}
       ~entry:"f" ~args:[])

let test_pointer_comparisons () =
  Alcotest.(check int) "pointer difference" 3
    (run_int
       {|
       int buf[8];
       int f(void) {
         int* p = buf;
         int* q = &buf[3];
         return q - p;
       }
       |}
       ~entry:"f" ~args:[])

let test_pointer_into_argument () =
  Alcotest.(check int) "writing through an & argument" 7
    (run_int
       {|
       void set7(int* out) { *out = 7; }
       int f(void) { int x = 0; set7(&x); return x; }
       |}
       ~entry:"f" ~args:[])

let expect_runtime_error src =
  let program = Typecheck.parse_and_check src in
  match Interp.run program ~entry:"f" ~args:[] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail ("expected a runtime error for: " ^ src)

let test_runtime_errors () =
  (* wild pointer *)
  expect_runtime_error
    "int f(void) { int* p = (int*)99999; return *p; }";
  (* out-of-bounds array write (the strict software semantics catches it,
     unlike the total hardware semantics) *)
  expect_runtime_error
    "int buf[4];\nint f(void) { buf[100] = 1; return 0; }";
  (* recv nested in a larger expression is a documented restriction *)
  expect_runtime_error
    "chan int c;\nint f(void) { int x = 1 + recv(c); return x; }";
  (* a pointer to a closed block's local: the block's word is free *)
  expect_runtime_error
    "int f(void) { int* p = (int*)0; { int x = 5; p = &x; } return *p; }"

let test_step_counting () =
  (* the work metric grows with iterations — the untimed model's only
     notion of cost *)
  let steps n =
    let program =
      Typecheck.parse_and_check
        "int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
    in
    (Interp.run program ~entry:"f" ~args:[ Bitvec.of_int ~width:64 n ])
      .Interp.steps
  in
  Alcotest.(check bool) "steps grow linearly" true
    (steps 100 > steps 10 && steps 10 > steps 1)

let test_void_functions () =
  Alcotest.(check int) "void call as statement" 12
    (run_int
       {|
       int acc = 0;
       void bump(int v) { acc = acc + v; }
       int f(void) { bump(4); bump(8); return acc; }
       |}
       ~entry:"f" ~args:[])

let test_early_return_in_loop () =
  Alcotest.(check int) "return exits everything" 5
    (run_int
       {|
       int f(int n) {
         for (int i = 0; i < 100; i = i + 1) {
           if (i == n) { return i; }
         }
         return -1;
       }
       |}
       ~entry:"f" ~args:[ 5 ])

let test_deep_expression_nesting () =
  (* deep but not pathological: exercises parser recursion and interp *)
  let expr = String.concat "" (List.init 200 (fun _ -> "(1 + ")) in
  let close = String.concat "" (List.init 200 (fun _ -> ")")) in
  Alcotest.(check int) "200-deep nesting" 201
    (run_int
       (Printf.sprintf "int f(void) { return %s1%s; }" expr close)
       ~entry:"f" ~args:[])

let test_short_circuit_internal_error () =
  (* The scalar binop evaluator must never see && / || — the resolver
     gives them nodes of their own first.  If a lowering change lets one
     through, the process used to die on [assert false]; now it raises a
     located Internal_error the CLI renders as a file:line:col
     diagnostic. *)
  let loc = { Ast.line = 42; col = 7 } in
  let one = Bitvec.of_int ~width:32 1 in
  List.iter
    (fun op ->
      match Interp.scalar_binop op ~signed:true loc one one with
      | _ -> Alcotest.fail "short-circuit op reached the scalar evaluator"
      | exception Interp.Internal_error (msg, eloc) ->
        Alcotest.(check bool) "diagnostic names the operator" true
          (String.length msg > 0);
        Alcotest.(check int) "location line survives" 42 eloc.Ast.line;
        Alcotest.(check int) "location column survives" 7 eloc.Ast.col)
    [ Ast.Log_and; Ast.Log_or ]

let suite =
  ( "interp-edge",
    [ Alcotest.test_case "multiple channels" `Quick
        test_multiple_channels_interleave;
      Alcotest.test_case "nested par" `Quick test_nested_par;
      Alcotest.test_case "par is a barrier" `Quick test_par_sequencing;
      Alcotest.test_case "rendezvous both orders" `Quick
        test_send_before_recv_and_reverse;
      Alcotest.test_case "channel in loop" `Quick test_channel_in_loop;
      Alcotest.test_case "malloc isolation" `Quick test_malloc_isolation;
      Alcotest.test_case "pointer comparisons" `Quick
        test_pointer_comparisons;
      Alcotest.test_case "pointer into argument" `Quick
        test_pointer_into_argument;
      Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
      Alcotest.test_case "step counting" `Quick test_step_counting;
      Alcotest.test_case "void functions" `Quick test_void_functions;
      Alcotest.test_case "early return in loop" `Quick
        test_early_return_in_loop;
      Alcotest.test_case "deep expression nesting" `Quick
        test_deep_expression_nesting;
      Alcotest.test_case "short-circuit ops raise Internal_error" `Quick
        test_short_circuit_internal_error ] )
