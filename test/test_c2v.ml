(* C2Verilog stack-machine specifics: code generation, the processor's
   Verilog view, the runtime stack under recursion, the heap, and failure
   modes. *)

let compile src = C2verilog.compile_program (Typecheck.parse_and_check src)

let design src ~entry =
  C2v_backend.compile (Typecheck.parse_and_check src) ~entry

let test_codegen_shape () =
  let compiled = compile "int f(int a) { return a + 1; }" ~entry:"f" in
  Alcotest.(check bool) "has code" true
    (Array.length compiled.C2verilog.code > 0);
  (* first instruction of a function is its frame setup *)
  (match compiled.C2verilog.code.(compiled.C2verilog.entry_pc) with
  | C2verilog.Enter _ -> ()
  | _ -> Alcotest.fail "entry must start with Enter");
  (* exactly one Ret per straight-line function body (plus the implicit
     fallback) *)
  let rets =
    Array.to_list compiled.C2verilog.code
    |> List.filter (fun i ->
           match i with C2verilog.Ret _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "explicit + implicit return" 2 rets

let test_comparison_normalization () =
  (* Gt/Ge are compiled as swapped Lt/Le; verify the semantics held *)
  let d =
    design "int f(int a, int b) { return (a > b) * 10 + (a >= b); }"
      ~entry:"f"
  in
  Alcotest.(check (option int)) "gt/ge" (Some 11) (Design.run_int d [ 5; 3 ]);
  Alcotest.(check (option int)) "eq case" (Some 1) (Design.run_int d [ 3; 3 ]);
  Alcotest.(check (option int)) "lt case" (Some 0) (Design.run_int d [ 2; 3 ])

let test_deep_recursion_stack () =
  let d =
    design "int sum(int n) { if (n <= 0) { return 0; } return n + sum(n - 1); }"
      ~entry:"sum"
  in
  Alcotest.(check (option int)) "recursion depth 500" (Some 125250)
    (Design.run_int d [ 500 ])

let test_stack_overflow_detected () =
  let d =
    design "int loop(int n) { return loop(n + 1); }" ~entry:"loop"
  in
  (* both engines raise the machine's fault as a typed stop *)
  List.iter
    (fun sim ->
      match d.Design.run ~sim (Design.int_args [ 0 ]) with
      | exception
          Design.Stopped { Design.reason = Design.Fault "stack overflow"; _ }
        -> ()
      | exception Design.Stopped s -> Alcotest.fail (Design.render_stop s)
      | _ -> Alcotest.fail "unbounded recursion must fail")
    [ Design.Compiled; Design.Event_driven ]

let test_heap_and_stack_disjoint () =
  let d =
    design
      {|
      int f(int n) {
        int* block = malloc(4);
        block[0] = 11;
        int local = 22;
        block[1] = 33;
        return block[0] + local + block[1] + n;
      }
      |}
      ~entry:"f"
  in
  Alcotest.(check (option int)) "heap/stack independent" (Some 67)
    (Design.run_int d [ 1 ])

let test_cycle_rules () =
  (* memory-heavy code costs more cycles per instruction than ALU code *)
  let alu = design "int f(int a) { return ((a + 1) * 3) ^ (a - 2); }" ~entry:"f" in
  let ra = alu.Design.run (Design.int_args [ 5 ]) in
  Alcotest.(check bool) "cycles exceed instruction count" true
    (Option.get ra.Design.cycles > 5);
  (* division is charged heavily *)
  let div = design "int f(int a) { return a / 3; }" ~entry:"f" in
  let add = design "int f(int a) { return a + 3; }" ~entry:"f" in
  let c d = Option.get (d.Design.run (Design.int_args [ 9 ])).Design.cycles in
  Alcotest.(check bool) "div costs more than add" true (c div > c add)

let test_verilog_view () =
  let d = design "int f(int a) { return a * 2 + 1; }" ~entry:"f" in
  match d.Design.verilog () with
  | None -> Alcotest.fail "c2verilog must emit its processor"
  | Some v ->
    let contains needle =
      let n = String.length needle in
      let rec go i =
        i + n <= String.length v && (String.sub v i n = needle || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("verilog contains " ^ needle) true
          (contains needle))
      [ "module f("; "reg [71:0] rom"; "function [63:0] alu";
        "output reg done"; "endmodule"; "enter"; "ret" ];
    (* every instruction appears in the ROM init *)
    let compiled = compile "int f(int a) { return a * 2 + 1; }" ~entry:"f" in
    Alcotest.(check bool) "all ROM words initialized" true
      (contains
         (Printf.sprintf "rom[%d]" (Array.length compiled.C2verilog.code - 1)))

let test_globals_initialized_in_memory_image () =
  let compiled =
    compile "int table[4] = {5, 6, 7, 8};\nint f(void) { return table[2]; }"
      ~entry:"f"
  in
  Alcotest.(check int) "four initialized words" 4
    (List.length compiled.C2verilog.initial_memory);
  let d =
    design "int table[4] = {5, 6, 7, 8};\nint f(void) { return table[2]; }"
      ~entry:"f"
  in
  Alcotest.(check (option int)) "reads the image" (Some 7)
    (Design.run_int d [])

(* Programs beside the corpus, each with the engine its runs report.
   Wild pointers load or store anywhere in (or outside) the unified
   memory, including the running frame's own saved registers; 64-bit
   arithmetic is beyond the int engine, so that design runs on the
   oracle as a whole. *)
let extra_programs =
  [ ("peek", "int peek(int *p) { return *p; }", [ [ 0 ]; [ -5 ] ], "compiled");
    ( "poke",
      "int g[4];\n\
       int poke(int *p, int v) { *p = v; int *q = malloc(2); q[1] = v; \
       return p[1] + g[v & 3] + q[0]; }",
      [ [ 0; 7 ]; [ 40000; 3 ] ],
      "compiled" );
    ( "wide",
      "long wide(long a, long b) { return a * b + (a >> 3); }",
      [ [ 1 lsl 40; 3 ] ],
      "event" ) ]

(* The two C2Verilog engines agree run for run: every kernel C2Verilog
   accepts and the programs above, on their corpus vectors plus
   seeded random ones.  Wild values among the random arguments make some
   runs fault (a stack overflow, an exhausted heap, an access outside
   memory), so the faults are compared as well.  Runs share one design,
   so each also checks that the engine restored what the last one
   dirtied.  A random vector the oracle cannot finish within two million
   cycles is left out: under the designs' own budget it costs seconds. *)
let test_engines_agree () =
  let rng = Random.State.make [| 2026 |] in
  let random_arg () =
    match Random.State.int rng 3 with
    | 0 -> Random.State.int rng 33 - 16
    | 1 -> Random.State.int rng 2001 - 1000
    | _ ->
      let v = (1 lsl (8 + Random.State.int rng 32)) + Random.State.int rng 64 in
      if Random.State.bool rng then v else -v
  in
  let programs =
    List.filter_map
      (fun (w : Workloads.t) ->
        let program = Workloads.parse w in
        if Dialect.check Dialect.c2verilog program = [] then
          Some
            ( w.Workloads.name,
              program,
              w.Workloads.entry,
              w.Workloads.arg_sets,
              "compiled" )
        else None)
      Workloads.all
    @ List.map
        (fun (entry, source, vectors, engine) ->
          (entry, Typecheck.parse_and_check source, entry, vectors, engine))
        extra_programs
  in
  let checked = ref 0 and faults = ref 0 in
  List.iter
    (fun (name, program, entry, vectors, engine) ->
      let d = C2v_backend.compile program ~entry in
      let compiled, ret_width =
        match d.Design.artifact with
        | Design.Stack_machine { compiled; ret_width } -> (compiled, ret_width)
        | _ -> Alcotest.fail "c2verilog builds a stack machine"
      in
      let finishes args =
        match
          C2v_machine.run ~max_cycles:2_000_000 compiled ~ret_width ~args
        with
        | _ | (exception C2v_machine.Runtime_error _) -> true
        | exception C2v_machine.Timeout -> false
      in
      let arity = List.length (List.hd vectors) in
      let random =
        List.filter
          (fun v -> finishes (Design.int_args v))
          (List.init 60 (fun _ -> List.init arity (fun _ -> random_arg ())))
      in
      List.iter
        (fun v ->
          let label =
            Printf.sprintf "%s(%s)" name
              (String.concat "," (List.map string_of_int v))
          in
          Alcotest.(check (option (list string))) label
            (if engine = "compiled" then Some [] else None)
            (Driver.engine_mismatches d ~args:v);
          incr checked;
          match d.Design.run (Design.int_args v) with
          | r ->
            Alcotest.(check (option string)) (label ^ " engine")
              (Some (Printf.sprintf "%S" engine))
              (Option.map Metrics.render_compact
                 (Metrics.find r.Design.metrics "sim.engine"))
          | exception Design.Stopped { Design.reason = Design.Fault _; _ } ->
            incr faults
          | exception Design.Stopped _ -> ())
        (vectors @ random))
    programs;
  Alcotest.(check bool)
    (Printf.sprintf "%d vectors cross-checked" !checked)
    true (!checked > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "%d of them fault" !faults)
    true (!faults > 20)

let suite =
  ( "c2verilog",
    [ Alcotest.test_case "codegen shape" `Quick test_codegen_shape;
      Alcotest.test_case "comparison normalization" `Quick
        test_comparison_normalization;
      Alcotest.test_case "deep recursion stack" `Quick
        test_deep_recursion_stack;
      Alcotest.test_case "stack overflow detected" `Quick
        test_stack_overflow_detected;
      Alcotest.test_case "heap/stack disjoint" `Quick
        test_heap_and_stack_disjoint;
      Alcotest.test_case "cycle rules" `Quick test_cycle_rules;
      Alcotest.test_case "verilog view" `Quick test_verilog_view;
      Alcotest.test_case "global memory image" `Quick
        test_globals_initialized_in_memory_image;
      Alcotest.test_case "compiled engine agrees with the oracle" `Quick
        test_engines_agree ] )
