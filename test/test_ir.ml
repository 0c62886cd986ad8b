(* IR layer tests: lowering correctness (AST interp == CIR interp == SSA
   on Asim), CFG/dominators, SSA invariants, dependence graphs, bitwidth
   inference, pointer analysis, loop transformations. *)

let lower_entry src ~entry =
  let program = Typecheck.parse_and_check src in
  (Lower.lower_program program ~entry).Lower.func

(* Workloads used for equivalence testing; each pairs a source with the
   entry name and a few argument vectors. *)
let equivalence_workloads =
  [ ( "gcd",
      "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }",
      "gcd", [ [ 54; 24 ]; [ 7; 13 ]; [ 0; 5 ]; [ 270; 192 ] ] );
    ( "fib",
      "int fib(int n) { int a = 0; int b = 1; for (int i = 0; i < n; i = i + 1) { int t = a + b; a = b; b = t; } return a; }",
      "fib", [ [ 0 ]; [ 1 ]; [ 10 ]; [ 20 ] ] );
    ( "fir",
      {|
      int coeff[4] = {1, 2, 3, 4};
      int fir(int x0, int x1, int x2, int x3) {
        int window[4];
        window[0] = x0; window[1] = x1; window[2] = x2; window[3] = x3;
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) { acc = acc + coeff[i] * window[i]; }
        return acc;
      }
      |},
      "fir", [ [ 1; 2; 3; 4 ]; [ 0; 0; 0; 0 ]; [ 9; -3; 7; 5 ] ] );
    ( "inlined helpers",
      {|
      int square(int x) { return x * x; }
      int cube(int x) { return square(x) * x; }
      int f(int a, int b) { return cube(a) + square(b); }
      |},
      "f", [ [ 2; 3 ]; [ 5; 1 ]; [ -2; 4 ] ] );
    ( "short circuit with side effects",
      {|
      int g;
      int bump(int v) { g = g + v; return v; }
      int f(int a) {
        int r = (a > 0 && bump(a) > 2) ? 10 : 20;
        return r + g;
      }
      |},
      "f", [ [ 0 ]; [ 1 ]; [ 5 ] ] );
    ( "nested loops + break/continue",
      {|
      int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i = i + 1) {
          if (i == 7) { break; }
          for (int j = 0; j < i; j = j + 1) {
            if (j % 2 == 0) { continue; }
            s = s + i * j;
          }
        }
        return s;
      }
      |},
      "f", [ [ 0 ]; [ 5 ]; [ 12 ] ] );
    ( "global state machine",
      {|
      int state = 0;
      int hist[8];
      int stepfn(int input) {
        hist[state % 8] = input;
        if (input > 10) { state = state + 2; } else { state = state + 1; }
        return state;
      }
      int f(int a, int b) { stepfn(a); stepfn(b); return state + hist[1]; }
      |},
      "f", [ [ 1; 2 ]; [ 11; 3 ]; [ 20; 30 ] ] ) ]

let interp_result src ~entry ~args =
  Interp.run_int src ~entry ~args

let cir_result func ~args =
  let outcome =
    Cir_interp.run func ~args:(List.map (Bitvec.of_int ~width:64) args)
  in
  Bitvec.to_int (Option.get outcome.Cir_interp.return_value)

let test_lowering_equivalence () =
  List.iter
    (fun (name, src, entry, arg_sets) ->
      let func = lower_entry src ~entry in
      List.iter
        (fun args ->
          let expected = interp_result src ~entry ~args in
          let got = cir_result func ~args in
          Alcotest.(check int)
            (Printf.sprintf "%s%s" name
               (String.concat "," (List.map string_of_int args)))
            expected got)
        arg_sets)
    equivalence_workloads

(* The SSA form runs on Asim, the one evaluator that applies its phis;
   the simplified function's entry block is a loop header for gcd, so its
   entry phis read the parameters on the call edge. *)
let test_ssa_equivalence () =
  List.iter
    (fun (name, src, entry, arg_sets) ->
      let func = lower_entry src ~entry in
      List.iter
        (fun (form, func) ->
          let ssa = Ssa.of_func func in
          Alcotest.(check (list int))
            (name ^ " " ^ form ^ " ssa verifies") [] (Ssa.verify ssa);
          List.iter
            (fun args ->
              let expected = interp_result src ~entry ~args in
              let got =
                Asim.run ~max_tokens:1_000_000 ssa
                  ~args:(List.map (Bitvec.of_int ~width:64) args)
              in
              Alcotest.(check (option int))
                (name ^ " " ^ form ^ " ssa run")
                (Some expected)
                (Option.map Bitvec.to_int got.Asim.return_value))
            arg_sets)
        [ ("lowered", func); ("simplified", fst (Simplify.simplify func)) ])
    equivalence_workloads

let test_cfg_dominators () =
  let func =
    lower_entry
      "int f(int n) { int s = 0; while (n > 0) { if (n % 2 == 0) { s = s + 1; } n = n - 1; } return s; }"
      ~entry:"f"
  in
  let cfg = Cfg.build func in
  (* entry dominates everything reachable *)
  for b = 0 to Cir.num_blocks func - 1 do
    if Cfg.reachable cfg b then
      Alcotest.(check bool)
        (Printf.sprintf "entry dominates B%d" b)
        true
        (Cfg.dominates cfg func.Cir.fn_entry b)
  done;
  let loops = Cfg.natural_loops cfg in
  Alcotest.(check int) "one natural loop" 1 (List.length loops);
  let loop = List.hd loops in
  Alcotest.(check bool) "header in body" true
    (List.mem loop.Cfg.header loop.Cfg.body);
  Alcotest.(check bool) "latch in body" true
    (List.mem loop.Cfg.latch loop.Cfg.body)

let test_dep_graph () =
  let func =
    lower_entry
      {|
      int mem[4];
      int f(int a, int b) {
        int x = a + b;
        int y = a - b;
        int z = x * y;
        mem[0] = z;
        int w = mem[1];
        return z + w;
      }
      |}
      ~entry:"f"
  in
  (* collect all instructions of the function body in order *)
  let instrs =
    Array.to_list func.Cir.fn_blocks
    |> List.concat_map (fun blk -> blk.Cir.instrs)
  in
  let g = Dep.of_instrs instrs in
  Alcotest.(check bool) "has edges" true (List.length g.Dep.edges > 0);
  (* every RAW edge goes forward *)
  List.iter
    (fun e -> Alcotest.(check bool) "edges go forward" true (e.Dep.src < e.Dep.dst))
    g.Dep.edges;
  let cp = Dep.critical_path g in
  Alcotest.(check bool) "critical path between 3 and length" true
    (cp >= 3 && cp <= List.length instrs);
  (* renaming can only shorten or keep the critical path *)
  let g' = Dep.of_instrs_renamed instrs in
  Alcotest.(check bool) "renamed critical path <= original" true
    (Dep.critical_path g' <= cp)

let test_store_load_ordering () =
  let func =
    lower_entry
      {|
      int mem[4];
      int f(int a) {
        mem[0] = a;
        int x = mem[0];
        mem[0] = x + 1;
        return mem[0];
      }
      |}
      ~entry:"f"
  in
  let instrs =
    Array.to_list func.Cir.fn_blocks
    |> List.concat_map (fun blk -> blk.Cir.instrs)
  in
  let g = Dep.of_instrs instrs in
  let mem_edges = List.filter (fun e -> e.Dep.kind = Dep.Mem) g.Dep.edges in
  Alcotest.(check bool) "store/load ordering edges exist" true
    (List.length mem_edges >= 3)

let test_bitwidth () =
  let func =
    lower_entry
      {|
      int f(int selector) {
        int flag = selector > 3;          /* needs 1 bit */
        int nibble = selector & 15;       /* needs 4 bits */
        int sum = nibble + nibble;        /* needs 5 bits */
        return flag + sum;
      }
      |}
      ~entry:"f"
  in
  let r = Bitwidth.infer func in
  (* all inferred widths are within declared widths *)
  Array.iteri
    (fun i w ->
      Alcotest.(check bool) "within declared" true (w <= r.Bitwidth.declared.(i)))
    r.Bitwidth.widths;
  (* narrowed area must not exceed declared area *)
  let declared_area = Bitwidth.datapath_area func ~widths:r.Bitwidth.declared in
  let narrowed_area = Bitwidth.datapath_area func ~widths:r.Bitwidth.widths in
  Alcotest.(check bool) "narrowing reduces datapath area" true
    (narrowed_area < declared_area)

let test_bitwidth_soundness_loop () =
  (* an accumulator in a loop must keep enough bits *)
  let src =
    "int f(void) { int s = 0; for (int i = 0; i < 100; i = i + 1) { s = s + 100; } return s; }"
  in
  let func = lower_entry src ~entry:"f" in
  let r = Bitwidth.infer func in
  (* result is 10000, needs 14 bits; find the return operand's register *)
  let ret_reg =
    Array.to_list func.Cir.fn_blocks
    |> List.find_map (fun blk ->
           match blk.Cir.term with
           | Cir.T_return (Some (Cir.O_reg r)) -> Some r
           | _ -> None)
  in
  match ret_reg with
  | Some reg ->
    Alcotest.(check bool) "return register keeps >= 14 bits" true
      (r.Bitwidth.widths.(reg) >= 14)
  | None -> Alcotest.fail "no returning block found"

let test_pointer_analysis () =
  let program =
    Typecheck.parse_and_check
      {|
      int buf_a[8];
      int buf_b[8];
      void fill(int* dst, int v) { dst[0] = v; }
      int f(int which) {
        int* p = buf_a;
        int* q = buf_b;
        fill(p, 1);
        fill(q, 2);
        return buf_a[0] + buf_b[0];
      }
      |}
  in
  let r = Pointer.analyze program in
  Alcotest.(check (list string)) "p points to buf_a" [ "::buf_a" ]
    (Pointer.points_to r "f::p");
  Alcotest.(check (list string)) "q points to buf_b" [ "::buf_b" ]
    (Pointer.points_to r "f::q");
  Alcotest.(check bool) "p and q do not alias" false
    (Pointer.may_alias r "f::p" "f::q");
  (* fill's dst sees both *)
  Alcotest.(check bool) "dst may alias p" true
    (Pointer.may_alias r "fill::dst" "f::p");
  Alcotest.(check bool) "not fully partitionable (dst has 2 targets)" false
    (Pointer.fully_partitionable r)

let test_pointer_partitionable () =
  let program =
    Typecheck.parse_and_check
      {|
      int buf[8];
      int f(void) {
        int* p = buf;
        p[0] = 1;
        return p[0];
      }
      |}
  in
  let r = Pointer.analyze program in
  Alcotest.(check bool) "single-target pointers partition" true
    (Pointer.fully_partitionable r)

let test_unroll_equivalence () =
  let src =
    {|
    int coeff[4] = {1, 2, 3, 4};
    int f(int x) {
      int acc = x;
      for (int i = 0; i < 4; i = i + 1) { acc = acc + coeff[i] * i; }
      return acc;
    }
    |}
  in
  let program = Typecheck.parse_and_check src in
  let unrolled = Loopopt.unroll_all_program program in
  (* no For loops remain *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "no for loops remain" false
        (Ast.exists_stmt
           (fun st ->
             match st.Ast.s with
             | Ast.For _ -> true
             | _ -> false)
           f))
    unrolled.Ast.funcs;
  List.iter
    (fun x ->
      let expected = Interp.run_int src ~entry:"f" ~args:[ x ] in
      let outcome =
        Interp.run unrolled ~entry:"f" ~args:[ Bitvec.of_int ~width:64 x ]
      in
      Alcotest.(check int) "unrolled equivalence" expected
        (Bitvec.to_int (Option.get outcome.Interp.return_value)))
    [ 0; 5; -3 ]

let test_partial_unroll_equivalence () =
  let src =
    {|
    int f(int x) {
      int acc = x;
      for (int i = 0; i < 8; i = i + 1) { acc = acc + i * i; }
      return acc;
    }
    |}
  in
  let program = Typecheck.parse_and_check src in
  let transform (f : Ast.func) =
    let body =
      List.map
        (fun st ->
          match st.Ast.s with
          | Ast.For (init, cond, step, body) ->
            Loopopt.partially_unroll_for ~factor:2 ~init ~cond ~step ~body
          | _ -> st)
        f.Ast.f_body
    in
    { f with Ast.f_body = body }
  in
  let program' =
    { program with Ast.funcs = List.map transform program.Ast.funcs }
  in
  List.iter
    (fun x ->
      let expected = Interp.run_int src ~entry:"f" ~args:[ x ] in
      let outcome =
        Interp.run program' ~entry:"f" ~args:[ Bitvec.of_int ~width:64 x ]
      in
      Alcotest.(check int) "partial unroll equivalence" expected
        (Bitvec.to_int (Option.get outcome.Interp.return_value)))
    [ 0; 4; 9 ]

let test_fusion_equivalence () =
  let src =
    {|
    int f(int a, int b) {
      int t = a + b;
      int u = t * 3;
      int v = u - a;
      return v;
    }
    |}
  in
  let program = Typecheck.parse_and_check src in
  let fused = Loopopt.fuse_program program in
  (* fused version has fewer statements *)
  let count_stmts (p : Ast.program) =
    let n = ref 0 in
    List.iter
      (fun f -> Ast.iter_func ~stmt:(fun _ -> incr n) ~expr:(fun _ -> ()) f)
      p.Ast.funcs;
    !n
  in
  Alcotest.(check bool) "fusion removes statements" true
    (count_stmts fused < count_stmts program);
  List.iter
    (fun (a, b) ->
      let expected = Interp.run_int src ~entry:"f" ~args:[ a; b ] in
      let outcome =
        Interp.run fused ~entry:"f"
          ~args:[ Bitvec.of_int ~width:64 a; Bitvec.of_int ~width:64 b ]
      in
      Alcotest.(check int) "fusion equivalence" expected
        (Bitvec.to_int (Option.get outcome.Interp.return_value)))
    [ (1, 2); (10, -5) ]

let test_fusion_soundness () =
  (* the classic swap: t = a+b; a = b; b = t — fusing t would change the
     meaning because a is reassigned between definition and use *)
  let src =
    "int f(int a, int b) { int t = a + b; a = b; b = t; return a * 1000 + b; }"
  in
  let program = Typecheck.parse_and_check src in
  let fused = Loopopt.fuse_program program in
  List.iter
    (fun (a, b) ->
      let expected = Interp.run_int src ~entry:"f" ~args:[ a; b ] in
      let outcome =
        Interp.run fused ~entry:"f"
          ~args:[ Bitvec.of_int ~width:64 a; Bitvec.of_int ~width:64 b ]
      in
      Alcotest.(check int) "swap pattern untouched by fusion" expected
        (Bitvec.to_int (Option.get outcome.Interp.return_value)))
    [ (3, 4); (10, -7) ];
  (* and fusion preserves every built-in workload *)
  List.iter
    (fun (w : Workloads.t) ->
      let fused = Loopopt.fuse_program (Workloads.parse w) in
      List.iter
        (fun args ->
          let expected = Workloads.reference w args in
          let outcome =
            Interp.run fused ~entry:w.Workloads.entry
              ~args:(List.map (Bitvec.of_int ~width:64) args)
          in
          Alcotest.(check int)
            ("fusion preserves " ^ w.Workloads.name)
            expected
            (Bitvec.to_int (Option.get outcome.Interp.return_value)))
        w.Workloads.arg_sets)
    Workloads.sequential

let test_recursion_rejected () =
  let src = "int f(int n) { if (n <= 0) { return 0; } return f(n - 1) + 1; }" in
  let program = Typecheck.parse_and_check src in
  match Lower.lower_program program ~entry:"f" with
  | exception Lower.Error _ -> ()
  | _ -> Alcotest.fail "expected lowering to reject recursion"

(* qcheck: random arithmetic expressions lower correctly *)
let prop_lower_random_arith =
  QCheck.Test.make ~name:"lowering preserves random arithmetic" ~count:150
    QCheck.(triple (int_range (-100) 100) (int_range (-100) 100) (int_range 1 30))
    (fun (a, b, c) ->
      let src =
        "int f(int a, int b, int c) { int t = (a * b + c) ^ (a >> 2); \
         return t % c + (a < b ? t : b - a); }"
      in
      let expected = Interp.run_int src ~entry:"f" ~args:[ a; b; c ] in
      let func = lower_entry src ~entry:"f" in
      cir_result func ~args:[ a; b; c ] = expected)

let suite =
  ( "ir",
    [ Alcotest.test_case "lowering equivalence" `Quick
        test_lowering_equivalence;
      Alcotest.test_case "ssa equivalence" `Quick test_ssa_equivalence;
      Alcotest.test_case "cfg dominators and loops" `Quick test_cfg_dominators;
      Alcotest.test_case "dependence graph" `Quick test_dep_graph;
      Alcotest.test_case "store/load ordering" `Quick test_store_load_ordering;
      Alcotest.test_case "bitwidth inference" `Quick test_bitwidth;
      Alcotest.test_case "bitwidth loop soundness" `Quick
        test_bitwidth_soundness_loop;
      Alcotest.test_case "pointer analysis" `Quick test_pointer_analysis;
      Alcotest.test_case "pointer partitionable" `Quick
        test_pointer_partitionable;
      Alcotest.test_case "full unroll equivalence" `Quick
        test_unroll_equivalence;
      Alcotest.test_case "partial unroll equivalence" `Quick
        test_partial_unroll_equivalence;
      Alcotest.test_case "assignment fusion equivalence" `Quick
        test_fusion_equivalence;
      Alcotest.test_case "fusion soundness (swap pattern)" `Quick
        test_fusion_soundness;
      Alcotest.test_case "recursion rejected by inliner" `Quick
        test_recursion_rejected;
      QCheck_alcotest.to_alcotest prop_lower_random_arith ] )
