(* Frontend tests: lexer, parser, pretty round-trip, type checking,
   dialect restrictions. *)

let parse = Parser.parse_program
let check src = Typecheck.parse_and_check src

let test_lexer_basics () =
  let toks = Lexer.tokenize "int x = 0x1F + 'A';" in
  let kinds = List.map (fun (t : Lexer.tok) -> t.t) toks in
  Alcotest.(check int) "token count" 8 (List.length kinds);
  (match kinds with
  | [ KW "int"; ID "x"; ASSIGN; INT (31L, `Plain); PLUS; INT (65L, `Plain);
      SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected token stream");
  ()

let test_lexer_comments_and_suffixes () =
  let toks =
    Lexer.tokenize "/* block \n comment */ 42u // line\n 7l 3ul"
  in
  match List.map (fun (t : Lexer.tok) -> t.t) toks with
  | [ INT (42L, `Unsigned); INT (7L, `Long); INT (3L, `Unsigned_long); EOF ]
    -> ()
  | _ -> Alcotest.fail "suffixes/comments mishandled"

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  (match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.tline;
    Alcotest.(check int) "b line" 2 b.Lexer.tline;
    Alcotest.(check int) "b col" 3 b.Lexer.tcol
  | _ -> Alcotest.fail "expected two tokens");
  (* a literal too large for 64 bits is a lexer error at the literal *)
  match Lexer.tokenize "a +\n  99999999999999999999;" with
  | _ -> Alcotest.fail "an oversized literal lexed"
  | exception Lexer.Error (_, loc) ->
    Alcotest.(check (pair int int)) "literal position" (2, 3)
      (loc.Ast.line, loc.Ast.col)

let test_parse_simple_function () =
  let p = parse "int add(int a, int b) { return a + b; }" in
  Alcotest.(check int) "one function" 1 (List.length p.funcs);
  match p.funcs with
  | [ f ] ->
    Alcotest.(check string) "name" "add" f.f_name;
    Alcotest.(check int) "params" 2 (List.length f.f_params)
  | _ -> Alcotest.fail "expected one function"

let test_parse_precedence () =
  let e = Parser.parse_expression "1 + 2 * 3" in
  (match e.e with
  | Ast.Binop (Ast.Add, _, { e = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "precedence wrong for 1 + 2 * 3");
  let e = Parser.parse_expression "1 << 2 + 3" in
  (match e.e with
  | Ast.Binop (Ast.Shl, _, { e = Ast.Binop (Ast.Add, _, _); _ }) -> ()
  | _ -> Alcotest.fail "precedence wrong for 1 << 2 + 3");
  let e = Parser.parse_expression "a = b = 3" in
  match e.e with
  | Ast.Assign (_, { e = Ast.Assign (_, _); _ }) -> ()
  | _ -> Alcotest.fail "assignment should associate right"

let test_parse_compound_assign () =
  let e = Parser.parse_expression "x += 4" in
  match e.e with
  | Ast.Assign ({ e = Ast.Var "x"; _ }, { e = Ast.Binop (Ast.Add, _, _); _ })
    -> ()
  | _ -> Alcotest.fail "+= should desugar to x = x + 4"

let test_parse_hw_extensions () =
  let p =
    parse
      {|
      chan int c;
      void main(void) {
        par {
          { send(c, 1); }
          { int x = recv(c); }
        }
        delay;
        constrain(1, 3) { int y = 0; y = y + 1; }
      }
      |}
  in
  Alcotest.(check int) "one channel" 1 (List.length p.chans);
  match p.funcs with
  | [ f ] -> (
    match f.f_body with
    | [ { s = Ast.Par [ _; _ ]; _ }; { s = Ast.Delay; _ };
        { s = Ast.Constrain (1, 3, _); _ } ] -> ()
    | _ -> Alcotest.fail "hw extension statements not parsed as expected")
  | _ -> Alcotest.fail "expected one function"

let test_parse_globals () =
  let p = parse "int tab[4] = {1, 2, 3, 4};\nint scale = 7;\n" in
  Alcotest.(check int) "two globals" 2 (List.length p.globals);
  match p.globals with
  | [ tab; scale ] ->
    Alcotest.(check string) "tab" "tab" tab.g_name;
    (match tab.g_init with
    | Some [ 1L; 2L; 3L; 4L ] -> ()
    | _ -> Alcotest.fail "tab initializer wrong");
    Alcotest.(check string) "scale" "scale" scale.g_name
  | _ -> Alcotest.fail "globals parse"

let test_pretty_roundtrip () =
  let src =
    {|
    int tab[4] = {1, 2, 3, 4};
    int f(int n) {
      int acc = 0;
      for (int i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { acc = acc + tab[i % 4]; } else { acc = acc - 1; }
      }
      while (acc > 100) { acc = acc / 2; }
      return acc;
    }
    |}
  in
  let p1 = parse src in
  let printed = Pretty.program_to_string p1 in
  let p2 = parse printed in
  let printed2 = Pretty.program_to_string p2 in
  Alcotest.(check string) "print . parse . print is stable" printed printed2

let test_typecheck_inserts_conversions () =
  let p = check "long f(int a, char b) { return a + b; }" in
  match p.funcs with
  | [ f ] -> (
    match f.f_body with
    | [ { s = Ast.Return (Some { e = Ast.Cast (Ctypes.Integer ik, _); ty; _ });
          _ } ] ->
      Alcotest.(check bool) "result cast to long" true
        (ik.kind = Ctypes.Long);
      Alcotest.(check string) "type annotation" "long" (Ctypes.to_string ty)
    | _ -> Alcotest.fail "expected return of a cast to long")
  | _ -> Alcotest.fail "one function expected"

let test_typecheck_promotion () =
  (* char + char computes at int width (integer promotion). *)
  let p = check "int f(char a, char b) { return a + b; }" in
  match p.funcs with
  | [ f ] -> (
    match f.f_body with
    | [ { s = Ast.Return (Some e); _ } ] ->
      Alcotest.(check string) "sum typed int" "int" (Ctypes.to_string e.ty)
    | _ -> Alcotest.fail "unexpected body")
  | _ -> Alcotest.fail "one function expected"

let expect_type_error src =
  match check src with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail ("expected type error for: " ^ src)

let test_typecheck_rejects () =
  expect_type_error "int f(void) { return x; }";
  expect_type_error "int f(int a) { a + 1 = 3; return 0; }";
  expect_type_error "int f(int a) { return g(a); }";
  expect_type_error "void f(int a) { return a; }";
  expect_type_error "int f(int a) { break; return a; }";
  expect_type_error "int f(int a) { int a; return a; }";
  expect_type_error "int f(int* p) { return p * 2; }"

let test_unsigned_semantics () =
  (* unsigned comparison differs from signed at the boundary *)
  Alcotest.(check int) "unsigned compare" 0
    (Interp.run_int
       "int f(void) { unsigned int x = 0 - 1; return x < 1u; }"
       ~entry:"f" ~args:[]);
  Alcotest.(check int) "signed compare" 1
    (Interp.run_int "int f(void) { int x = 0 - 1; return x < 1; }" ~entry:"f"
       ~args:[])

let test_dialect_table1 () =
  Alcotest.(check int) "eleven rows" 11 (List.length Dialect.table1);
  let names = List.map (fun (d : Dialect.t) -> d.name) Dialect.table1 in
  (* The paper's own Table 1 row order. *)
  Alcotest.(check (list string)) "table order"
    [ "Cones"; "HardwareC"; "Transmogrifier C"; "SystemC"; "Ocapi";
      "C2Verilog"; "Cyber (BDL)"; "Handel-C"; "SpecC"; "Bach C"; "CASH" ]
    names

let test_dialect_restrictions () =
  let ptr_prog = check "int f(int* p) { return *p; }" in
  Alcotest.(check bool) "cones rejects pointers" true
    (Dialect.check Dialect.cones ptr_prog <> []);
  Alcotest.(check bool) "c2verilog accepts pointers" true
    (Dialect.check Dialect.c2verilog ptr_prog = []);
  let rec_prog = check "int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }" in
  Alcotest.(check bool) "cyber rejects recursion" true
    (Dialect.check Dialect.cyber rec_prog <> []);
  Alcotest.(check bool) "c2verilog accepts recursion" true
    (Dialect.check Dialect.c2verilog rec_prog = []);
  let while_prog = check "int f(int n) { while (n > 1) { n = n / 2; } return n; }" in
  Alcotest.(check bool) "cones rejects unbounded loops" true
    (Dialect.check Dialect.cones while_prog <> []);
  let bounded = check "int f(void) { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s + i; } return s; }" in
  Alcotest.(check bool) "cones accepts bounded loops" true
    (Dialect.check Dialect.cones bounded = []);
  let par_prog =
    check "chan int c;\nvoid f(void) { par { { send(c, 1); } { int x = recv(c); } } }"
  in
  Alcotest.(check bool) "handelc accepts par+channels" true
    (Dialect.check Dialect.handelc par_prog = []);
  Alcotest.(check bool) "cash rejects par" true
    (Dialect.check Dialect.cash par_prog <> [])

let test_loopform () =
  let p =
    parse "int f(void) { int s = 0; for (int i = 2; i < 10; i = i + 3) { s = s + i; } return s; }"
  in
  match p.funcs with
  | [ f ] -> (
    match f.f_body with
    | [ _; { s = Ast.For (init, cond, step, _); _ }; _ ] -> (
      let step =
        Option.map (fun e -> Ast.mk_stmt (Ast.Expr e)) step
      in
      ignore step;
      match
        Loopform.recognize ~init
          ~cond
          ~step:(match (List.nth f.f_body 1).s with
                 | Ast.For (_, _, s, _) -> s
                 | _ -> None)
      with
      | Some b ->
        Alcotest.(check int) "trip count" 3 (Option.get (Loopform.trip_count b));
        Alcotest.(check (list int)) "iteration values" [ 2; 5; 8 ]
          (Option.get (Loopform.iteration_values b))
      | None -> Alcotest.fail "loop not recognized")
    | _ -> Alcotest.fail "unexpected body shape")
  | _ -> Alcotest.fail "one function"

let suite =
  ( "front",
    [ Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer comments/suffixes" `Quick
        test_lexer_comments_and_suffixes;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "parse simple function" `Quick
        test_parse_simple_function;
      Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
      Alcotest.test_case "parse compound assignment" `Quick
        test_parse_compound_assign;
      Alcotest.test_case "parse hw extensions" `Quick test_parse_hw_extensions;
      Alcotest.test_case "parse globals" `Quick test_parse_globals;
      Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
      Alcotest.test_case "typecheck conversions" `Quick
        test_typecheck_inserts_conversions;
      Alcotest.test_case "typecheck promotion" `Quick test_typecheck_promotion;
      Alcotest.test_case "typecheck rejections" `Quick test_typecheck_rejects;
      Alcotest.test_case "unsigned semantics" `Quick test_unsigned_semantics;
      Alcotest.test_case "dialect table1" `Quick test_dialect_table1;
      Alcotest.test_case "dialect restrictions" `Quick
        test_dialect_restrictions;
      Alcotest.test_case "loopform recognition" `Quick test_loopform ] )
