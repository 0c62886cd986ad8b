(* Driver semantics: the frontend runs once per session, repeated
   compiles with an identical content key are cache hits returning
   bit-identical designs, and every rejection path comes back as a typed
   error instead of an exception. *)

let counter session key =
  match Metrics.find (Driver.metrics session) key with
  | Some (Metrics.Int n) -> n
  | _ -> 0

let gcd_w = Workloads.gcd

let session () = Driver.create ~entry:gcd_w.Workloads.entry gcd_w.Workloads.source

let design_of = function
  | Ok d -> d
  | Error e -> Alcotest.fail (Driver.render_error e)

let test_frontend_memoized () =
  let s = session () in
  (match Driver.program s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Driver.render_error e));
  Alcotest.(check int) "first demand is a miss" 1
    (counter s "driver.cache.frontend_misses");
  ignore (Driver.program s);
  ignore (Driver.program s);
  Alcotest.(check int) "later demands are hits" 2
    (counter s "driver.cache.frontend_hits");
  Alcotest.(check int) "still one frontend run" 1
    (counter s "driver.cache.frontend_misses")

let test_design_cache_hit_bit_identical () =
  Driver.clear_cache ();
  let s = session () in
  let bachc = Registry.get "bachc" in
  let d1 = design_of (Driver.compile s bachc) in
  Alcotest.(check int) "first compile misses" 1
    (counter s "driver.cache.design_misses");
  let d2 = design_of (Driver.compile s bachc) in
  Alcotest.(check int) "second compile hits" 1
    (counter s "driver.cache.design_hits");
  (* same key, same memoized artifact *)
  Alcotest.(check bool) "the very same design" true (d1 == d2);
  (* a second session over identical source shares the process-wide
     cache: no recompile, bit-identical results on the seed vectors *)
  let s' = session () in
  let d3 = design_of (Driver.compile s' bachc) in
  Alcotest.(check bool) "cross-session hit" true (d1 == d3);
  Alcotest.(check int) "no new design compile" 0
    (counter s' "driver.cache.design_misses");
  List.iter
    (fun args ->
      Alcotest.(check (option int))
        (Printf.sprintf "gcd(%s) identical across compiles"
           (String.concat "," (List.map string_of_int args)))
        (Design.run_int d1 args) (Design.run_int d3 args))
    gcd_w.Workloads.arg_sets

let test_entry_and_source_key () =
  Driver.clear_cache ();
  let bachc = Registry.get "bachc" in
  let d1 = design_of (Driver.compile (session ()) bachc) in
  (* a different source digest must not hit gcd's cache line *)
  let w = Workloads.fib in
  let s2 = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  let d2 = design_of (Driver.compile s2 bachc) in
  Alcotest.(check bool) "different source, different design" false (d1 == d2);
  Alcotest.(check int) "fib compile was a miss" 1
    (counter s2 "driver.cache.design_misses")

let test_compile_all_amortizes_frontend () =
  Driver.clear_cache ();
  let s = session () in
  let backends = Registry.compiling () in
  let results = Driver.compile_all ~backends s in
  Alcotest.(check int) "one verdict per backend" (List.length backends)
    (List.length results);
  Alcotest.(check int) "frontend ran once" 1
    (counter s "driver.cache.frontend_misses");
  Alcotest.(check bool) "frontend hits >= N-1" true
    (counter s "driver.cache.frontend_hits" >= List.length backends - 1)

let test_typed_rejections () =
  let s = session () in
  (* ocapi: structural EDSL, no C frontend — typed, not an exception *)
  (match Driver.compile s (Registry.get "ocapi") with
  | Error (Driver.No_c_frontend { backend }) ->
    Alcotest.(check string) "ocapi rejection names the backend" "ocapi" backend
  | Ok _ -> Alcotest.fail "ocapi cannot compile C"
  | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e));
  (* cones: gcd's unbounded loop violates the combinational dialect *)
  (match Driver.compile s (Registry.get "cones") with
  | Error (Driver.Dialect_reject { backend; violations }) ->
    Alcotest.(check string) "reject names cones" "cones" backend;
    Alcotest.(check bool) "violations are reported" true (violations <> [])
  | Ok _ -> Alcotest.fail "cones must reject gcd"
  | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e));
  (* a frontend failure poisons the session with a typed error, whether
     the typechecker or the lexer refuses the source, a stray character
     or a literal too large for 64 bits *)
  List.iter
    (fun source ->
      match Driver.program (Driver.create ~entry:"f" source) with
      | Error (Driver.Frontend_error _) -> ()
      | Ok _ -> Alcotest.failf "%S must not typecheck" source
      | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e))
    [ "int f(int x) { return y; }"; "int f(int x) { return x @ 2; }";
      "int f(int a) { return a + 99999999999999999999; }" ]

let test_reference_oracle () =
  let s = session () in
  match Driver.reference s ~args:[ 1071; 462 ] with
  | Ok v -> Alcotest.(check int) "gcd(1071,462)" 21 v
  | Error e -> Alcotest.fail (Driver.render_error e)

(* The oracle memo answers exactly what the interpreter computes, asked
   in any order, and it is bounded: past its cap an early vector is
   interpreted again. *)
let test_reference_memo () =
  List.iter
    (fun (w : Workloads.t) ->
      let s = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
      let ask args =
        match Driver.reference s ~args with
        | Ok v ->
          Alcotest.(check int)
            (Printf.sprintf "%s(%s)" w.Workloads.name
               (String.concat "," (List.map string_of_int args)))
            (Workloads.reference w args) v
        | Error e -> Alcotest.fail (Driver.render_error e)
      in
      List.iter ask w.Workloads.arg_sets;
      List.iter ask (List.rev w.Workloads.arg_sets);
      let distinct =
        List.length (List.sort_uniq compare w.Workloads.arg_sets)
      in
      Alcotest.(check (pair int int))
        (w.Workloads.name ^ ": runs, memo hits")
        (distinct, (2 * List.length w.Workloads.arg_sets) - distinct)
        (counter s "driver.oracle.runs", counter s "driver.oracle.memo_hits"))
    Workloads.all;
  let s = session () in
  let ask n =
    match Driver.reference s ~args:[ n; 6 ] with
    | Ok v -> Alcotest.(check int) "gcd" (Workloads.reference gcd_w [ n; 6 ]) v
    | Error e -> Alcotest.fail (Driver.render_error e)
  in
  for n = 1 to Driver.oracle_memo_cap + 1 do
    ask n
  done;
  ask 1;
  Alcotest.(check int) "the first vector is interpreted again"
    (Driver.oracle_memo_cap + 2)
    (counter s "driver.oracle.runs");
  ask (Driver.oracle_memo_cap + 1);
  Alcotest.(check int) "the latest vector is still memoised" 1
    (counter s "driver.oracle.memo_hits");
  (* the cache counters see only each call's frontend demand *)
  Alcotest.(check (pair int int)) "driver.cache hits, misses"
    (Driver.oracle_memo_cap + 2, 1)
    (counter s "driver.cache.hits", counter s "driver.cache.misses")

(* Verdict ordering is contractual (driver.mli): compile_all answers in
   the order of its [backends] argument, defaulting to registry
   declaration (Table 1) order.  Pin both so a refactor that reaches for
   a hash table gets caught here, not in a flaky compare table. *)
let test_compile_all_declared_order () =
  let s = session () in
  Alcotest.(check (list string)) "default order is registry declaration"
    (Registry.names ())
    (List.map (fun (b, _) -> Registry.name b) (Driver.compile_all s));
  Alcotest.(check (list string)) "registry declaration is Table 1"
    [ "cones"; "hardwarec"; "transmogrifier"; "systemc"; "ocapi";
      "c2verilog"; "cyber"; "handelc"; "specc"; "bachc"; "cash" ]
    (Registry.names ());
  let subset = [ Registry.get "cash"; Registry.get "cones" ] in
  Alcotest.(check (list string)) "explicit backends keep caller order"
    [ "cash"; "cones" ]
    (List.map
       (fun (b, _) -> Registry.name b)
       (Driver.compile_all ~backends:subset s))

let suite =
  ( "driver",
    [ Alcotest.test_case "frontend memoized" `Quick test_frontend_memoized;
      Alcotest.test_case "design cache hit is bit-identical" `Quick
        test_design_cache_hit_bit_identical;
      Alcotest.test_case "cache keyed by source and entry" `Quick
        test_entry_and_source_key;
      Alcotest.test_case "compile_all amortizes frontend" `Quick
        test_compile_all_amortizes_frontend;
      Alcotest.test_case "typed rejections" `Quick test_typed_rejections;
      Alcotest.test_case "reference oracle" `Quick test_reference_oracle;
      Alcotest.test_case "reference memo is exact and bounded" `Quick
        test_reference_memo;
      Alcotest.test_case "compile_all verdict order is declared order"
        `Quick test_compile_all_declared_order ] )
