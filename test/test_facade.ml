(* The public entry points end to end: the full acceptance matrix
   (every workload x every backend's dialect), compile-and-verify
   through Registry and Driver, Table 1 rendering, and dialect
   rejection at compile time. *)

(* The acceptance matrix, written out so a dialect-rule regression is
   immediately visible.  true = the backend's dialect accepts it. *)
let expected_acceptance =
  (* workload, cones, handelc, bachc, cash, c2verilog *)
  [ ("gcd", false, true, true, true, true);
    ("fib", false, true, true, true, true);
    ("fir", true, true, true, true, true);
    ("dotprod", true, true, true, true, true);
    ("matmul", true, true, true, true, true);
    ("bsort", false, true, true, true, true);
    ("crc", true, true, true, true, true);
    ("popcount", false, true, true, true, true);
    ("checksum", true, true, true, true, true);
    ("histogram", true, true, true, true, true);
    ("isqrt_newton", false, true, true, true, true);
    ("transpose", false, true, true, true, true);
    ("producer_consumer", false, true, true, false, false);
    ("pointer_sum", false, false, false, false, true);
    ("recursion", false, false, false, false, true);
    ("dynamic_list", false, false, false, false, true) ]

let test_acceptance_matrix () =
  List.iter
    (fun (name, cones, handelc, bachc, cash, c2v) ->
      let w = Option.get (Workloads.find name) in
      let program = Workloads.parse w in
      let check backend expected =
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s" (Registry.name backend) name)
          expected
          (Dialect.check (Registry.dialect backend) program = [])
      in
      check (Registry.get "cones") cones;
      check (Registry.get "handelc") handelc;
      check (Registry.get "bachc") bachc;
      check (Registry.get "cash") cash;
      check (Registry.get "c2verilog") c2v)
    expected_acceptance

let test_verify_against_reference () =
  let w = Workloads.gcd in
  let session = Driver.create ~entry:"gcd" w.Workloads.source in
  let design =
    match Driver.compile session (Registry.get "bachc") with
    | Ok d -> d
    | Error e -> Alcotest.fail (Driver.render_error e)
  in
  let verdicts =
    List.map
      (fun args ->
        match Driver.check session design ~args with
        | Ok v -> v
        | Error e -> Alcotest.fail (Driver.render_error e))
      w.Workloads.arg_sets
  in
  Alcotest.(check int) "one verdict per vector"
    (List.length w.Workloads.arg_sets)
    (List.length verdicts);
  List.iter
    (fun v ->
      Alcotest.(check bool) "agrees" true v.Driver.agrees;
      Alcotest.(check bool) "observed present" true
        (Driver.observed v <> None))
    verdicts

let test_table1_rendering () =
  let t = Dialect.render_table1 () in
  List.iter
    (fun needle ->
      let n = String.length needle in
      let rec go i =
        i + n <= String.length t && (String.sub t i n = needle || go (i + 1))
      in
      Alcotest.(check bool) ("table mentions " ^ needle) true (go 0))
    [ "Cones"; "HardwareC"; "Transmogrifier C"; "SystemC"; "Ocapi";
      "C2Verilog"; "Cyber (BDL)"; "Handel-C"; "SpecC"; "Bach C"; "CASH";
      "Comprehensive; company defunct"; "Untimed semantics (Sharp)" ]

let test_compile_rejects_wrong_dialect () =
  let ptr = Workloads.parse Workloads.pointer_sum in
  match Registry.compile (Registry.get "bachc") ptr ~entry:"run" with
  | exception Backend.Dialect_rejected { backend = "bachc"; violations } ->
    Alcotest.(check bool) "violation names the rule" true (violations <> [])
  | exception Backend.Dialect_rejected { backend; _ } ->
    Alcotest.failf "rejection blamed on %s, not bachc" backend
  | _ -> Alcotest.fail "bachc must reject pointers at compile"

let suite =
  ( "facade",
    [ Alcotest.test_case "acceptance matrix" `Quick test_acceptance_matrix;
      Alcotest.test_case "verify against reference" `Quick
        test_verify_against_reference;
      Alcotest.test_case "table1 rendering" `Quick test_table1_rendering;
      Alcotest.test_case "wrong dialect rejected" `Quick
        test_compile_rejects_wrong_dialect ] )
