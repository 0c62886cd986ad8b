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

(* One scripted session pins the driver's bookkeeping: every cache and
   oracle counter, and the session registry as it renders, key order
   included.  Timer values are zeroed first, as the one part that varies
   from run to run.  The script: a frontend miss, then hits; a design
   miss, a front hit, then a revival through a reopened store; one
   dialect reject asked twice; the default config and an explicit one;
   one oracle run and one memo hit. *)
let rec zero_timers = function
  | Metrics.Fixed (d, _) -> Metrics.Fixed (d, 0.)
  | Metrics.Obj members ->
    Metrics.Obj (List.map (fun (k, v) -> (k, zero_timers v)) members)
  | Metrics.List items -> Metrics.List (List.map zero_timers items)
  | (Metrics.Null | Metrics.Bool _ | Metrics.Int _ | Metrics.Float _
    | Metrics.String _) as v ->
    v

let pinned_session_rendering =
  "{\"driver\": {\"cache\": {\"misses\": 3, \"frontend_misses\": 1, \
   \"hits\": 13, \"frontend_hits\": 10, \"design_misses\": 2, \
   \"design_hits\": 2, \"design_store_hits\": 1}, \"frontend_ms\": 0.000, \
   \"compile\": {\"bachc_ms\": 0.000}, \
   \"oracle\": {\"runs\": 1, \"memo_hits\": 1}}}"

let test_session_bookkeeping_pinned () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "chlsc-driver-pin-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let empty () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  in
  empty ();
  let previous = Driver.cache_store () in
  let attach () =
    match Driver.attach_disk_cache ~dir () with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect
    ~finally:(fun () ->
      Driver.set_cache_store previous;
      Driver.clear_cache ();
      empty ();
      Unix.rmdir dir)
    (fun () ->
      Driver.clear_cache ();
      attach ();
      let s = session () in
      let bachc = Registry.get "bachc" and cones = Registry.get "cones" in
      ignore (design_of (Driver.program s));
      ignore (design_of (Driver.program s));
      let d1 = design_of (Driver.compile s bachc) in
      let d2 = design_of (Driver.compile s bachc) in
      Alcotest.(check bool) "a front hit is the same design" true (d1 == d2);
      (* the front tier dies; a fresh handle reopens the same directory *)
      Driver.clear_cache ();
      attach ();
      let d3 = design_of (Driver.compile s bachc) in
      Alcotest.(check bool) "the revived design is a copy" false (d1 == d3);
      let reject () =
        match Driver.compile s cones with
        | Error (Driver.Dialect_reject { violations; _ }) -> violations
        | Ok _ -> Alcotest.fail "cones must reject gcd"
        | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e)
      in
      let v1 = reject () in
      let v2 = reject () in
      Alcotest.(check bool) "the reject names violations" true (v1 <> []);
      Alcotest.(check bool) "both rejects carry equal violations" true
        (v1 = v2);
      (* an explicit config, built afresh for each ask as a serve request
         builds it *)
      let config () =
        Config.with_resources
          { Schedule.default_allocation with Schedule.chain_budget = 200. }
          Config.default
      in
      let e1 = design_of (Driver.compile ~config:(config ()) s bachc) in
      let e2 = design_of (Driver.compile ~config:(config ()) s bachc) in
      Alcotest.(check bool) "the explicit config hits its own design" true
        (e1 == e2 && not (e1 == d3));
      List.iter
        (fun _ ->
          match Driver.reference s ~args:[ 1071; 462 ] with
          | Ok v -> Alcotest.(check int) "gcd(1071,462)" 21 v
          | Error e -> Alcotest.fail (Driver.render_error e))
        [ (); () ];
      List.iter
        (fun (key, n) -> Alcotest.(check int) key n (counter s key))
        [ ("driver.cache.misses", 3);
          ("driver.cache.hits", 13);
          ("driver.cache.frontend_misses", 1);
          ("driver.cache.frontend_hits", 10);
          ("driver.cache.design_misses", 2);
          ("driver.cache.design_hits", 2);
          ("driver.cache.design_store_hits", 1);
          ("driver.oracle.runs", 1);
          ("driver.oracle.memo_hits", 1) ];
      Alcotest.(check string) "the session registry, timers zeroed"
        pinned_session_rendering
        (Metrics.render_compact
           (zero_timers (Metrics.to_json (Driver.metrics s)))))

(* A warm hit pays for its lookup and little more: after a warm-up, a
   front-hit compile and a memo-hit oracle question each stay under a
   bound of minor words per call, on gcd and on bsort.  The bounds, 250
   and 100, are about twice what the calls take (123 and 54 words); a
   hit that re-ran the dialect check, re-digested the config or rebuilt
   the session's registry would exceed them. *)
let test_hits_allocate_little () =
  let compile_bound = 250. and reference_bound = 100. in
  let words f =
    f ();
    let n = 200 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.iter
    (fun (w : Workloads.t) ->
      let s = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
      let bachc = Registry.get "bachc" in
      let args = List.hd w.Workloads.arg_sets in
      let compile () = ignore (design_of (Driver.compile s bachc)) in
      let reference () = ignore (design_of (Driver.reference s ~args)) in
      let c = words compile and r = words reference in
      Alcotest.(check bool)
        (Printf.sprintf "%s: a front-hit compile takes %.0f words (bound %.0f)"
           w.Workloads.name c compile_bound)
        true (c <= compile_bound);
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: a memo-hit oracle question takes %.0f words (bound %.0f)"
           w.Workloads.name r reference_bound)
        true (r <= reference_bound))
    [ Workloads.gcd; Workloads.bsort ]

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
        `Quick test_compile_all_declared_order;
      Alcotest.test_case "session bookkeeping pinned" `Quick
        test_session_bookkeeping_pinned;
      Alcotest.test_case "hits allocate little" `Quick
        test_hits_allocate_little ] )
