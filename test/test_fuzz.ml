(* The dialect-matrix fuzzer: generation gating, reproducibility, the
   shrinker, a mini differential sweep, and the typed crash-path
   regressions that ride along (the SSA token timeout,
   Backend.Dialect_rejected, the delay feature axis). *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let corpus d = List.init 20 (fun index -> Fuzzgen.generate d ~seed:7 ~index)

let census progs =
  List.fold_left
    (fun acc prog ->
      List.map2
        (fun (k, a) (k', b) ->
          assert (k = k');
          (k, a + b))
        acc
        (Fuzzgen.construct_counts prog))
    (List.map (fun k -> (k, 0)) Fuzzgen.construct_keys)
    progs

let count key c = List.assoc key c

(* --- generation gating ------------------------------------------------ *)

(* Every program generated for a dialect must satisfy that dialect's own
   feature row: the fuzzer's whole premise is that its corpus exercises
   exactly what the row allows. *)
let test_own_dialect_accepts () =
  List.iter
    (fun (d : Dialect.t) ->
      List.iter
        (fun prog ->
          match Dialect.check d prog with
          | [] -> ()
          | { Dialect.rule; _ } :: _ ->
            Alcotest.failf "%s rejects its own fuzz program: %s"
              d.Dialect.name rule)
        (corpus d))
    (Fuzz.default_dialects ())

(* Gated constructs never leak into rows that lack the feature, and the
   rows that have a feature actually exercise it (nonzero census over a
   20-program corpus). *)
let test_feature_gating_matrix () =
  List.iter
    (fun (d : Dialect.t) ->
      let c = census (corpus d) in
      let gate name allowed keys =
        let n = List.fold_left (fun a k -> a + count k c) 0 keys in
        if allowed then
          Alcotest.(check bool)
            (Printf.sprintf "%s generates %s" d.Dialect.name name)
            true (n > 0)
        else
          Alcotest.(check int)
            (Printf.sprintf "%s must not generate %s" d.Dialect.name name)
            0 n
      in
      gate "par" d.Dialect.allows_par [ "par" ];
      gate "channels" d.Dialect.allows_channels [ "chan_send"; "chan_recv" ];
      gate "delay" d.Dialect.allows_delay [ "delay" ];
      gate "constrain" d.Dialect.allows_constrain [ "constrain" ];
      gate "while" d.Dialect.allows_unbounded_loops [ "while"; "do_while" ];
      gate "pointers" d.Dialect.allows_pointers [ "pointer" ];
      (* ungated staples show up everywhere *)
      gate "for" true [ "for" ];
      gate "if" true [ "if" ];
      gate "arrays" true [ "array" ])
    (Fuzz.default_dialects ())

let test_seed_reproducible () =
  List.iter
    (fun (d : Dialect.t) ->
      for index = 0 to 9 do
        let a = Fuzzgen.generate d ~seed:42 ~index
        and b = Fuzzgen.generate d ~seed:42 ~index in
        Alcotest.(check string)
          (Printf.sprintf "%s #%d deterministic" d.Dialect.name index)
          (Pretty.program_to_string a)
          (Pretty.program_to_string b)
      done;
      (* different seeds must not replay the same corpus *)
      let a = Pretty.program_to_string (Fuzzgen.generate d ~seed:1 ~index:0)
      and b =
        Pretty.program_to_string (Fuzzgen.generate d ~seed:2 ~index:0)
      in
      Alcotest.(check bool)
        (d.Dialect.name ^ " seeds diverge")
        true (a <> b))
    [ Dialect.bachc; Dialect.handelc; Dialect.c2verilog; Dialect.cones ]

(* every generated program parses back through the frontend: Pretty and
   the parser stay inverses over the fuzz surface *)
let test_generated_programs_typecheck () =
  List.iter
    (fun (d : Dialect.t) ->
      List.iter
        (fun prog ->
          ignore
            (Typecheck.parse_and_check (Pretty.program_to_string prog)))
        (corpus d))
    (Fuzz.default_dialects ())

(* --- the shrinker ----------------------------------------------------- *)

let stmt_count prog =
  let n = ref 0 in
  List.iter
    (fun f -> Ast.iter_func ~stmt:(fun _ -> incr n) ~expr:(fun _ -> ()) f)
    prog.Ast.funcs;
  !n

(* Shrinking under a syntactic keep predicate must preserve the predicate
   and never grow the program; on a program with an obviously deletable
   payload it must actually delete. *)
let test_shrinker_minimizes () =
  let src =
    {|
    int buf[8];
    int f(int a, int b) {
      int t = 0;
      for (int i = 0; i < 8; i = i + 1) { buf[i & 7] = i * a; }
      if (a > b) { t = t + 3; } else { t = t - b; }
      t = t + (a / ((b & 7) + 1));
      return t;
    }
    |}
  in
  let prog = Typecheck.parse_and_check src in
  let keep p = contains ~affix:"/" (Pretty.program_to_string p) in
  Alcotest.(check bool) "original satisfies keep" true (keep prog);
  let shrunk = Fuzzgen.shrink ~keep prog in
  Alcotest.(check bool) "shrunk still divides" true (keep shrunk);
  Alcotest.(check bool) "shrunk is strictly smaller" true
    (stmt_count shrunk < stmt_count prog);
  (* the for-loop and if are noise for this predicate: both must go *)
  let text = Pretty.program_to_string shrunk in
  Alcotest.(check bool) "loop removed" false (contains ~affix:"for" text);
  Alcotest.(check bool) "branch removed" false (contains ~affix:"if" text);
  (* local minimum: no single edit both keeps the predicate and shrinks *)
  List.iter
    (fun cand ->
      if keep cand then
        Alcotest.(check bool) "no smaller keep-preserving candidate" true
          (stmt_count cand >= stmt_count shrunk))
    (Fuzzgen.shrink_program shrunk)

(* shrinking a concurrent program under a checker-aware keep (the one
   the fuzz driver uses) lands on a checker-clean local minimum that
   still carries its channel traffic — candidates that unbalance a
   rendezvous exist, but keep filters them out *)
let test_shrinker_preserves_channel_balance () =
  let has_send p =
    List.exists
      (fun f ->
        Ast.exists_stmt
          (fun st ->
            match st.Ast.s with Ast.Chan_send _ -> true | _ -> false)
          f)
      p.Ast.funcs
  in
  let progs = List.filter has_send (corpus Dialect.handelc) in
  Alcotest.(check bool) "corpus has channel programs" true (progs <> []);
  List.iter
    (fun prog ->
      let keep p =
        has_send p
        &&
        match Typecheck.parse_and_check (Pretty.program_to_string p) with
        | exception _ -> false
        | checked ->
          Conc_check.errors
            (Conc_check.check_program ~dialect:Dialect.handelc checked)
          = []
      in
      Alcotest.(check bool) "original satisfies keep" true (keep prog);
      let shrunk = Fuzzgen.shrink ~keep prog in
      Alcotest.(check bool) "shrunk keeps its rendezvous" true
        (has_send shrunk);
      Alcotest.(check bool) "shrunk stays checker-clean" true (keep shrunk))
    progs

(* --- the differential sweep ------------------------------------------- *)

(* A mini end-to-end run of the fuzz driver: a clean matrix, nonzero
   agreement, and the expected rejection pattern (everything Bach C
   generates is channel-free for cones to reject, par-bearing programs
   are rejected by the sequential rows). *)
let test_mini_sweep_clean () =
  List.iter
    (fun (d : Dialect.t) ->
      let r = Fuzz.run_dialect d ~seed:3 ~n:5 in
      Alcotest.(check int)
        (d.Dialect.name ^ " sweep has no divergences")
        0
        (List.length r.Fuzz.rep_divergences);
      Alcotest.(check bool)
        (d.Dialect.name ^ " sweep agreed somewhere")
        true (r.Fuzz.rep_agreed > 0))
    [ Dialect.bachc; Dialect.handelc; Dialect.c2verilog ]

let test_sweep_reproducible () =
  let run () =
    let r = Fuzz.run_dialect Dialect.handelc ~seed:11 ~n:4 in
    (r.Fuzz.rep_agreed, r.Fuzz.rep_rejected, r.Fuzz.rep_constructs)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same sweep" true (a = b)

(* --- crash-path regressions ------------------------------------------- *)

(* The SSA form runs on Asim, whose token budget stops a non-terminating
   input with a typed Timeout carrying how far it got. *)
let test_ssa_timeout_typed () =
  let src =
    {|
    int f(int a) {
      int i = 0;
      while (a < 1000000000) { i = i + 1; a = a + 1; }
      return i;
    }
    |}
  in
  let program = Typecheck.parse_and_check src in
  let lowered, _ = Passes.lower_simplify program ~entry:"f" in
  let ssa = Ssa.of_func lowered.Lower.func in
  match Asim.run ~max_tokens:100 ssa ~args:[ Bitvec.of_int ~width:64 0 ] with
  | _ -> Alcotest.fail "expected Asim.Timeout"
  | exception Asim.Timeout { tokens_fired; time } ->
    Alcotest.(check int) "timeout carries the budget" 100 tokens_fired;
    Alcotest.(check bool) "and the time reached" true (time > 0.)

(* Backend dialect rejections are one typed exception naming backend,
   rule and source location — and the driver maps it to Dialect_reject
   (never Backend_error/internal). *)
let test_typed_rejection_has_location () =
  let src = {|
int f(int a, int b) {
  while (a < b) { a = a + 1; }
  return a;
}
|} in
  let program = Typecheck.parse_and_check src in
  (match Backend.reject_if_illegal ~backend:"cones" Dialect.cones program with
  | () -> Alcotest.fail "cones must reject a while loop"
  | exception Backend.Dialect_rejected { backend; violations } ->
    Alcotest.(check string) "backend name" "cones" backend;
    (match violations with
    | [] -> Alcotest.fail "no violations carried"
    | { Dialect.vloc; _ } :: _ ->
      Alcotest.(check bool) "violation is located" true
        (vloc <> Ast.no_loc)));
  let session = Driver.create ~entry:"f" src in
  match Driver.compile session (Registry.get "cones") with
  | Error (Driver.Dialect_reject { backend; violations }) ->
    Alcotest.(check string) "driver reports the backend" "cones" backend;
    Alcotest.(check bool) "driver keeps the violations" true
      (violations <> []);
    let rendered =
      Driver.render_error
        (Driver.Dialect_reject { backend; violations })
    in
    Alcotest.(check bool) "rendering carries the location" true
      (contains ~affix:"at " rendered)
  | Ok _ -> Alcotest.fail "cones accepted a while loop"
  | Error e -> Alcotest.failf "wrong error class: %s" (Driver.render_error e)

(* delay is a real feature axis now: legal exactly where Table 1's
   timing column says cycles are designer-visible *)
let test_delay_feature_axis () =
  let src = {|
int f(int a, int b) {
  a = a + b;
  delay;
  return a;
}
|} in
  let program = Typecheck.parse_and_check src in
  List.iter
    (fun (d : Dialect.t) ->
      let rejected = Dialect.check d program <> [] in
      Alcotest.(check bool)
        (d.Dialect.name ^ " delay acceptance matches the feature row")
        d.Dialect.allows_delay (not rejected))
    Dialect.table1

let suite =
  ( "fuzz",
    [ Alcotest.test_case "own dialect accepts corpus" `Quick
        test_own_dialect_accepts;
      Alcotest.test_case "feature-gating matrix" `Quick
        test_feature_gating_matrix;
      Alcotest.test_case "seed reproducibility" `Quick test_seed_reproducible;
      Alcotest.test_case "corpus round-trips the frontend" `Quick
        test_generated_programs_typecheck;
      Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
      Alcotest.test_case "shrinker keeps channels balanced" `Quick
        test_shrinker_preserves_channel_balance;
      Alcotest.test_case "mini differential sweep" `Quick
        test_mini_sweep_clean;
      Alcotest.test_case "sweep reproducibility" `Quick
        test_sweep_reproducible;
      Alcotest.test_case "SSA token run timeout is typed" `Quick
        test_ssa_timeout_typed;
      Alcotest.test_case "typed dialect rejection with location" `Quick
        test_typed_rejection_has_location;
      Alcotest.test_case "delay feature axis" `Quick test_delay_feature_axis
    ] )
