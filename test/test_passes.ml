(* The pass manager: trace structure, dump hooks, and the per-pass
   differential verifier.  The centerpiece is the negative test — a
   deliberately broken pass declared semantics-preserving must be caught
   by the vector check at the pass boundary, with a diagnostic naming the
   pipeline and pass — plus positive bit-exact runs over the gcd, isqrt
   and crc workloads' full argument sets. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let pass_names trace = List.map (fun r -> r.Passes.pass_name) trace

let trace_structure () =
  let program = Workloads.parse Workloads.gcd in
  let lowered, trace = Passes.lower_simplify program ~entry:"gcd" in
  Alcotest.(check (list string))
    "default pipeline stages" [ "lower"; "simplify" ] (pass_names trace);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Passes.pass_name ^ " wall time non-negative")
        true
        (r.Passes.wall_ms >= 0.))
    trace;
  let simplify = List.nth trace 1 in
  Alcotest.(check bool)
    "simplify does not grow the CFG" true
    (simplify.Passes.after.Passes.blocks <= simplify.Passes.before.Passes.blocks);
  Alcotest.(check int)
    "verification off by default" 0 simplify.Passes.verified;
  Alcotest.(check int)
    "trace's final size is the returned function"
    (Cir.num_blocks lowered.Lower.func)
    simplify.Passes.after.Passes.blocks

let describe_pipelines () =
  let pl =
    Passes.pipeline "t"
      ~program_passes:[ Passes.unroll_loops_pass ]
      ~func_passes:[ Passes.simplify_pass ]
  in
  Alcotest.(check string)
    "stages in execution order" "unroll-loops; lower; simplify"
    (Passes.describe pl);
  Alcotest.(check string)
    "source-only pipeline" "(source only)"
    (Passes.describe (Passes.pipeline "s" ~lowers:false))

let render_table () =
  let program = Workloads.parse Workloads.gcd in
  let _, trace = Passes.lower_simplify program ~entry:"gcd" in
  let table = Passes.render_table trace in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table mentions " ^ needle) true
        (contains table needle))
    [ "pass"; "lower"; "simplify"; "src->cir"; "blocks/instrs" ]

let dump_hook () =
  let buf = Buffer.create 256 in
  let opts =
    { Passes.default_options with
      Passes.dump_after = [ "simplify" ];
      dump_sink = Buffer.add_string buf }
  in
  let compile ?options () =
    ignore
      (Passes.lower_simplify ?options (Workloads.parse Workloads.gcd)
         ~entry:"gcd")
  in
  compile ~options:opts ();
  let dumped = Buffer.contents buf in
  Alcotest.(check bool) "dump emitted" true (String.length dumped > 0);
  Alcotest.(check bool) "dump labelled with the pass" true
    (contains dumped "after simplify");
  compile ();
  Alcotest.(check int) "a compile without options dumps nothing"
    (String.length dumped) (Buffer.length buf)

(* A pass that rewrites every return to a wrong constant, but still claims
   to preserve semantics.  Blocks are copied, not mutated: the verifier
   compares the input function against the output, so an in-place
   corruption would poison its own oracle. *)
let break_returns_pass =
  Passes.func_pass "break-returns" (fun f ->
      let blocks =
        Array.map
          (fun b ->
            match b.Cir.term with
            | Cir.T_return (Some _) ->
              { b with
                Cir.term =
                  Cir.T_return
                    (Some
                       (Cir.O_imm
                          (Bitvec.of_int ~width:f.Cir.fn_ret_width 12345))) }
            | _ -> { b with Cir.b_id = b.Cir.b_id })
          f.Cir.fn_blocks
      in
      { f with Cir.fn_blocks = blocks })

let broken_pass_caught () =
  let pl =
    Passes.pipeline "broken-test"
      ~func_passes:[ Passes.simplify_pass; break_returns_pass ]
  in
  let opts = { Passes.default_options with Passes.verify = [ [ 54; 24 ] ] } in
  match
    Passes.run ~options:opts pl (Workloads.parse Workloads.gcd) ~entry:"gcd"
  with
  | _ -> Alcotest.fail "broken pass slipped through verification"
  | exception Passes.Verification_failed msg ->
    Alcotest.(check bool) "diagnostic names the pipeline" true
      (contains msg "broken-test");
    Alcotest.(check bool) "diagnostic names the pass" true
      (contains msg "break-returns");
    Alcotest.(check bool) "diagnostic shows the vector" true
      (contains msg "54,24")

let non_preserving_pass_not_checked () =
  let declared_lossy =
    Passes.func_pass ~preserves_semantics:false "break-returns-declared"
      break_returns_pass.Passes.fp_transform
  in
  let pl = Passes.pipeline "lossy-test" ~func_passes:[ declared_lossy ] in
  let opts = { Passes.default_options with Passes.verify = [ [ 54; 24 ] ] } in
  let _, trace =
    Passes.run ~options:opts pl (Workloads.parse Workloads.gcd) ~entry:"gcd"
  in
  let record =
    List.find (fun r -> r.Passes.pass_name = "break-returns-declared") trace
  in
  Alcotest.(check int)
    "pass declared non-preserving is exempt from verification" 0
    record.Passes.verified

(* Positive direction of the same machinery: on the real workloads every
   simplify run must come back bit-exact on every pinned argument set. *)
let workload_verified (w : Workloads.t) () =
  let program = Workloads.parse w in
  let opts = { Passes.default_options with Passes.verify = w.Workloads.arg_sets } in
  let _, trace =
    Passes.lower_simplify ~options:opts program ~entry:w.Workloads.entry
  in
  let simplify = List.find (fun r -> r.Passes.pass_name = "simplify") trace in
  Alcotest.(check int)
    ("all " ^ w.Workloads.name ^ " vectors bit-exact across simplify")
    (List.length w.Workloads.arg_sets)
    simplify.Passes.verified

(* Source-level passes go through the reference interpreter instead: the
   Transmogrifier-style full unroll of crc's bounded loop must agree with
   the original program on every vector. *)
let program_pass_verified () =
  let w = Workloads.crc in
  let program = Workloads.parse w in
  let pl =
    Passes.pipeline "unroll-test"
      ~program_passes:[ Passes.unroll_loops_pass ]
      ~func_passes:[ Passes.simplify_pass ]
  in
  let opts = { Passes.default_options with Passes.verify = w.Workloads.arg_sets } in
  let _, trace =
    Passes.run ~options:opts pl program ~entry:w.Workloads.entry
  in
  let unroll = List.find (fun r -> r.Passes.pass_name = "unroll-loops") trace in
  Alcotest.(check Alcotest.bool)
    "unroll is a source-level pass" true (unroll.Passes.level = Passes.Source);
  Alcotest.(check int)
    "all crc vectors agree across unrolling"
    (List.length w.Workloads.arg_sets)
    unroll.Passes.verified

let suite =
  ( "passes",
    [ Alcotest.test_case "trace structure" `Quick trace_structure;
      Alcotest.test_case "describe" `Quick describe_pipelines;
      Alcotest.test_case "render table" `Quick render_table;
      Alcotest.test_case "dump hook" `Quick dump_hook;
      Alcotest.test_case "broken pass caught" `Quick broken_pass_caught;
      Alcotest.test_case "non-preserving pass exempt" `Quick
        non_preserving_pass_not_checked;
      Alcotest.test_case "gcd verified bit-exact" `Quick
        (workload_verified Workloads.gcd);
      Alcotest.test_case "isqrt verified bit-exact" `Quick
        (workload_verified Workloads.isqrt_newton);
      Alcotest.test_case "crc verified bit-exact" `Quick
        (workload_verified Workloads.crc);
      Alcotest.test_case "program pass verified via interp" `Quick
        program_pass_verified ] )
