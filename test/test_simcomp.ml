(* Compiled-simulation equivalence: the closure engines must be
   indistinguishable from the interpreters they replace.

   Fsmdcomp (per-state closures over unboxed int register files) is
   checked against Rtlsim on the full outcome — return value, cycle
   count, globals, memories, per-state visit counts — and on the VCD
   change stream a shared trace hook produces.  Netcomp (levelized
   closure arrays) is checked three ways against Neteval: event-driven,
   full-sweep, and the probe-visible change stream.  Random programs
   (the test_random generator) drive the property versions; gcd,
   isqrt-newton and crc pin the workload corpus.  Divergence anywhere
   here is an engine bug, never noise — every quantity compared is
   deterministic. *)

let schedule func blk =
  Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs

let build src ~entry =
  let program = Typecheck.parse_and_check src in
  let lowered = Lower.lower_program program ~entry in
  let simplified, _ = Simplify.simplify lowered.Lower.func in
  let fsmd = Fsmd.of_func simplified ~schedule_block:(schedule simplified) in
  (simplified, fsmd, (Rtlgen.elaborate fsmd).Rtlgen.netlist)

let args_of ints = List.map (Bitvec.of_int ~width:64) ints

let named_eq eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, v1) (n2, v2) -> n1 = n2 && eq v1 v2) a b

let memory_eq x y =
  Array.length x = Array.length y && Array.for_all2 Bitvec.equal x y

let outcome_eq (a : Rtlsim.outcome) (b : Rtlsim.outcome) =
  (match (a.Rtlsim.return_value, b.Rtlsim.return_value) with
  | Some x, Some y -> Bitvec.equal x y
  | None, None -> true
  | _ -> false)
  && a.Rtlsim.cycles = b.Rtlsim.cycles
  && named_eq Bitvec.equal a.Rtlsim.globals b.Rtlsim.globals
  && named_eq memory_eq a.Rtlsim.memories b.Rtlsim.memories
  && a.Rtlsim.states_visited = b.Rtlsim.states_visited

(* one run on a fresh compiled FSMD engine, as Rtlsim.run runs *)
let fsmdcomp_run ?trace fsmd ~args =
  Fsmdcomp.execute ?trace (Fsmdcomp.create fsmd) ~args

(* the VCD stream an FSMD run produces under the shared trace hook *)
let fsmd_vcd runner fsmd =
  let v = Vcd.create () in
  let trace = Trace.rtlsim_trace v fsmd in
  ignore (runner ~trace fsmd);
  Vcd.contents v

(* drive a netlist engine with a probe attached; returns outputs,
   cycles, and the VCD stream (None on timeout) *)
let netcomp_probed nl ~inputs =
  let v = Vcd.create () in
  let eng = Netcomp.create nl in
  Netcomp.set_probe eng (Trace.neteval_probe v nl);
  match Netcomp.drive eng ~inputs ~done_name:"done" ~max_cycles:200_000 with
  | Ok (out, cycles) -> Some (out, cycles, Vcd.contents v)
  | Error `Timeout -> None

let neteval_probed ~strategy nl ~inputs =
  let v = Vcd.create () in
  let e = Neteval.create ~strategy nl in
  Neteval.set_probe e (Trace.neteval_probe v nl);
  match Neteval.drive e ~inputs ~done_name:"done" ~max_cycles:200_000 with
  | Ok (out, cycles) -> Some (out, cycles, Vcd.contents v)
  | Error `Timeout -> None

let inputs_of func args =
  List.map2
    (fun (name, r) v ->
      (name, Bitvec.resize ~signed:true ~width:(Cir.reg_width func r) v))
    func.Cir.fn_params args

(* --- pinned workload corpus --- *)

let check_kernel (w : Workloads.t) () =
  let func, fsmd, nl =
    build w.Workloads.source ~entry:w.Workloads.entry
  in
  Alcotest.(check bool)
    (w.Workloads.name ^ " FSMD is compilable")
    true (Fsmdcomp.compilable fsmd);
  Alcotest.(check bool)
    (w.Workloads.name ^ " netlist is compilable")
    true (Netcomp.compilable nl);
  List.iter
    (fun int_args ->
      let args = args_of int_args in
      let oc = fsmdcomp_run fsmd ~args in
      let oi = Rtlsim.run fsmd ~args in
      Alcotest.(check bool)
        (Printf.sprintf "%s: compiled outcome = interpreter outcome"
           w.Workloads.name)
        true (outcome_eq oc oi);
      Alcotest.(check string)
        (Printf.sprintf "%s: compiled VCD = interpreter VCD" w.Workloads.name)
        (fsmd_vcd (fun ~trace f -> Rtlsim.run ~trace f ~args) fsmd)
        (fsmd_vcd (fun ~trace f -> fsmdcomp_run ~trace f ~args) fsmd);
      let inputs = inputs_of func args in
      match
        ( netcomp_probed nl ~inputs,
          neteval_probed ~strategy:Neteval.Event_driven nl ~inputs,
          neteval_probed ~strategy:Neteval.Full_sweep nl ~inputs )
      with
      | Some (c_out, c_cyc, c_vcd), Some (e_out, e_cyc, e_vcd),
        Some (s_out, s_cyc, s_vcd) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: netlist outputs agree across engines"
             w.Workloads.name)
          true
          (named_eq Bitvec.equal c_out e_out
          && named_eq Bitvec.equal c_out s_out);
        Alcotest.(check bool)
          (Printf.sprintf "%s: netlist cycle counts agree" w.Workloads.name)
          true
          (c_cyc = e_cyc && c_cyc = s_cyc);
        Alcotest.(check string)
          (Printf.sprintf "%s: compiled netlist VCD = event-driven VCD"
             w.Workloads.name)
          e_vcd c_vcd;
        Alcotest.(check string)
          (Printf.sprintf "%s: full-sweep VCD = event-driven VCD"
             w.Workloads.name)
          e_vcd s_vcd
      | _ -> Alcotest.fail (w.Workloads.name ^ ": a netlist engine timed out"))
    w.Workloads.arg_sets

(* --- engine reuse: one create, many executes --- *)

let test_fsmd_engine_reuse () =
  let w = Workloads.gcd in
  let _, fsmd, _ = build w.Workloads.source ~entry:w.Workloads.entry in
  let eng = Fsmdcomp.create fsmd in
  List.iter
    (fun int_args ->
      let args = args_of int_args in
      let first = Fsmdcomp.execute eng ~args in
      let second = Fsmdcomp.execute eng ~args in
      Alcotest.(check bool) "re-executed run is identical" true
        (outcome_eq first second);
      Alcotest.(check bool) "reused engine matches a fresh interpreter" true
        (outcome_eq second (Rtlsim.run fsmd ~args)))
    w.Workloads.arg_sets;
  (* tracing one run must not perturb the next untraced one *)
  let args = args_of (List.hd w.Workloads.arg_sets) in
  let v = Vcd.create () in
  ignore (Fsmdcomp.execute eng ~trace:(Trace.rtlsim_trace v fsmd) ~args);
  Alcotest.(check bool) "post-trace run still matches the interpreter" true
    (outcome_eq (Fsmdcomp.execute eng ~args) (Rtlsim.run fsmd ~args))

let test_netlist_engine_reset () =
  let w = Workloads.crc in
  let func, _, nl = build w.Workloads.source ~entry:w.Workloads.entry in
  let eng = Netcomp.create nl in
  List.iter
    (fun int_args ->
      let inputs = inputs_of func (args_of int_args) in
      let run () =
        Netcomp.reset eng;
        match
          Netcomp.drive eng ~inputs ~done_name:"done" ~max_cycles:200_000
        with
        | Ok r -> r
        | Error `Timeout -> Alcotest.fail "crc timed out"
      in
      let out1, cyc1 = run () in
      let out2, cyc2 = run () in
      Alcotest.(check int) "reset rewinds the cycle counter" cyc1 cyc2;
      Alcotest.(check bool) "reset reproduces the outputs" true
        (named_eq Bitvec.equal out1 out2))
    w.Workloads.arg_sets

(* --- SystemC: a process network runs like every FSMD --- *)

(* On bsort, whose global array is a memory, a SystemC design answers
   exactly like Bach C's on both engines: result, globals, memories,
   cycles, state visits and waveform, with [sim.engine] naming the engine
   that ran.  Its event engine is the kernel, so under [Event_driven] the
   kernel answers like Rtlsim. *)
let test_systemc_answers_like_bachc () =
  let w = Workloads.bsort in
  let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  let design backend =
    match Driver.compile session (Registry.get backend) with
    | Ok d -> d
    | Error e -> Alcotest.fail (Driver.render_error e)
  in
  let systemc = design "systemc" and bachc = design "bachc" in
  (match systemc.Design.artifact with
  | Design.Process_network _ -> ()
  | _ -> Alcotest.fail "systemc: not a process network");
  let run sim (d : Design.t) args =
    let v = Vcd.create () in
    let r = d.Design.run ~vcd:v ~sim args in
    (r, Vcd.contents v)
  in
  let metric (r : Design.run_result) name = Metrics.find r.Design.metrics name in
  List.iter
    (fun int_args ->
      let args = args_of int_args in
      List.iter
        (fun sim ->
          let what =
            Printf.sprintf "bsort(%d) on %s" (List.hd int_args)
              (Design.engine_name sim)
          in
          let s, s_vcd = run sim systemc args
          and b, b_vcd = run sim bachc args in
          Alcotest.(check (pair (option int) (option int)))
            (what ^ ": result, cycles")
            (Option.map Bitvec.to_int b.Design.result, b.Design.cycles)
            (Option.map Bitvec.to_int s.Design.result, s.Design.cycles);
          Alcotest.(check bool) (what ^ ": globals") true
            (named_eq Bitvec.equal s.Design.globals b.Design.globals);
          Alcotest.(check bool) (what ^ ": memories") true
            (s.Design.memories <> []
            && named_eq memory_eq s.Design.memories b.Design.memories);
          Alcotest.(check bool) (what ^ ": states visited") true
            (metric s "sim.states_visited" <> None
            && metric s "sim.states_visited" = metric b "sim.states_visited");
          Alcotest.(check bool) (what ^ ": engine") true
            (metric s "sim.engine"
            = Some (Metrics.String (Design.engine_name sim)));
          Alcotest.(check string) (what ^ ": waveform") b_vcd s_vcd)
        [ Design.Compiled; Design.Event_driven ])
    w.Workloads.arg_sets

(* --- designs the int engines cannot hold run on the oracle --- *)

let compile_design source backend =
  match
    Driver.compile (Driver.create ~entry:"f" source) (Registry.get backend)
  with
  | Ok d -> d
  | Error e -> Alcotest.fail (backend ^ ": " ^ Driver.render_error e)

let sim_engine (r : Design.run_result) =
  match Metrics.find r.Design.metrics "sim.engine" with
  | Some (Metrics.String s) -> s
  | _ -> "<none>"

(* A 64-bit program: every signal of [f] is wider than the int engines'
   62 bits, so every FSMD, netlist and stack-machine design of it runs on
   its oracle, whichever engine is asked for, with the same answer, the
   same counters and the same waveform, and the engine cross-check says
   it does not apply. *)
let wide_source =
  "long g; long f(long a, long b) { long r = a * b + (a >> 3); g = r ^ b; \
   return r; }"

let test_wide_designs_run_on_the_oracle () =
  let args =
    [ Bitvec.make ~width:64 (Int64.shift_left 1L 40); Bitvec.make ~width:64 3L ]
  in
  let expected_cycles = function
    | "transmogrifier" -> Some 1
    | "c2verilog" -> Some 38
    | "cones" -> None
    | _ -> Some 2
  in
  List.iter
    (fun backend ->
      let d = compile_design wide_source backend in
      let run sim =
        let v = Vcd.create () in
        let r =
          match sim with
          | None -> d.Design.run ~vcd:v args
          | Some sim -> d.Design.run ~vcd:v ~sim args
        in
        (r, Vcd.contents v)
      in
      let default, default_vcd = run None in
      List.iter
        (fun sim ->
          let what = backend ^ " on " ^ Design.engine_name sim in
          let r, _ = run (Some sim) in
          Alcotest.(check (option int64)) (what ^ ": result")
            (Some 3435973836800L)
            (Option.map Bitvec.to_int64_signed r.Design.result);
          Alcotest.(check (option int64)) (what ^ ": global g")
            (Some 3435973836803L)
            (Option.map Bitvec.to_int64_signed
               (List.assoc_opt "g" r.Design.globals));
          Alcotest.(check string) (what ^ ": sim.engine") "event"
            (sim_engine r);
          Alcotest.(check (option int)) (what ^ ": cycles")
            (expected_cycles backend) r.Design.cycles;
          if backend = "cones" then begin
            Alcotest.(check (option (float 0.))) (what ^ ": time units")
              (Some 31.) r.Design.time_units;
            Alcotest.(check bool) (what ^ ": 10 nodes evaluated, 9 events")
              true
              (Metrics.find r.Design.metrics "sim.nodes_evaluated"
               = Some (Metrics.Int 10)
              && Metrics.find r.Design.metrics "sim.events"
                 = Some (Metrics.Int 9))
          end)
        [ Design.Compiled; Design.Event_driven ];
      let _, event_vcd = run (Some Design.Event_driven) in
      Alcotest.(check string) (backend ^ ": default VCD = event VCD")
        event_vcd default_vcd;
      Alcotest.(check string) (backend ^ ": default run's sim.engine") "event"
        (sim_engine default);
      (* no compiled engine ran, so there is nothing to cross-check *)
      Alcotest.(check (option (list string)))
        (backend ^ ": engine cross-check does not apply") None
        (Driver.engine_mismatches d ~args:[ 1 lsl 40; 3 ]))
    [ "cones"; "transmogrifier"; "hardwarec"; "bachc"; "cyber"; "specc";
      "systemc"; "c2verilog" ]

(* C2Verilog's int engine holds a design whose arguments fit an OCaml
   int; a run whose arguments do not fit goes to the oracle, run by
   run. *)
let test_c2verilog_argument_check () =
  let d = compile_design "int f(int a) { return a + 1; }" "c2verilog" in
  List.iter
    (fun (arg, result, engine) ->
      let r = d.Design.run [ Bitvec.make ~width:64 arg ] in
      let what = Printf.sprintf "f(%Ld)" arg in
      Alcotest.(check (option int)) (what ^ ": result") (Some result)
        (Option.map Bitvec.to_int r.Design.result);
      Alcotest.(check (option int)) (what ^ ": cycles") (Some 9)
        r.Design.cycles;
      Alcotest.(check string) (what ^ ": sim.engine") engine (sim_engine r))
    [ (41L, 42, "compiled");
      (Int64.min_int, 1, "event");
      (0x4000_0000_0000_0000L, 1, "event");
      (41L, 42, "compiled") ]

(* Each compiled engine holds only what its [compilable] accepts: [create]
   refuses the wide program's FSMD, netlist and stack machine, and an
   argument vector with a 64-bit pattern no OCaml int carries has no
   words, so no run can take it to C2Verilog's int engine. *)
let test_engines_refuse () =
  let refuses what compilable create =
    Alcotest.(check bool) (what ^ ": compilable") false compilable;
    match create () with
    | () -> Alcotest.fail (what ^ ": create took a design it cannot hold")
    | exception Invalid_argument _ -> ()
  in
  let _, fsmd, nl = build wide_source ~entry:"f" in
  refuses "Fsmdcomp" (Fsmdcomp.compilable fsmd) (fun () ->
      ignore (Fsmdcomp.create fsmd));
  refuses "Netcomp" (Netcomp.compilable nl) (fun () ->
      ignore (Netcomp.create nl));
  (match (compile_design wide_source "c2verilog").Design.artifact with
  | Design.Stack_machine { compiled; ret_width } ->
    refuses "C2vcomp" (C2vcomp.compilable compiled) (fun () ->
        ignore (C2vcomp.create compiled ~ret_width))
  | _ -> Alcotest.fail "c2verilog built no stack machine");
  List.iter
    (fun (pattern, fits) ->
      Alcotest.(check bool)
        (Printf.sprintf "C2vcomp.words [0x%Lx]" pattern)
        fits
        (Option.is_some (C2vcomp.words [ Bitvec.make ~width:64 pattern ])))
    [ (41L, true);
      (0x3FFF_FFFF_FFFF_FFFFL, true);
      (0xC000_0000_0000_0000L, true);
      (0x4000_0000_0000_0000L, false);
      (0xBFFF_FFFF_FFFF_FFFFL, false);
      (Int64.min_int, false) ]

(* --- random programs: property versions of the same checks --- *)

let gen_inputs =
  QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)

let prop_fsmd_compiled_equals_interpreter =
  QCheck.Test.make
    ~name:"compiled FSMD engine = Rtlsim on random programs (outcome + VCD)"
    ~count:100
    (QCheck.pair Test_random.arb_program gen_inputs)
    (fun (src, (a, b)) ->
      let _, fsmd, _ = build src ~entry:"f" in
      let args = args_of [ a; b ] in
      let oc = fsmdcomp_run fsmd ~args in
      let oi = Rtlsim.run fsmd ~args in
      if not (outcome_eq oc oi) then
        QCheck.Test.fail_reportf
          "compiled FSMD outcome diverged from Rtlsim on:\n%s\ninputs %d,%d"
          src a b
      else
        let vc = fsmd_vcd (fun ~trace f -> fsmdcomp_run ~trace f ~args) fsmd in
        let vi = fsmd_vcd (fun ~trace f -> Rtlsim.run ~trace f ~args) fsmd in
        if vc <> vi then
          QCheck.Test.fail_reportf
            "compiled FSMD VCD diverged from Rtlsim on:\n%s\ninputs %d,%d" src
            a b
        else true)

let prop_netlist_engines_agree =
  QCheck.Test.make
    ~name:
      "compiled, event-driven and full-sweep netlist engines agree on random \
       programs (outputs + cycles + VCD)"
    ~count:100
    (QCheck.pair Test_random.arb_program gen_inputs)
    (fun (src, (a, b)) ->
      let func, _, nl = build src ~entry:"f" in
      let inputs = inputs_of func (args_of [ a; b ]) in
      match
        ( netcomp_probed nl ~inputs,
          neteval_probed ~strategy:Neteval.Event_driven nl ~inputs,
          neteval_probed ~strategy:Neteval.Full_sweep nl ~inputs )
      with
      | None, None, None -> true
      | Some (c_out, c_cyc, c_vcd), Some (e_out, e_cyc, e_vcd),
        Some (s_out, s_cyc, s_vcd) ->
        if c_cyc <> e_cyc || c_cyc <> s_cyc then
          QCheck.Test.fail_reportf
            "cycle counts diverged (compiled %d, event %d, sweep %d) on:\n%s"
            c_cyc e_cyc s_cyc src
        else if
          not
            (named_eq Bitvec.equal c_out e_out
            && named_eq Bitvec.equal c_out s_out)
        then
          QCheck.Test.fail_reportf
            "outputs diverged between netlist engines on:\n%s\ninputs %d,%d"
            src a b
        else if c_vcd <> e_vcd || s_vcd <> e_vcd then
          QCheck.Test.fail_reportf
            "probe change streams diverged between netlist engines on:\n\
             %s\ninputs %d,%d"
            src a b
        else true
      | _ ->
        QCheck.Test.fail_reportf "timeout under only some netlist engines on:\n%s"
          src)

(* The two operator tables: Intalu.binop (the compiled engines, unboxed
   ints) and Netlist.apply_binop (the Bitvec simulators) must agree on
   every binop, exhaustively at widths 1-8 and on seeded random pairs at
   widths 9-62.  The random operands lean on the edges (0, 1, all ones,
   the sign bit) and the shift amounts on [0, w+1], where the two tables'
   conventions could part. *)
let binops =
  Netlist.
    [ B_add; B_sub; B_mul; B_udiv; B_urem; B_sdiv; B_srem; B_and; B_or;
      B_xor; B_shl; B_lshr; B_ashr; B_eq; B_ne; B_ult; B_ule; B_slt; B_sle ]

let test_operator_tables_agree () =
  let cases = ref 0 and disagree = ref [] in
  let check op w a b =
    incr cases;
    let got = Intalu.binop (Intalu.binop_index op) w a b in
    let want =
      Bitvec.to_int_unsigned
        (Netlist.apply_binop op (Bitvec.of_int ~width:w a)
           (Bitvec.of_int ~width:w b))
    in
    if got <> want && List.length !disagree < 5 then
      disagree :=
        Printf.sprintf "op %d, width %d: %d, %d -> %d, Bitvec %d"
          (Intalu.binop_index op) w a b got want
        :: !disagree
  in
  for w = 1 to 8 do
    List.iter
      (fun op ->
        for a = 0 to Intalu.masks.(w) do
          for b = 0 to Intalu.masks.(w) do
            check op w a b
          done
        done)
      binops
  done;
  let rng = Random.State.make [| 2026 |] in
  for w = 9 to Intalu.width_limit do
    let mask = Intalu.masks.(w) in
    let edges = [| 0; 1; mask; mask - 1; 1 lsl (w - 1); (1 lsl (w - 1)) - 1 |] in
    let operand () =
      if Random.State.int rng 4 = 0 then
        edges.(Random.State.int rng (Array.length edges))
      else Random.State.bits rng lor (Random.State.bits rng lsl 30) land mask
    in
    List.iter
      (fun op ->
        for _ = 1 to 400 do
          let a = operand () in
          let b =
            match op with
            | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr
              when Random.State.bool rng ->
              Random.State.int rng (w + 2)
            | _ -> operand ()
          in
          check op w a b
        done)
      binops
  done;
  Alcotest.(check int) "cases checked" (1_660_220 + (54 * 19 * 400)) !cases;
  Alcotest.(check (list string)) "Intalu and Bitvec disagree on" []
    (List.rev !disagree)

let suite =
  ( "simcomp",
    [ Alcotest.test_case "pinned gcd equivalence" `Quick
        (check_kernel Workloads.gcd);
      Alcotest.test_case "pinned isqrt-newton equivalence" `Quick
        (check_kernel Workloads.isqrt_newton);
      Alcotest.test_case "pinned crc equivalence" `Quick
        (check_kernel Workloads.crc);
      Alcotest.test_case "FSMD engine reuse" `Quick test_fsmd_engine_reuse;
      Alcotest.test_case "netlist engine reset" `Quick
        test_netlist_engine_reset;
      Alcotest.test_case "systemc answers like bachc" `Quick
        test_systemc_answers_like_bachc;
      Alcotest.test_case "wide designs run on the oracle" `Quick
        test_wide_designs_run_on_the_oracle;
      Alcotest.test_case "c2verilog argument check" `Quick
        test_c2verilog_argument_check;
      Alcotest.test_case "engines refuse what they cannot hold" `Quick
        test_engines_refuse;
      Alcotest.test_case "operator tables agree" `Quick
        test_operator_tables_agree;
      QCheck_alcotest.to_alcotest prop_fsmd_compiled_equals_interpreter;
      QCheck_alcotest.to_alcotest prop_netlist_engines_agree ] )
