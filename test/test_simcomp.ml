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
      let oc = Fsmdcomp.run fsmd ~args in
      let oi = Rtlsim.run fsmd ~args in
      Alcotest.(check bool)
        (Printf.sprintf "%s: compiled outcome = interpreter outcome"
           w.Workloads.name)
        true (outcome_eq oc oi);
      Alcotest.(check string)
        (Printf.sprintf "%s: compiled VCD = interpreter VCD" w.Workloads.name)
        (fsmd_vcd (fun ~trace f -> Rtlsim.run ~trace f ~args) fsmd)
        (fsmd_vcd (fun ~trace f -> Fsmdcomp.run ~trace f ~args) fsmd);
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
  Alcotest.(check bool) "gcd runs on the closure engine" true
    (Fsmdcomp.compiled eng);
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
  Alcotest.(check bool) "crc runs on the closure engine" true
    (Netcomp.compiled eng);
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
      let oc = Fsmdcomp.run fsmd ~args in
      let oi = Rtlsim.run fsmd ~args in
      if not (outcome_eq oc oi) then
        QCheck.Test.fail_reportf
          "compiled FSMD outcome diverged from Rtlsim on:\n%s\ninputs %d,%d"
          src a b
      else
        let vc = fsmd_vcd (fun ~trace f -> Fsmdcomp.run ~trace f ~args) fsmd in
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
   ints) and Neteval.apply_binop (the Bitvec simulators) must agree on
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
        (Neteval.apply_binop op (Bitvec.of_int ~width:w a)
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
      Alcotest.test_case "operator tables agree" `Quick
        test_operator_tables_agree;
      QCheck_alcotest.to_alcotest prop_fsmd_compiled_equals_interpreter;
      QCheck_alcotest.to_alcotest prop_netlist_engines_agree ] )
