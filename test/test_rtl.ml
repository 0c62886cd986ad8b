(* RTL layer tests: FSMD construction, the cycle-accurate simulator's
   state accounting, netlist elaboration details (INIT/DONE protocol,
   write-port muxing, error cases) and Verilog emission hygiene. *)

let lower src ~entry =
  let program = Typecheck.parse_and_check src in
  fst (Simplify.simplify (Lower.lower_program program ~entry).Lower.func)

let gcd_func =
  lower
    "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }"
    ~entry:"gcd"

let default_fsmd func =
  Fsmd.of_func func ~schedule_block:(fun blk ->
      Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs)

let test_fsmd_state_structure () =
  let fsmd = default_fsmd gcd_func in
  (* at least one state per block, entry state valid *)
  Alcotest.(check bool) "states cover blocks" true
    (Fsmd.num_states fsmd >= Cir.num_blocks gcd_func);
  Alcotest.(check bool) "entry in range" true
    (fsmd.Fsmd.entry >= 0 && fsmd.Fsmd.entry < Fsmd.num_states fsmd);
  (* every transition target is a valid state *)
  Array.iter
    (fun st ->
      match st.Fsmd.next with
      | Fsmd.N_goto t ->
        Alcotest.(check bool) "goto in range" true
          (t >= 0 && t < Fsmd.num_states fsmd)
      | Fsmd.N_branch { if_true; if_false; _ } ->
        Alcotest.(check bool) "branch in range" true
          (if_true >= 0 && if_true < Fsmd.num_states fsmd
          && if_false >= 0 && if_false < Fsmd.num_states fsmd)
      | Fsmd.N_halt _ -> ())
    fsmd.Fsmd.states

let test_serial_policy_one_instr_per_state () =
  let fsmd =
    Fsmd.of_func gcd_func ~schedule_block:(Fsmd.serial_schedule gcd_func)
  in
  Array.iter
    (fun st ->
      Alcotest.(check bool) "at most one action" true
        (List.length st.Fsmd.actions <= 1))
    fsmd.Fsmd.states

let test_rtlsim_state_profile () =
  let fsmd = default_fsmd gcd_func in
  let outcome =
    Rtlsim.run fsmd ~args:[ Bitvec.of_int ~width:64 54; Bitvec.of_int ~width:64 24 ]
  in
  (* the profile sums to the cycle count *)
  Alcotest.(check int) "profile sums to cycles" outcome.Rtlsim.cycles
    (Array.fold_left ( + ) 0 outcome.Rtlsim.states_visited);
  Alcotest.(check int) "gcd(54,24)" 6
    (Bitvec.to_int (Option.get outcome.Rtlsim.return_value))

let test_rtlsim_timeout () =
  let func =
    lower "int f(void) { while (1) { } return 0; }" ~entry:"f"
  in
  let fsmd = default_fsmd func in
  match Rtlsim.run ~max_cycles:100 fsmd ~args:[] with
  | exception Rtlsim.Timeout _ -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_elaboration_init_done_protocol () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  (* the elaborated netlist takes exactly one more cycle than the FSMD
     simulator (the INIT state) *)
  let args = [ Bitvec.of_int ~width:64 1071; Bitvec.of_int ~width:64 462 ] in
  let rtl = Rtlsim.run fsmd ~args in
  match Rtlgen.simulate e ~args ~func:gcd_func with
  | Ok (outputs, cycles, _) ->
    Alcotest.(check int) "one INIT cycle overhead" (rtl.Rtlsim.cycles + 1)
      cycles;
    Alcotest.(check int) "same result" 21
      (Bitvec.to_int (List.assoc "result" outputs));
    Alcotest.(check int) "done asserted" 1
      (Bitvec.to_int_unsigned (List.assoc "done" outputs))
  | Error `Timeout -> Alcotest.fail "netlist timeout"

let test_elaboration_memory_write_mux () =
  (* a design with stores in several states still elaborates to a single
     muxed write port per memory *)
  let func =
    lower
      {|
      int buf[4];
      int f(int a) {
        buf[0] = a;
        buf[1] = a * 2;
        buf[2] = a * 3;
        return buf[0] + buf[1] + buf[2];
      }
      |}
      ~entry:"f"
  in
  let fsmd = default_fsmd func in
  let e = Rtlgen.elaborate fsmd in
  let nl = e.Rtlgen.netlist in
  Alcotest.(check int) "one memory" 1 (Array.length (Netlist.mems nl));
  Alcotest.(check bool) "write port connected" true
    ((Netlist.mems nl).(0).Netlist.write_port <> None);
  match Rtlgen.simulate e ~args:[ Bitvec.of_int ~width:64 5 ] ~func with
  | Ok (outputs, _, _) ->
    Alcotest.(check int) "muxed stores work" 30
      (Bitvec.to_int (List.assoc "result" outputs))
  | Error `Timeout -> Alcotest.fail "timeout"

let test_verilog_hygiene () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let v = Verilog.to_string e.Rtlgen.netlist in
  let count_substring needle =
    let n = String.length needle and total = ref 0 in
    for i = 0 to String.length v - n do
      if String.sub v i n = needle then incr total
    done;
    !total
  in
  Alcotest.(check int) "exactly one module" 1 (count_substring "module gcd");
  Alcotest.(check int) "one endmodule" 1 (count_substring "endmodule");
  Alcotest.(check bool) "inputs declared" true
    (count_substring "input wire" >= 3); (* clk, a, b *)
  Alcotest.(check bool) "outputs declared" true
    (count_substring "output wire" >= 2); (* done, result *)
  (* no unprintable characters, no dangling assigns to w-1 *)
  Alcotest.(check int) "no negative signal names" 0 (count_substring "w-1")

let test_verilog_literals () =
  Alcotest.(check string) "bv literal"
    "8'hff"
    (Verilog.bv_literal (Bitvec.of_int ~width:8 255));
  Alcotest.(check string) "sanitize" "a_b_c" (Verilog.sanitize "a.b c")

let test_netlist_eval_combinational () =
  (* direct netlist building and evaluation *)
  let nl = Netlist.create ~name:"addmul" () in
  let a = Netlist.input nl "a" ~width:16 in
  let b = Netlist.input nl "b" ~width:16 in
  let sum = Netlist.binop nl Netlist.B_add a b in
  let prod = Netlist.binop nl Netlist.B_mul a b in
  let sel = Netlist.binop nl Netlist.B_ult a b in
  let out = Netlist.mux nl ~sel ~if_true:sum ~if_false:prod in
  Netlist.set_output nl "out" out;
  let eval a_v b_v =
    let outputs, _ =
      Neteval.eval_combinational nl
        ~inputs:
          [ ("a", Bitvec.of_int ~width:16 a_v);
            ("b", Bitvec.of_int ~width:16 b_v) ]
    in
    Bitvec.to_int_unsigned (List.assoc "out" outputs)
  in
  Alcotest.(check int) "a<b: sum" 7 (eval 3 4);
  Alcotest.(check int) "a>=b: product" 12 (eval 4 3)

let test_netlist_sequential_counter () =
  (* a counter with enable, run via settle/tick *)
  let nl = Netlist.create ~name:"counter" () in
  let en = Netlist.input nl "en" ~width:1 in
  let count = Netlist.reg_forward nl ~init:(Bitvec.zero 8) in
  let one = Netlist.const_int nl ~width:8 1 in
  let next = Netlist.binop nl Netlist.B_add count one in
  Netlist.reg_connect nl count ~next ~enable:en ();
  Netlist.set_output nl "count" count;
  let sim = Neteval.create nl in
  let step en_v =
    Neteval.settle sim ~inputs:[ ("en", Bitvec.of_int ~width:1 en_v) ];
    let v = Bitvec.to_int_unsigned (Neteval.output sim "count") in
    Neteval.tick sim;
    v
  in
  (* fold_left guarantees left-to-right stepping (a list literal of calls
     would evaluate right to left) *)
  let observed =
    List.rev
      (List.fold_left (fun acc en -> step en :: acc) [] [ 1; 1; 0; 0; 1; 1 ])
  in
  Alcotest.(check (list int)) "enable gates counting"
    [ 0; 1; 2; 2; 2; 3 ] observed

let test_netlist_event_driven_matches_sweep () =
  (* the two settle strategies must agree on outputs, cycle count and the
     number of value-change events; event-driven must evaluate fewer nodes *)
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let args = [ Bitvec.of_int ~width:64 1071; Bitvec.of_int ~width:64 462 ] in
  let run strategy =
    match Rtlgen.simulate ~strategy e ~args ~func:gcd_func with
    | Ok r -> r
    | Error `Timeout -> Alcotest.fail "timeout"
  in
  let ev_out, ev_cycles, ev = run Neteval.Event_driven in
  let fs_out, fs_cycles, fs = run Neteval.Full_sweep in
  Alcotest.(check int) "same cycle count" fs_cycles ev_cycles;
  Alcotest.(check int) "same result" 21
    (Bitvec.to_int (List.assoc "result" ev_out));
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "output order" n1 n2;
      Alcotest.(check bool) ("output " ^ n1 ^ " bit-exact") true
        (Bitvec.equal v1 v2))
    fs_out ev_out;
  Alcotest.(check int) "same change events" fs.Neteval.events
    ev.Neteval.events;
  Alcotest.(check bool) "fewer node evaluations" true
    (ev.Neteval.nodes_evaluated < fs.Neteval.nodes_evaluated);
  (* the full sweep evaluates every node on every settle *)
  Alcotest.(check int) "sweep evals = nodes x settles"
    (Netlist.length e.Rtlgen.netlist * fs.Neteval.settles)
    fs.Neteval.nodes_evaluated

let test_netlist_unknown_output_error () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let sim = Neteval.create e.Rtlgen.netlist in
  match Neteval.output sim "no_such_port" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the missing output" true
      (String.length msg > 0
      && (let contains needle =
            let n = String.length needle in
            let found = ref false in
            for i = 0 to String.length msg - n do
              if String.sub msg i n = needle then found := true
            done;
            !found
          in
          contains "no_such_port" && contains "done"))

let test_netlist_fanout_index () =
  (* fanout edges point forward and invert comb_deps exactly *)
  let fsmd = default_fsmd gcd_func in
  let nl = (Rtlgen.elaborate fsmd).Rtlgen.netlist in
  let f = Netlist.fanouts nl in
  let edges_from_deps = ref 0 and edges_from_fanouts = ref 0 in
  for s = 0 to Netlist.length nl - 1 do
    List.iter
      (fun d ->
        incr edges_from_deps;
        Alcotest.(check bool) "dep already created" true (d < s);
        Alcotest.(check bool) "dep's fanout lists user" true
          (Array.exists (fun u -> u = s) f.(d)))
      (Netlist.comb_deps (Netlist.node nl s));
    edges_from_fanouts := !edges_from_fanouts + Array.length f.(s)
  done;
  Alcotest.(check int) "edge counts match" !edges_from_deps
    !edges_from_fanouts

(* Folding agrees with evaluation.  Each operator the builder folds (the 3
   unops, the 19 binops, a mux, zext and the extracts and extensions
   behind resize) is built once over inputs, settled by Neteval and (up
   to 62 bits) Netcomp, and once over constants, where the builder must
   fold it to a [Const]: the three values must be equal.  Exhaustive at
   widths 1-8; at 9-64 on seeded operands that lean on the edges, and on
   small second operands (shift amounts, divisors) a quarter of the
   time. *)
let unops = Netlist.[ U_not; U_neg; U_reduce_or ]
let shift op = List.mem op Netlist.[ B_shl; B_lshr; B_ashr ]

let operators nl w ~a ~b ~sel =
  let wide = if w <= Intalu.width_limit then Intalu.width_limit else 64 in
  let targets =
    List.sort_uniq compare
      (List.filter
         (fun t -> t >= 1 && t <= wide && t <> w)
         [ 1; w - 1; w + 1; wide ])
  in
  List.map (fun op -> (Netlist.string_of_unop op, Netlist.unop nl op a)) unops
  @ List.map
      (fun op -> (Netlist.string_of_binop op, Netlist.binop nl op a b))
      Test_simcomp.binops
  @ [ ("mux", Netlist.mux nl ~sel ~if_true:a ~if_false:b) ]
  @ List.concat_map
      (fun t ->
        (if t > w then
           [ (Printf.sprintf "zext %d" t, Netlist.zext nl ~width:t a) ]
         else [])
        @ List.map
            (fun signed ->
              ( Printf.sprintf "resize %b %d" signed t,
                Netlist.resize nl ~signed ~width:t a ))
            [ false; true ])
      targets

let test_folding_agrees_with_evaluation () =
  let cases = ref 0 and compiled = ref 0 and disagree = ref [] in
  let rng = Random.State.make [| 2026 |] in
  for w = 1 to 64 do
    let nl = Netlist.create () in
    let a = Netlist.input nl "a" ~width:w
    and b = Netlist.input nl "b" ~width:w
    and sel = Netlist.input nl "s" ~width:1 in
    let evaluated = operators nl w ~a ~b ~sel in
    let neteval = Neteval.create nl in
    let netcomp =
      if Netcomp.compilable nl then Some (Netcomp.create nl) else None
    in
    if Option.is_some netcomp then incr compiled;
    let folds = Netlist.create () in
    let check av bv sv =
      let av = Bitvec.of_int64 ~width:w av
      and bv = Bitvec.of_int64 ~width:w bv
      and sv = Bitvec.of_int ~width:1 sv in
      let inputs = [ ("a", av); ("b", bv); ("s", sv) ] in
      Neteval.settle neteval ~inputs;
      Option.iter (fun c -> Netcomp.settle c ~inputs) netcomp;
      let folded =
        operators folds w ~a:(Netlist.const folds av)
          ~b:(Netlist.const folds bv) ~sel:(Netlist.const folds sv)
      in
      List.iter2
        (fun (what, s) (_, f) ->
          incr cases;
          let folded =
            match Netlist.node folds f with
            | Netlist.Const v -> Some v
            | _ -> None
          and neteval = Neteval.value neteval s
          and netcomp = Option.map (fun c -> Netcomp.value c s) netcomp in
          let agree =
            match folded with
            | Some v ->
              Bitvec.equal v neteval
              && Option.fold ~none:true ~some:(Bitvec.equal v) netcomp
            | None -> false
          in
          let show = Option.fold ~none:"-" ~some:Bitvec.to_string in
          if (not agree) && List.length !disagree < 5 then
            disagree :=
              Printf.sprintf
                "%s at width %d on %s, %s, %s: folded %s, Neteval %s, \
                 Netcomp %s"
                what w (Bitvec.to_string av) (Bitvec.to_string bv)
                (Bitvec.to_string sv) (show folded) (Bitvec.to_string neteval)
                (show netcomp)
              :: !disagree)
        evaluated folded
    in
    if w <= 8 then
      for av = 0 to (1 lsl w) - 1 do
        for bv = 0 to (1 lsl w) - 1 do
          for sv = 0 to 1 do
            check (Int64.of_int av) (Int64.of_int bv) sv
          done
        done
      done
    else begin
      let mask = if w = 64 then -1L else Int64.(sub (shift_left 1L w) 1L) in
      let sign = Int64.shift_left 1L (w - 1) in
      let edges = [| 0L; 1L; mask; Int64.pred mask; sign; Int64.pred sign |] in
      let operand () =
        if Random.State.int rng 4 = 0 then
          edges.(Random.State.int rng (Array.length edges))
        else Int64.logand (Random.State.bits64 rng) mask
      in
      for _ = 1 to 400 do
        let av = operand () in
        let bv =
          if Random.State.int rng 4 = 0 then
            Int64.of_int (Random.State.int rng (w + 2))
          else operand ()
        in
        check av bv (Random.State.int rng 2)
      done
    end
  done;
  Alcotest.(check (list string)) "folded and evaluated values differ on" []
    (List.rev !disagree);
  Alcotest.(check int) "cases checked" 6_498_984 !cases;
  Alcotest.(check int) "widths Netcomp settled" Intalu.width_limit !compiled;
  (* operands of unequal widths stay a node wherever Bitvec needs equal
     widths (it raises Width_mismatch, or compares them unequal); a shift
     amount may have any width *)
  let nl = Netlist.create () in
  let x = Bitvec.of_int ~width:8 5 and y = Bitvec.of_int ~width:9 3 in
  List.iter
    (fun op ->
      let s = Netlist.binop nl op (Netlist.const nl x) (Netlist.const nl y) in
      let what = Netlist.string_of_binop op ^ " of 8- and 9-bit constants" in
      match Netlist.node nl s with
      | Netlist.Const v when shift op ->
        Alcotest.(check string) what
          (Bitvec.to_string (Netlist.apply_binop op x y))
          (Bitvec.to_string v)
      | Netlist.Binop _ when not (shift op) -> ()
      | _ -> Alcotest.fail (what ^ ": a shift folds, any other op stays"))
    Test_simcomp.binops

(* What the builder guarantees of every netlist Cones and Rtlgen.elaborate
   build for the workload suite: no two combinational nodes are equal (same
   kind, same operands), no operator has only constant operands (bar
   operands of unequal widths where Bitvec requires equal ones), and no
   mux has a constant select or equal arms.  Each kernel's Cones node
   count is pinned. *)
let cones_nodes =
  [ ("fir", 48); ("dotprod", 84); ("matmul", 196); ("crc", 165);
    ("checksum", 56); ("histogram", 993); ("adpcm", 800); ("aes_sbox", 1527);
    ("iir", 228); ("odd_even_sort", 210); ("crc32", 326); ("adler32", 138) ]

let builder_violations nl =
  let seen = Hashtbl.create 256 and bad = ref [] in
  let const s =
    match Netlist.node nl s with Netlist.Const _ -> true | _ -> false
  in
  for s = 0 to Netlist.length nl - 1 do
    let node = Netlist.node nl s in
    let complain what = bad := Printf.sprintf "node %d %s" s what :: !bad in
    (match node with
    | Netlist.Input _ | Netlist.Reg _ | Netlist.Mem_read _ -> ()
    | _ -> (
      match Hashtbl.find_opt seen node with
      | Some first -> complain (Printf.sprintf "repeats node %d" first)
      | None -> Hashtbl.add seen node s));
    match node with
    | Netlist.Mux { sel; if_true; if_false } ->
      if const sel then complain "is a mux with a constant select";
      if if_true = if_false then complain "is a mux with equal arms"
    | Netlist.Binop (op, a, b)
      when const a && const b
           && (Netlist.width nl a = Netlist.width nl b || shift op) ->
      complain "is an operator over constants"
    | Netlist.Unop (_, a)
    | Netlist.Extract { arg = a; _ }
    | Netlist.Zext { arg = a; _ }
    | Netlist.Sext { arg = a; _ }
      when const a -> complain "is an operator over a constant"
    | Netlist.Concat { hi; lo } when const hi && const lo ->
      complain "is a concat of constants"
    | _ -> ()
  done;
  List.rev !bad

let test_builder_invariants () =
  let cones = ref [] and bad = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      let session = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
      List.iter
        (fun backend ->
          match Driver.compile session backend with
          | Error _ -> ()
          | Ok d -> (
            match d.Design.netlist () with
            | None -> ()
            | Some nl ->
              let name = Registry.name backend in
              if name = "cones" then
                cones := (w.Workloads.name, Netlist.length nl) :: !cones;
              List.iter
                (fun v ->
                  bad := Printf.sprintf "%s on %s: %s" w.Workloads.name name v
                         :: !bad)
                (builder_violations nl)))
        (Registry.compiling ()))
    Workloads.all;
  Alcotest.(check (list string)) "builder violations" []
    (List.filteri (fun i _ -> i < 10) (List.rev !bad));
  Alcotest.(check (list (pair string int))) "Cones nodes per kernel"
    cones_nodes (List.rev !cones);
  Alcotest.(check bool) "the Cones suite stays within 5,000 nodes" true
    (List.fold_left (fun n (_, k) -> n + k) 0 !cones <= 5_000)

let test_area_model_monotone () =
  (* wider operators must never be cheaper or faster *)
  List.iter
    (fun op ->
      let a8 = (Area.binop_cost op 8).Area.area
      and a32 = (Area.binop_cost op 32).Area.area in
      Alcotest.(check bool) "area grows with width" true (a32 >= a8);
      let d8 = (Area.binop_cost op 8).Area.delay
      and d32 = (Area.binop_cost op 32).Area.delay in
      Alcotest.(check bool) "delay grows with width" true (d32 >= d8))
    [ Netlist.B_add; Netlist.B_mul; Netlist.B_udiv; Netlist.B_shl;
      Netlist.B_slt; Netlist.B_and ];
  (* multiplier much bigger than adder at same width *)
  Alcotest.(check bool) "mul >> add" true
    ((Area.binop_cost Netlist.B_mul 32).Area.area
    > 4. *. (Area.binop_cost Netlist.B_add 32).Area.area)

let test_area_report_of_design () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let report = Area.analyze e.Rtlgen.netlist in
  Alcotest.(check bool) "positive total" true (report.Area.total_area > 0.);
  Alcotest.(check bool) "has registers" true (report.Area.num_registers > 0);
  Alcotest.(check bool) "critical path positive" true
    (report.Area.critical_path > 0.);
  Alcotest.(check bool) "comb + reg + mem = total" true
    (Float.abs
       (report.Area.combinational_area +. report.Area.register_area
       +. report.Area.memory_area -. report.Area.total_area)
    < 1e-6)

let suite =
  ( "rtl",
    [ Alcotest.test_case "fsmd state structure" `Quick
        test_fsmd_state_structure;
      Alcotest.test_case "serial policy" `Quick
        test_serial_policy_one_instr_per_state;
      Alcotest.test_case "rtlsim state profile" `Quick
        test_rtlsim_state_profile;
      Alcotest.test_case "rtlsim timeout" `Quick test_rtlsim_timeout;
      Alcotest.test_case "elaboration INIT/DONE protocol" `Quick
        test_elaboration_init_done_protocol;
      Alcotest.test_case "elaboration memory write mux" `Quick
        test_elaboration_memory_write_mux;
      Alcotest.test_case "verilog hygiene" `Quick test_verilog_hygiene;
      Alcotest.test_case "verilog literals" `Quick test_verilog_literals;
      Alcotest.test_case "netlist combinational eval" `Quick
        test_netlist_eval_combinational;
      Alcotest.test_case "netlist sequential counter" `Quick
        test_netlist_sequential_counter;
      Alcotest.test_case "netlist event-driven vs full sweep" `Quick
        test_netlist_event_driven_matches_sweep;
      Alcotest.test_case "netlist unknown output error" `Quick
        test_netlist_unknown_output_error;
      Alcotest.test_case "netlist fanout index" `Quick
        test_netlist_fanout_index;
      Alcotest.test_case "folding agrees with evaluation" `Quick
        test_folding_agrees_with_evaluation;
      Alcotest.test_case "builder invariants over the workloads" `Quick
        test_builder_invariants;
      Alcotest.test_case "area model monotone" `Quick test_area_model_monotone;
      Alcotest.test_case "area report" `Quick test_area_report_of_design ] )
