(* FSMD -> netlist elaboration.

   Produces a synthesizable word-level netlist: a binary-encoded state
   register, one datapath operator per scheduled instruction instance
   (same-state chains become wires exactly as the scheduler assumed), one
   register per CIR register with a per-state write mux, and one RAM per
   region with a muxed write port.

   Protocol: two virtual states are appended — INIT (the reset state,
   loads the parameter registers from the input ports) and DONE
   (absorbing).  Outputs: "result" (the returned value), "done" (1 in the
   DONE state), and one output per scalar global.  The elaborated design
   therefore takes exactly one cycle more than the FSMD simulator reports
   (the INIT cycle); tests compare outputs, and cycle counts via the FSMD
   simulator. *)

exception Elaboration_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Elaboration_error m)) fmt

type elaborated = {
  netlist : Netlist.t;
  done_state : int;
  init_state : int;
}

let elaborate (fsmd : Fsmd.t) : elaborated =
  let func = fsmd.Fsmd.func in
  let nstates = Fsmd.num_states fsmd in
  let done_state = nstates and init_state = nstates + 1 in
  let state_width = max 1 (Area.log2_ceil (nstates + 2)) in
  let nl = Netlist.create ~name:func.Cir.fn_name () in
  (* state register, reset into INIT *)
  let state_reg =
    Netlist.reg_forward nl ~init:(Bitvec.of_int ~width:state_width init_state)
  in
  (* primary inputs *)
  let param_inputs =
    List.map
      (fun (name, r) ->
        (r, Netlist.input nl name ~width:(Cir.reg_width func r)))
      func.Cir.fn_params
  in
  (* CIR registers: create register nodes (params/globals with init) *)
  let global_inits = Hashtbl.create 8 in
  List.iter
    (fun (_, r, init) -> Hashtbl.replace global_inits r init)
    func.Cir.fn_globals;
  let reg_nodes =
    Array.init func.Cir.fn_reg_count (fun r ->
        let width = max 1 (Cir.reg_width func r) in
        let init =
          match Hashtbl.find_opt global_inits r with
          | Some bv -> bv
          | None -> Bitvec.zero width
        in
        Netlist.reg_forward nl ~init)
  in
  (* memories *)
  let mems =
    Array.map
      (fun (rg : Cir.region) ->
        Netlist.add_mem nl ~name:rg.Cir.rg_name ~word_width:rg.Cir.rg_width
          ~depth:rg.Cir.rg_words ?init:rg.Cir.rg_init ())
      func.Cir.fn_regions
  in
  (* state decodes *)
  let decode =
    Array.init (nstates + 2) (fun s ->
        let c = Netlist.const_int nl ~width:state_width s in
        Netlist.binop nl Netlist.B_eq state_reg c)
  in
  (* per-state datapath evaluation *)
  let reg_writes = Array.make func.Cir.fn_reg_count [] in
  let mem_writes = Array.make (Array.length mems) [] in
  let next_state_choices = ref [] in (* (decode sig, next-state sig) *)
  let result_width = max 1 func.Cir.fn_ret_width in
  let result_writes = ref [] in
  Array.iter
    (fun (st : Fsmd.state) ->
      let s = st.Fsmd.st_id in
      let env = Hashtbl.create 16 in (* CIR reg -> wire within this state *)
      let reg_value r =
        match Hashtbl.find_opt env r with
        | Some sig_ -> sig_
        | None -> reg_nodes.(r)
      in
      let operand = function
        | Cir.O_imm bv -> Netlist.const nl bv
        | Cir.O_reg r -> reg_value r
      in
      List.iter
        (fun instr ->
          match instr with
          | Cir.I_bin { op; dst; a; b } ->
            Hashtbl.replace env dst (Netlist.binop nl op (operand a) (operand b))
          | Cir.I_un { op; dst; a } ->
            Hashtbl.replace env dst (Netlist.unop nl op (operand a))
          | Cir.I_mov { dst; src } -> Hashtbl.replace env dst (operand src)
          | Cir.I_cast { dst; signed; src } ->
            Hashtbl.replace env dst
              (Netlist.resize nl ~signed ~width:(Cir.reg_width func dst)
                 (operand src))
          | Cir.I_mux { dst; sel; if_true; if_false } ->
            let sel_bit =
              let sel_sig = operand sel in
              if Netlist.width nl sel_sig = 1 then sel_sig
              else Netlist.unop nl Netlist.U_reduce_or sel_sig
            in
            Hashtbl.replace env dst
              (Netlist.mux nl ~sel:sel_bit ~if_true:(operand if_true)
                 ~if_false:(operand if_false))
          | Cir.I_load { dst; region; addr } ->
            Hashtbl.replace env dst
              (Netlist.mem_read nl ~mem:mems.(region) ~addr:(operand addr))
          | Cir.I_store { region; addr; value } ->
            if List.exists (fun (s', _, _) -> s' = s) mem_writes.(region) then
              error
                "two stores to region %s in one state: elaboration needs \
                 mem_write_ports = 1"
                func.Cir.fn_regions.(region).Cir.rg_name;
            if fsmd.Fsmd.mem_forwarding then
              error
                "mem_forwarding FSMDs (register-file memories) cannot use \
                 RAM elaboration; regions must be small";
            mem_writes.(region) <-
              (s, operand addr, operand value) :: mem_writes.(region))
        st.Fsmd.actions;
      (* register writes at end of state *)
      Hashtbl.iter
        (fun r sig_ -> reg_writes.(r) <- (s, sig_) :: reg_writes.(r))
        env;
      (* next state *)
      let next_sig =
        match st.Fsmd.next with
        | Fsmd.N_goto target -> Netlist.const_int nl ~width:state_width target
        | Fsmd.N_branch { cond; if_true; if_false } ->
          let cond_sig = operand cond in
          let cond_bit =
            if Netlist.width nl cond_sig = 1 then cond_sig
            else Netlist.unop nl Netlist.U_reduce_or cond_sig
          in
          Netlist.mux nl ~sel:cond_bit
            ~if_true:(Netlist.const_int nl ~width:state_width if_true)
            ~if_false:(Netlist.const_int nl ~width:state_width if_false)
        | Fsmd.N_halt v ->
          (match v with
          | Some op ->
            result_writes := (s, Netlist.resize nl ~signed:false
                                   ~width:result_width (operand op))
                             :: !result_writes
          | None -> ());
          Netlist.const_int nl ~width:state_width done_state
      in
      next_state_choices := (s, next_sig) :: !next_state_choices)
    fsmd.Fsmd.states;
  (* INIT state: load parameters, go to entry *)
  List.iter
    (fun (r, input_sig) ->
      let coerced =
        Netlist.resize nl ~signed:false ~width:(Cir.reg_width func r) input_sig
      in
      reg_writes.(r) <- (init_state, coerced) :: reg_writes.(r))
    param_inputs;
  next_state_choices :=
    (init_state, Netlist.const_int nl ~width:state_width fsmd.Fsmd.entry)
    :: (done_state, Netlist.const_int nl ~width:state_width done_state)
    :: !next_state_choices;
  (* close the state register *)
  let next_state =
    List.fold_left
      (fun acc (s, sig_) ->
        Netlist.mux nl ~sel:decode.(s) ~if_true:sig_ ~if_false:acc)
      state_reg !next_state_choices
  in
  Netlist.reg_connect nl state_reg ~next:next_state ();
  (* close data registers *)
  Array.iteri
    (fun r writes ->
      match writes with
      | [] -> Netlist.reg_connect nl reg_nodes.(r) ~next:reg_nodes.(r) ()
      | _ ->
        let next =
          List.fold_left
            (fun acc (s, sig_) ->
              Netlist.mux nl ~sel:decode.(s) ~if_true:sig_ ~if_false:acc)
            reg_nodes.(r) writes
        in
        Netlist.reg_connect nl reg_nodes.(r) ~next ())
    reg_writes;
  (* result register *)
  let result_reg = Netlist.reg_forward nl ~init:(Bitvec.zero result_width) in
  let result_next =
    List.fold_left
      (fun acc (s, sig_) ->
        Netlist.mux nl ~sel:decode.(s) ~if_true:sig_ ~if_false:acc)
      result_reg !result_writes
  in
  Netlist.reg_connect nl result_reg ~next:result_next ();
  (* memory write ports *)
  Array.iteri
    (fun region writes ->
      match writes with
      | [] -> ()
      | (s0, a0, d0) :: rest ->
        let we =
          List.fold_left
            (fun acc (s, _, _) -> Netlist.binop nl Netlist.B_or acc decode.(s))
            decode.(s0) rest
        in
        let addr, data =
          List.fold_left
            (fun (addr, data) (s, a, d) ->
              ( Netlist.mux nl ~sel:decode.(s) ~if_true:a ~if_false:addr,
                Netlist.mux nl ~sel:decode.(s) ~if_true:d ~if_false:data ))
            (a0, d0) rest
        in
        Netlist.mem_write nl ~mem:mems.(region) ~we ~addr ~data)
    mem_writes;
  (* outputs *)
  Netlist.set_output nl "done" decode.(done_state);
  Netlist.set_output nl "result" result_reg;
  List.iter
    (fun (name, r, _) -> Netlist.set_output nl ("g_" ^ name) reg_nodes.(r))
    func.Cir.fn_globals;
  Netlist.finish nl;
  { netlist = nl; done_state; init_state }

(** Run the elaborated netlist to completion and return (result, globals,
    cycles) plus the evaluator's performance counters. *)
let simulate ?strategy (e : elaborated) ~args ~func =
  let inputs =
    List.map2
      (fun (name, r) v ->
        ( name,
          Bitvec.resize ~signed:true ~width:(Cir.reg_width func r) v ))
      func.Cir.fn_params args
  in
  Neteval.run_until_done ?strategy e.netlist ~inputs ~done_name:"done"
    ~max_cycles:Rtlsim.max_cycles
