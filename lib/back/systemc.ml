(* SystemC backend [Grötker et al., 2002].  The modeling kernel lives in
   Sc_kernel; this module schedules the program like Bach C and returns
   the FSMD as a process-network design. *)

let pipeline = Passes.pipeline "systemc" ~func_passes:[ Passes.simplify_pass ]

(** SystemC backend entry point: schedule like Bach C, then simulate the
    FSMD as a clock-edge-triggered process network. *)
let compile ?(config = Config.default) (program : Ast.program) ~entry :
    Design.t =
  Backend.reject_if_illegal ~backend:"systemc" Dialect.systemc program;
  if Handelc.uses_concurrency program then
    (* Process-level par/channels are not representable in the
       sequential CIR lowering; SystemC's process network semantics run
       on the statement machine with compiler-packed cycles, like the
       other concurrent dialects. *)
    Handelc.compile_with_policy ~backend_name:"systemc"
      ~dialect:Dialect.systemc ~policy:`Scheduled ~config program ~entry
  else
  let lowered, pass_trace =
    Passes.run ~options:(Config.pass_options config)
      (Config.specialize config pipeline)
      program ~entry
  in
  let func = lowered.Lower.func in
  let fsmd =
    Fsmd.of_func func ~schedule_block:(fun blk ->
        Schedule.list_schedule func config.Config.resources blk.Cir.instrs)
  in
  Design.make ~name:entry ~backend:"systemc"
    ~clock_period:(Fsmd_common.clock_period fsmd)
    ~stats:[ ("states", string_of_int (Fsmd.num_states fsmd)) ]
    ~pass_trace (Design.Process_network fsmd)

let descriptor =
  Backend.make ~name:"systemc" ~pipeline:(Some pipeline)
    ~description:"clocked process network simulated at the RTL level"
    ~dialect:Dialect.systemc
    (fun ~config program ~entry -> compile ~config program ~entry)
