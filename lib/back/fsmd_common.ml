(* Shared plumbing for the FSMD-producing backends (Transmogrifier C,
   Bach C/Cyber, HardwareC, sequential SpecC): run the backend's declared
   pipeline through the pass manager, build an FSMD under the backend's
   scheduling policy, and return it as a design. *)

let clock_period fsmd = Float.max 1. (Fsmd.critical_state_delay fsmd)

let build ~backend_name ~dialect ?(mem_forwarding = false) ?pipeline
    ?(config = Config.default)
    ~(schedule_block : Cir.func -> Cir.block -> Schedule.schedule)
    (program : Ast.program) ~entry : Design.t =
  Backend.reject_if_illegal ~backend:backend_name dialect program;
  let pipeline =
    match pipeline with
    | Some p -> p
    | None ->
      Passes.pipeline backend_name ~func_passes:[ Passes.simplify_pass ]
  in
  let pipeline = Config.specialize config pipeline in
  let lowered, pass_trace =
    Passes.run ~options:(Config.pass_options config) pipeline program ~entry
  in
  let func = lowered.Lower.func in
  let fsmd =
    Fsmd.of_func ~mem_forwarding func ~schedule_block:(schedule_block func)
  in
  Design.make ~name:entry ~backend:backend_name
    ~clock_period:(clock_period fsmd)
    ~stats:
      [ ("states", string_of_int (Fsmd.num_states fsmd));
        ("instructions", string_of_int (Cir.num_instrs func));
        ("regions", string_of_int (Array.length func.Cir.fn_regions)) ]
    ~pass_trace (Design.Fsmd fsmd)
