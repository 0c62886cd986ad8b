(* Shared plumbing for the FSMD-producing backends (Transmogrifier C,
   Bach C/Cyber, SystemC, sequential SpecC): run the backend's declared
   pipeline through the pass manager, build an FSMD under the backend's
   scheduling policy, and return it as a design. *)

let clock_period fsmd = Float.max 1. (Fsmd.critical_state_delay fsmd)

let build ~backend_name ~dialect ?(mem_forwarding = false) ~pipeline
    ?(artifact = fun fsmd -> Design.Fsmd fsmd) ?(config = Config.default)
    ~(schedule_block : Cir.func -> Cir.block -> Schedule.schedule)
    (program : Ast.program) ~entry : Design.t =
  Backend.reject_if_illegal ~backend:backend_name dialect program;
  let lowered, pass_trace =
    Passes.run ~options:(Config.pass_options config)
      (Config.specialize config pipeline)
      program ~entry
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
    ~pass_trace (artifact fsmd)

(* Untimed semantics: the compiler does the scheduling.  The concurrent
   subset (par, channels) has no sequential CIR lowering, so it runs on
   the statement machine (Handel_machine) with compiler-packed cycles. *)
let scheduled ~backend_name ~dialect ~pipeline ?artifact
    ?(config = Config.default) program ~entry =
  if Handelc.uses_concurrency program then
    Handelc.compile_with_policy ~backend_name ~dialect ~policy:`Scheduled
      ~config program ~entry
  else
    build ~backend_name ~dialect ~pipeline ?artifact ~config
      ~schedule_block:(fun func blk ->
        Schedule.list_schedule func config.Config.resources blk.Cir.instrs)
      program ~entry
