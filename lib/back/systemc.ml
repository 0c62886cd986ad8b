(* SystemC backend [Grötker et al., 2002].  The modeling kernel lives in
   Sc_kernel; this module schedules the program like Bach C and returns
   the FSMD as a process-network design, which runs like every FSMD, with
   the kernel as its event-driven engine. *)

let pipeline = Passes.pipeline "systemc" ~func_passes:[ Passes.simplify_pass ]

let descriptor =
  Backend.make ~name:"systemc" ~pipeline:(Some pipeline)
    ~dialect:Dialect.systemc
    (fun ~config program ~entry ->
      Fsmd_common.scheduled ~backend_name:"systemc" ~dialect:Dialect.systemc
        ~pipeline ~artifact:(fun fsmd -> Design.Process_network fsmd) ~config
        program ~entry)
