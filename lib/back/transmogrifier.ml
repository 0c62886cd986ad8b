(* Transmogrifier C backend [Galloway, FCCM 1995].

   The paper: "Transmogrifier C ... places cycle boundaries at function
   calls and at the beginning of while loops" and "in Transmogrifier C,
   only loop iterations and function calls take a cycle.  While simple to
   understand, such rules can require recoding to meet timing ... loops
   may need to be unrolled."

   Realization: calls are inlined during lowering (each call boundary is a
   block boundary) and each basic block becomes exactly one FSM state with
   everything chained combinationally — so cycle count == number of block
   transitions (loop iterations and call sites) and the clock period grows
   with the longest chained block, which is precisely the language's
   timing pathology.  Memories are register files (store forwarding), as
   on its register-rich FPGA target. *)

let dialect = Dialect.transmogrifier

let pipeline =
  Passes.pipeline "transmogrifier" ~func_passes:[ Passes.simplify_pass ]

let compile ?config (program : Ast.program) ~entry : Design.t =
  Fsmd_common.build ~backend_name:"transmogrifier" ~dialect
    ~mem_forwarding:true ~pipeline ?config
    ~schedule_block:Fsmd.transmogrifier_schedule program ~entry

let descriptor =
  Backend.make ~name:"transmogrifier" ~aliases:[ "tmcc" ]
    ~pipeline:(Some pipeline)
    ~dialect:Dialect.transmogrifier
    (fun ~config program ~entry -> compile ~config program ~entry)
