(* The C2Verilog backend [Soderman & Panchul 1998]: compile the program to
   stack code (C2verilog) and return it as a stack-machine design, run by
   C2v_machine. *)

(* C2Verilog compiles the AST straight to stack code (pointers and
   recursion need the unified memory, not CIR's partitioned model), so
   its declared pipeline is source-only and empty. *)
let pipeline = Passes.pipeline "c2verilog" ~lowers:false

let compile ?(config = Config.default) (program : Ast.program) ~entry :
    Design.t =
  Backend.reject_if_illegal ~backend:"c2verilog" Dialect.c2verilog program;
  let program, pass_trace =
    Passes.run_program_passes ~options:(Config.pass_options config) pipeline
      program ~entry
  in
  let compiled = C2verilog.compile_program program ~entry in
  let ret_width =
    match Ast.find_func program entry with
    | Some f -> max 0 (Ctypes.width f.Ast.f_ret)
    | None -> 0
  in
  let pointer_info = Pointer.analyze program in
  Design.make ~name:entry ~backend:"c2verilog" ~clock_period:30.
    ~stats:
      [ ("code words", string_of_int (Array.length compiled.C2verilog.code));
        ("unified memory words",
         string_of_int compiled.C2verilog.memory_words);
        ("pointers fully partitionable",
         string_of_bool (Pointer.fully_partitionable pointer_info)) ]
    ~pass_trace
    (Design.Stack_machine { compiled; ret_width })

let descriptor =
  Backend.make ~name:"c2verilog" ~aliases:[ "c2v" ]
    ~pipeline:(Some pipeline)
    ~dialect:Dialect.c2verilog
    (fun ~config program ~entry -> compile ~config program ~entry)
