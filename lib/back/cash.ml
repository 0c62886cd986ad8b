(* CASH backend [Budiu & Goldstein, FPL 2002].

   "Compiling application-specific hardware": ANSI C (our pointer-free
   subset) -> SSA -> Pegasus-style asynchronous dataflow circuit, executed
   by the timed token simulator.  No clock exists; performance is the
   dynamic critical path, and the circuit exploits exactly the
   instruction-level parallelism the dependences allow — the
   compiler-finds-all-parallelism end of the paper's concurrency spectrum,
   taken to its logical extreme. *)

let dialect = Dialect.cash

(* No CFG simplification: the Pegasus-style circuit is built from the SSA
   of the raw lowering, where every tiny block is just a cheap merge. *)
let pipeline = Passes.pipeline "cash"

let compile ?(config = Config.default) ?handshake
    (program : Ast.program) ~entry : Design.t =
  Backend.reject_if_illegal ~backend:"cash" dialect program;
  let lowered, pass_trace =
    Passes.run ~options:(Config.pass_options config) pipeline program ~entry
  in
  let circuit = Dfg.of_ssa (Ssa.of_func lowered.Lower.func) in
  let stats = Dfg.stats circuit in
  Design.make ~name:entry ~backend:"cash"
    ~stats:
      [ ("dataflow nodes", string_of_int stats.Dfg.total);
        ("operators", string_of_int stats.Dfg.operators);
        ("merges (mu)", string_of_int stats.Dfg.merges);
        ("steers (eta)", string_of_int stats.Dfg.steers);
        ("memory ops", string_of_int stats.Dfg.memory_ops) ]
    ~pass_trace
    (Design.Dataflow { circuit; handshake })

let descriptor =
  Backend.make ~name:"cash" ~pipeline:(Some pipeline)
    ~dialect:Dialect.cash
    (fun ~config program ~entry -> compile ~config program ~entry)
