(* Handel-C backend [Celoxica] — and the concurrent Bach C variant.

   The statement machine itself lives in Handel_machine; this module is
   the backend: dialect check, the declared source passes, the optional
   structural lowering, and the statement-machine design they produce. *)

(* Whether any function uses par arms or channel rendezvous — the
   constructs only the statement machine executes.  Every backend whose
   dialect allows them (Bach C, SpecC, SystemC, HardwareC) consults this
   to decide between its scheduled-FSMD path and the machine. *)
let uses_concurrency (program : Ast.program) =
  List.exists
    (fun f ->
      Ast.exists_stmt
        (fun st ->
          match st.Ast.s with
          | Ast.Par _ | Ast.Chan_send _ -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue
          | Ast.Block _ | Ast.Delay | Ast.Constrain _ -> false)
        f
      || Ast.exists_expr
           (fun e ->
             match e.Ast.e with
             | Ast.Chan_recv _ -> true
             | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _
             | Ast.Assign _ | Ast.Cond _ | Ast.Call _ | Ast.Index _
             | Ast.Deref _ | Ast.Addr_of _ | Ast.Cast _ -> false)
           f)
    program.Ast.funcs

let compile_with_policy ~backend_name ~dialect ~policy
    ?(config = Config.default) (program : Ast.program) ~entry : Design.t =
  Backend.reject_if_illegal ~backend:backend_name dialect program;
  let options = Config.pass_options config in
  (* Source passes (the concurrency checker, the unroll knob) are declared
     to the pass manager so they are timed and differentially checked;
     the statement machine runs the transformed program.  A program the
     dialect statically forbids (e.g. two par arms writing one variable
     under Handel-C's rules) never reaches the simulator —
     Conc_check.Check_failed carries the located diagnostics. *)
  let program, source_trace =
    Passes.run_program_passes ~options
      (Config.specialize config
         (Passes.pipeline backend_name
            ~program_passes:[ Conc_check.pass dialect ] ~lowers:false))
      program ~entry
  in
  (* Structural view for the sequential subset: the lowered function, cut
     into an FSMD at assignment boundaries, elaborates to a netlist for
     area/Verilog.  Concurrent programs (par/channels) have no netlist
     view; the statement machine remains the timing reference in all
     cases.  Lowering runs eagerly through the pass manager (cheap, and a
     Lower failure becomes a visible diagnostic instead of a silently
     absent view). *)
  let lowered_view =
    if uses_concurrency program then
      Error "concurrent program (par/channels): statement machine only"
    else
      match
        Passes.run ~options
          (Passes.pipeline (backend_name ^ "-structural")
             ~func_passes:[ Passes.simplify_pass ])
          program ~entry
      with
      | lowered, trace -> Ok (lowered.Lower.func, trace)
      | exception Lower.Error (msg, loc) ->
        Error
          (if loc = Ast.no_loc then "lowering failed: " ^ msg
           else
             Printf.sprintf "lowering failed at %d:%d: %s" loc.Ast.line
               loc.Ast.col msg)
  in
  Design.make ~name:entry ~backend:backend_name
    ~clock_period:
      (match policy with
      | `One_cycle_per_assignment ->
        Handel_machine.estimate_clock_period program
      | `Scheduled -> 20.)
    ~stats:
      (( "estimated area",
         Printf.sprintf "%.0f" (Handel_machine.estimate_area program) )
      ::
      (match lowered_view with
      | Error msg -> [ ("structural view", "unavailable: " ^ msg) ]
      | Ok _ -> []))
    ~pass_trace:
      (source_trace
      @ match lowered_view with Ok (_, trace) -> trace | Error _ -> [])
    (Design.Statement_machine
       { program; entry; policy;
         structural = Result.to_option (Result.map fst lowered_view) })

let dialect = Dialect.handelc

let pipeline =
  Passes.pipeline "handelc-structural"
    ~program_passes:[ Conc_check.pass Dialect.handelc ]
    ~func_passes:[ Passes.simplify_pass ]

let compile ?config (program : Ast.program) ~entry : Design.t =
  compile_with_policy ~backend_name:"handelc" ~dialect
    ~policy:`One_cycle_per_assignment ?config program ~entry

let descriptor =
  Backend.make ~name:"handelc" ~aliases:[ "handel-c" ]
    ~pipeline:(Some pipeline)
    ~dialect:Dialect.handelc
    (fun ~config program ~entry -> compile ~config program ~entry)
