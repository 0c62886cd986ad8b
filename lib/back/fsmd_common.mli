(** Shared plumbing for the FSMD-producing backends: dialect check, run
    the declared pipeline through the pass manager, build the FSMD under
    the backend's scheduling policy, and return it as a design. *)

val clock_period : Fsmd.t -> float
(** The FSMD's critical state delay, at least one time unit: the clock
    period every FSMD-family design reports. *)

val build :
  backend_name:string -> dialect:Dialect.t -> ?mem_forwarding:bool ->
  pipeline:Passes.pipeline -> ?artifact:(Fsmd.t -> Design.artifact) ->
  ?config:Config.t ->
  schedule_block:(Cir.func -> Cir.block -> Schedule.schedule) ->
  Ast.program -> entry:string -> Design.t
(** [artifact] (default {!Design.Fsmd}) wraps the FSMD.  [config]
    (default {!Config.default}) supplies the per-compile pass options
    and specializes the pipeline ({!Config.specialize}). *)

val scheduled :
  backend_name:string -> dialect:Dialect.t -> pipeline:Passes.pipeline ->
  ?artifact:(Fsmd.t -> Design.artifact) -> ?config:Config.t ->
  Ast.program -> entry:string -> Design.t
(** The untimed schedulers' one build path (Bach C, Cyber, SystemC,
    SpecC's architecture level).  A program with [par] or channels runs
    on the statement machine with [`Scheduled] packing; any other is
    list-scheduled under [config.resources] and {!build} makes the
    design. *)
