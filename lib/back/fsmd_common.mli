(** Shared plumbing for the FSMD-producing backends: dialect check, run
    the declared pipeline through the pass manager, build the FSMD under
    the backend's scheduling policy, and return it as a {!Design.Fsmd}
    design. *)

val clock_period : Fsmd.t -> float
(** The FSMD's critical state delay, at least one time unit: the clock
    period every FSMD-family design reports. *)

val build :
  backend_name:string -> dialect:Dialect.t -> ?mem_forwarding:bool ->
  ?pipeline:Passes.pipeline -> ?config:Config.t ->
  schedule_block:(Cir.func -> Cir.block -> Schedule.schedule) ->
  Ast.program -> entry:string -> Design.t
(** [pipeline] defaults to [backend_name: lower; simplify].  [config]
    (default {!Config.default}) supplies the per-compile pass options
    and specializes the pipeline ({!Config.specialize}); resource bounds
    stay the caller's business — close [schedule_block] over
    [config.resources]. *)
