(** Backend self-description: the record every synthesis scheme exports.

    A backend is no longer a constructor in a closed variant — it is a
    descriptor carrying everything the rest of the system dispatched on
    (name, aliases, dialect, declared pipeline, the compile entry point)
    plus a capability record for the axes that used to hide behind
    special cases (the structural Ocapi EDSL has no C frontend; HardwareC
    attaches its constraint-exploration trail to the design stats).

    Descriptors are collected by {!Registry} in [lib/core]; backends only
    define the record, they never see the registry, so the dependency
    points one way.  Adding a twelfth backend means writing its module
    with a [descriptor] value and adding one registration line. *)

type capabilities = {
  c_frontend : bool;
      (** compiles C sources through the shared frontend; [false] for the
          structural Ocapi EDSL, whose designs are built in OCaml *)
  constraint_reports : bool;
      (** [compile] attaches a constraint-exploration trail
          ([constraints], [exploration]) to {!Design.t}[.stats]
          (HardwareC's design-space walk) *)
}

val default_capabilities : capabilities
(** [{ c_frontend = true; constraint_reports = false }] — the common
    C-compiling case. *)

type descriptor = {
  name : string;  (** canonical lowercase name ("bachc") *)
  aliases : string list;  (** alternate spellings ("bach") *)
  dialect : Dialect.t;  (** the surveyed language it implements *)
  pipeline : Passes.pipeline option;
      (** declared pass pipeline; [None] when no compilation pipeline
          runs (Ocapi) *)
  compile : config:Config.t -> Ast.program -> entry:string -> Design.t;
      (** synthesize a checked program under the given config; raises
          {!No_c_frontend} for backends without a C frontend *)
  capabilities : capabilities;
}

exception No_c_frontend of string
(** Raised (with the backend name) by [compile] of a structural backend:
    there is no C source to compile — build designs directly (Ocapi). *)

exception
  Dialect_rejected of {
    backend : string;
    violations : Dialect.violation list;
  }
(** Raised by [compile] when the program breaks the backend dialect's
    published restrictions.  Carries every violation (rule, enclosing
    function, first offending location) so drivers report the rejection
    as a dialect property of the program, never an internal error. *)

val reject_if_illegal : backend:string -> Dialect.t -> Ast.program -> unit
(** Run {!Dialect.check} and raise {!Dialect_rejected} on the first
    non-empty result.  The single entry point every C-compiling backend
    guards its [compile] with. *)

val make :
  ?aliases:string list -> ?capabilities:capabilities ->
  ?pipeline:Passes.pipeline option -> name:string -> dialect:Dialect.t ->
  (config:Config.t -> Ast.program -> entry:string -> Design.t) ->
  descriptor
(** Descriptor smart constructor; [pipeline] defaults to [None] wrapped
    over nothing — pass [~pipeline:(Some p)] explicitly. *)
