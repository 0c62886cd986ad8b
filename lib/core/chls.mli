(** CHLS public facade: parse and check a C-like source, pick a surveyed
    language (a backend), synthesize a design and simulate it.  Verdicts
    against the software oracle come from {!Driver.check}.

    A [backend] is a thin {!Registry} handle (structural equality by
    name) — the old closed variant is gone; every function here is a
    one-line wrapper over the registry.  Multi-backend workloads should
    use {!Driver}, which parses the source once and memoizes designs
    under a content hash. *)

type backend = Registry.t

val backend_name : backend -> string

val backend_of_name : string -> backend option
(** Case-insensitive; accepts the registered aliases ("tmcc", "c2v",
    "bdl", "bach", "handel-c"). *)

val all_compiling_backends : backend list
(** Backends that compile C sources (everything except Ocapi). *)

val parse : string -> Ast.program
(** Parse and type-check a source string.
    @raise Parser.Error or Typecheck.Error on bad input. *)

val dialect_of : backend -> Dialect.t

val accepts : backend -> Ast.program -> bool
(** Does the backend's dialect accept this (checked) program? *)

val pipeline_of : backend -> Passes.pipeline option
(** The pipeline a backend declares to the pass manager; [None] for the
    structural Ocapi EDSL.  Concurrent programs on Handel-C/Bach C run on
    the statement machine, where the declared pipeline only produces the
    structural view. *)

val compile_program : backend -> Ast.program -> entry:string -> Design.t
(** Synthesize a checked program.  Fails if the dialect rejects it.
    @raise Backend.No_c_frontend for the structural Ocapi EDSL. *)

val compile : backend -> string -> entry:string -> Design.t
(** Parse, check and synthesize in one step. *)

val reference : string -> entry:string -> args:int list -> int
(** The software oracle (reference interpreter) on a source string. *)

val render_table1 : unit -> string
(** The paper's Table 1, regenerated from the dialect registry; column
    widths are computed from the data, so no cell is truncated. *)
