(** The backend registry: every surveyed synthesis scheme, looked up by
    name instead of dispatched over a closed variant.

    Backends self-describe as {!Backend.descriptor} records in their own
    modules; this registry collects them at module initialisation (one
    registration line per backend) and hands out thin {!t} handles.  A
    handle is just the canonical name, so handles compare structurally
    (with [=]) and survive in data.

    The paper's comparative tables ([chlsc compare], experiment E3) walk
    {!all}/{!compiling} instead of hand-maintained lists, so adding a
    twelfth backend means one new module plus one registration line —
    nothing else in the repo names backends exhaustively. *)

type t
(** A registered backend: a thin handle (the canonical name) over the
    descriptor table.  Structural equality is by name. *)

exception Unknown_backend of string
(** Raised by {!get} with a message listing every registered name and
    alias. *)

val find : string -> t option
(** Case-insensitive lookup by canonical name or alias. *)

val get : string -> t
(** Like {!find}. @raise Unknown_backend (listing the catalog) on miss. *)

val all : unit -> t list
(** Every registered backend, in registration (Table 1) order. *)

val compiling : unit -> t list
(** The backends whose capabilities include a C frontend (everything
    except the structural Ocapi EDSL). *)

val names : unit -> string list
(** Canonical names in registration order. *)

val resolve : string -> (t, string) result
(** Like {!find}; the [Error] names the miss and lists the {!catalog}. *)

val resolve_backends : string list -> (t list, string) result
(** {!resolve} over a user's list (blank names skipped), in order. *)

val resolve_dialect : string -> (Dialect.t, string) result
(** A dialect by backend name or alias, or by its Table-1 spelling. *)

val catalog : unit -> string
(** Human-readable one-line listing — ["cones, hardwarec, transmogrifier
    (alias tmcc), ..."] — for unknown-backend error messages. *)

(** {1 Descriptor accessors} *)

val name : t -> string
val aliases : t -> string list
val dialect : t -> Dialect.t
val pipeline : t -> Passes.pipeline option
val capabilities : t -> Backend.capabilities

val compile :
  t -> ?config:Config.t -> Ast.program -> entry:string -> Design.t
(** The descriptor's compile entry point; [config] (default
    {!Config.default}) carries the per-compile resource allocation,
    unroll factor and pass options.
    @raise Backend.No_c_frontend for structural backends (Ocapi). *)

val equal : t -> t -> bool
