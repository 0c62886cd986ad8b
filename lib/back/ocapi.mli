(** Ocapi backend [Schaumont et al. 1998, IMEC]: "the user's program runs
    to generate a data structure that represents hardware".  This is a
    combinator library whose evaluation builds an FSMD — expressions
    construct datapath operators, [add_state] defines one state (one
    cycle each, Ocapi's timing rule), [to_design] produces the
    same artifacts the scheduled backends emit.

    Semantics: action right-hand sides all read the state's *entry*
    values (parallel register transfers); the transition expression
    evaluates after the actions, observing the updated values. *)

type exp =
  | Const of int * int  (** value, width *)
  | Reg of int
  | Read of int * exp  (** memory, address *)
  | Bin of Netlist.binop * exp * exp
  | Un of Netlist.unop * exp
  | Mux of exp * exp * exp

type action = Set of int * exp | Write of int * exp * exp

type transition =
  | Goto of int
  | Branch of exp * int * int
  | Done of exp option

type builder

exception Build_error of string

val create : name:string -> builder

val input : builder -> name:string -> width:int -> int
(** A named input port (entry parameter); returns its register. *)

val register : builder -> name:string -> width:int -> init:int -> int
(** An architectural register, observable as output [g_<name>]. *)

val wire : builder -> width:int -> int
(** A scratch register. *)

val memory : builder -> name:string -> width:int -> depth:int -> int
(** An on-chip memory; returns its region id. *)

val set_result_width : builder -> int -> unit

(** {1 Expression constructors} *)

val const : width:int -> int -> exp
val reg : int -> exp
val read : int -> exp -> exp
val ( +: ) : exp -> exp -> exp
val ( -: ) : exp -> exp -> exp
val ( *: ) : exp -> exp -> exp

val ( ==: ) : exp -> exp -> exp

val add_state : builder -> action list -> transition -> int
(** Define a state; returns its id (states are numbered from 0 in
    definition order, so transitions may reference forward ids). *)

val to_design : builder -> Design.t

val descriptor : Backend.descriptor
(** Registered for discoverability; its [compile] raises
    {!Backend.No_c_frontend} — build designs with this module instead. *)
