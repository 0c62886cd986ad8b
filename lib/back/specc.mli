(** SpecC backend [Gajski et al. 2000]: the "resolutely refinement-based"
    methodology as executable steps — specification (untimed oracle),
    architecture (scheduled), communication (cycle-true rendezvous),
    implementation (RTL) — each checked for behavioural equivalence on
    the supplied test vectors. *)

type level = Specification | Architecture | Communication | Implementation

val string_of_level : level -> string

type check = {
  level : level;
  vector : int list;
  observed : int option;
  expected : int option;
  equivalent : bool;
  cycles : int option;
}

type report = { checks : check list; all_equivalent : bool }

val refine :
  ?config:Config.t -> Ast.program -> entry:string ->
  test_vectors:int list list -> Design.t * report
(** Run the full flow; the returned design is the implementation level.
    [config] supplies the architecture level's resource allocation. *)

val descriptor : Backend.descriptor
