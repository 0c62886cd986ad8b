(* Bach C backend [Kambe et al., ASP-DAC 2001] — also used for Cyber/BDL.

   The paper: "Sharp's Bach C ... has untimed semantics: the compiler does
   the scheduling; the number of cycles taken by each construct is not set
   by a rule.  It supports arrays but not pointers."

   Realization: resource-constrained list scheduling with operator
   chaining over each basic block; the number of control steps per
   construct falls out of the schedule, not a syntactic rule.  The
   allocation (functional units, memory ports, chain budget) is the
   designer-visible knob.

   Bach C's explicit concurrency (par + rendezvous) uses the same
   statement-machine machinery as Handel-C (see back/handelc.ml); this
   module is the scheduled sequential core, which is where it contrasts
   with the rule-based languages in experiment E3. *)

let dialect = Dialect.bachc

(* The concurrency checker is a declared prerequisite: Bach C's untimed
   semantics make any par-arm race a hard error (see Conc_check). *)
let pipeline =
  Passes.pipeline "bachc"
    ~program_passes:[ Conc_check.pass Dialect.bachc ]
    ~func_passes:[ Passes.simplify_pass ]

let compile ?config (program : Ast.program) ~entry : Design.t =
  Fsmd_common.scheduled ~backend_name:"bachc" ~dialect ~pipeline ?config
    program ~entry

let descriptor =
  Backend.make ~name:"bachc" ~aliases:[ "bach" ] ~pipeline:(Some pipeline)
    ~dialect:Dialect.bachc
    (fun ~config program ~entry -> compile ~config program ~entry)

(* Cyber/BDL rides the same scheduler but is a distinct surveyed
   language: its own Table 1 row, dialect restrictions, concurrency rules
   and registration. *)
let cyber_pipeline =
  Passes.pipeline "cyber"
    ~program_passes:[ Conc_check.pass Dialect.cyber ]
    ~func_passes:[ Passes.simplify_pass ]

let cyber_descriptor =
  Backend.make ~name:"cyber" ~aliases:[ "bdl" ]
    ~pipeline:(Some cyber_pipeline)
    ~dialect:Dialect.cyber
    (fun ~config program ~entry ->
      Fsmd_common.scheduled ~backend_name:"cyber" ~dialect:Dialect.cyber
        ~pipeline:cyber_pipeline ~config program ~entry)
