(* HardwareC backend [Ku & De Micheli, 1990], the Olympus system's input.

   The paper: "Typical in high-level synthesis, HardwareC supports timing
   constraints such as 'these three statements must execute in two
   cycles'.  While such constraints can be subtle for the designer and
   challenging for the compiler, they allow easier design-space
   exploration."

   Realization: the scheduled-FSMD path plus `constrain(min,max){...}`
   blocks.  Compilation first schedules under the requested allocation; if
   any max-cycle constraint is violated it walks the allocation lattice
   (Constrain.explore) until the constraints hold — the design-space
   exploration the paper describes — and reports the trail.  Min-cycle
   constraints are met by padding empty states. *)

exception Unsatisfiable of string

let dialect = Dialect.hardwarec

(* No CFG simplification: constrain(min,max) ranges name block ids and
   instruction indices from the raw lowering, which simplify would
   invalidate. *)
let pipeline = Passes.pipeline "hardwarec"

type report = {
  statuses : Constrain.status list; (* final constraint status *)
  exploration : (string * int * bool) list; (* allocation, steps, ok *)
  chosen_allocation : string;
}

let compile ?(config = Config.default) (program : Ast.program) ~entry :
    Design.t * report =
  Backend.reject_if_illegal ~backend:"hardwarec" dialect program;
  if Handelc.uses_concurrency program then
    (* HardwareC's process-level parallelism and message passing run on
       the statement machine; the allocation lattice and constraint
       exploration only apply to the scheduled sequential path, so the
       report is empty.  [constrain] blocks execute their body (the
       machine has no schedule to check them against). *)
    ( Handelc.compile_with_policy ~backend_name:"hardwarec" ~dialect
        ~policy:`Scheduled ~config program ~entry,
      { statuses = [];
        exploration = [];
        chosen_allocation = "statement machine (concurrent)" } )
  else
  (* No pipeline specialization: constrain ranges name raw block ids, so
     even the unroll knob must not reshape the source here.  Only the
     pass options (verify/dump) flow through. *)
  let lowered, pass_trace =
    Passes.run ~options:(Config.pass_options config) pipeline program ~entry
  in
  let func = lowered.Lower.func in
  let constraints = Constrain.of_lowering lowered.Lower.constraints in
  (* pick an allocation meeting all max constraints, per block *)
  let blocks_with_constraints =
    List.sort_uniq compare (List.map (fun c -> c.Constrain.block) constraints)
  in
  let exploration = ref [] in
  let chosen = ref ("requested allocation", config.Config.resources) in
  List.iter
    (fun b ->
      let instrs = (Cir.block func b).Cir.instrs in
      let sched = Schedule.list_schedule func (snd !chosen) instrs in
      let statuses = Constrain.check constraints ~block:b sched in
      if
        List.exists
          (fun s -> s.Constrain.actual_cycles > s.Constrain.constraint_.Constrain.max_cycles)
          statuses
      then begin
        match Constrain.explore func constraints ~block:b instrs with
        | Some (label, r), trail ->
          exploration := !exploration @ trail;
          chosen := (label, r)
        | None, trail ->
          exploration := !exploration @ trail;
          raise
            (Unsatisfiable
               (Printf.sprintf
                  "no allocation meets the timing constraints of block %d" b))
      end)
    blocks_with_constraints;
  let _, allocation = !chosen in
  (* schedule every block with the chosen allocation; pad blocks whose
     constrained ranges finish too quickly (min-cycle constraints) *)
  let schedule_block (blk : Cir.block) =
    let sched = Schedule.list_schedule func allocation blk.Cir.instrs in
    let min_required =
      List.fold_left
        (fun acc c ->
          if c.Constrain.block = blk.Cir.b_id then
            max acc c.Constrain.min_cycles
          else acc)
        0 constraints
    in
    if sched.Schedule.num_steps >= min_required then sched
    else
      { sched with
        Schedule.num_steps = min_required;
        step_delay =
          Array.append sched.Schedule.step_delay
            (Array.make (min_required - sched.Schedule.num_steps) 0.) }
  in
  let statuses =
    List.concat_map
      (fun b ->
        let sched = schedule_block (Cir.block func b) in
        Constrain.check constraints ~block:b sched)
      blocks_with_constraints
  in
  let fsmd = Fsmd.of_func func ~schedule_block in
  ( Design.make ~name:entry ~backend:"hardwarec"
      ~clock_period:(Fsmd_common.clock_period fsmd)
      ~stats:
        [ ("states", string_of_int (Fsmd.num_states fsmd));
          ("constraints", string_of_int (List.length constraints));
          ("allocation", fst !chosen) ]
      ~pass_trace (Design.Fsmd fsmd),
    { statuses; exploration = !exploration; chosen_allocation = fst !chosen } )

(* The exploration report rides in the design stats so the registry
   path, [chlsc compile --trace-passes] and [chlsc compare] can show the
   constraint-exploration trail. *)
let stats_of_report (r : report) =
  let met =
    if List.for_all (fun s -> s.Constrain.satisfied) r.statuses then "met"
    else "violated"
  in
  ("constraint-status",
   Printf.sprintf "%d constraint(s) %s" (List.length r.statuses) met)
  ::
  (match r.exploration with
  | [] -> []
  | trail ->
    [ ("constraint-exploration",
       String.concat "; "
         (List.map
            (fun (alloc, steps, ok) ->
              Printf.sprintf "%s: %d steps%s" alloc steps
                (if ok then "" else " (violated)"))
            trail)) ])

let compile_reporting ?config program ~entry =
  let design, report = compile ?config program ~entry in
  let data = Design.data design in
  Design.of_data { data with stats = data.stats @ stats_of_report report }

let descriptor =
  Backend.make ~name:"hardwarec"
    ~capabilities:{ Backend.default_capabilities with
                    Backend.constraint_reports = true }
    ~pipeline:(Some pipeline)
    ~dialect:Dialect.hardwarec
    (fun ~config program ~entry -> compile_reporting ~config program ~entry)
