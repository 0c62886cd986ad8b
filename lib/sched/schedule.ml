(* Operation scheduling for behavioural synthesis.

   Implements the classic repertoire: ASAP, ALAP, and resource-constrained
   list scheduling with operator chaining under a cycle-time budget.  A
   schedule assigns each instruction of a basic block to a control step;
   the FSMD backends then emit one FSM state per step.

   Correctness contract with the FSMD simulator/elaborator (rtl/):
     - instructions placed in the same step keep their original order and
       see each other's results as wires (so RAW chains within a step are
       legal when the delay budget allows);
     - a load may not be placed in the same or an earlier step than a
       store it depends on (synchronous-write memories), except in
       [forwarding_asap], whose register-file memories (Transmogrifier
       C's register-rich FPGA target) forward a store to a load in the
       same step;
     - WAR/WAW edges only require non-decreasing steps, since original
       order is preserved within a step. *)

type resource_class = Adder | Multiplier | Divider | Shifter | Logic | Mem

let class_of_instr = function
  | Cir.I_bin { op; _ } -> (
    match op with
    | Netlist.B_add | Netlist.B_sub | Netlist.B_ult | Netlist.B_ule
    | Netlist.B_slt | Netlist.B_sle -> Adder
    | Netlist.B_mul -> Multiplier
    | Netlist.B_udiv | Netlist.B_urem | Netlist.B_sdiv | Netlist.B_srem ->
      Divider
    | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr -> Shifter
    | Netlist.B_and | Netlist.B_or | Netlist.B_xor | Netlist.B_eq
    | Netlist.B_ne -> Logic)
  | Cir.I_un { op = Netlist.U_neg; _ } -> Adder
  | Cir.I_un { op = Netlist.U_not | Netlist.U_reduce_or; _ } -> Logic
  | Cir.I_mov _ | Cir.I_cast _ | Cir.I_mux _ -> Logic
  | Cir.I_load _ | Cir.I_store _ -> Mem

type resources = {
  adders : int option; (* None = unconstrained *)
  multipliers : int option;
  dividers : int option;
  shifters : int option;
  mem_read_ports : int; (* per region, per step *)
  mem_write_ports : int;
  chain_budget : float; (* max combinational delay per step; infinity ok *)
}

let unconstrained =
  { adders = None; multipliers = None; dividers = None; shifters = None;
    mem_read_ports = max_int; mem_write_ports = max_int;
    chain_budget = infinity }

(** A typical datapath allocation: used as the default by Bach C. *)
let default_allocation =
  { adders = Some 2; multipliers = Some 1; dividers = Some 1;
    shifters = Some 1; mem_read_ports = 1; mem_write_ports = 1;
    chain_budget = 20. }

let instr_delay func instr =
  let w_of = function
    | Cir.O_reg r -> Cir.reg_width func r
    | Cir.O_imm bv -> Bitvec.width bv
  in
  match instr with
  | Cir.I_bin { op; a; b; _ } ->
    (Area.binop_cost op (max (w_of a) (w_of b))).Area.delay
  | Cir.I_un { op; a; _ } -> (Area.unop_cost op (w_of a)).Area.delay
  | Cir.I_mux _ -> 2.
  | Cir.I_mov _ | Cir.I_cast _ -> 0.
  | Cir.I_load { region; _ } ->
    let m = func.Cir.fn_regions.(region) in
    Area.flog2 m.Cir.rg_words +. 2.
  | Cir.I_store _ -> 1.

type schedule = {
  steps : int array; (* control step of each instruction *)
  num_steps : int;
  step_delay : float array; (* accumulated chained delay per step *)
}

(* Count how many instances of a constrained class fit per step; at least
   one, or scheduling could never make progress. *)
let capacity resources cls =
  let at_least_one = function
    | Some k -> max 1 k
    | None -> max_int
  in
  match cls with
  | Adder -> at_least_one resources.adders
  | Multiplier -> at_least_one resources.multipliers
  | Divider -> at_least_one resources.dividers
  | Shifter -> at_least_one resources.shifters
  | Logic -> max_int
  | Mem -> max_int (* per-region ports handled separately *)

(* Resource-constrained list scheduling with chaining of [instrs] (one
   basic block).  Priority is longest path to a sink.  [forwarding]
   lets a load share a step with a store it depends on. *)
let schedule ~forwarding (func : Cir.func) (resources : resources)
    (instrs : Cir.instr list) : schedule =
  let g = Dep.of_instrs instrs in
  let n = Array.length g.Dep.instrs in
  if n = 0 then { steps = [||]; num_steps = 0; step_delay = [||] }
  else begin
    (* priority: height in the dependence DAG *)
    let height = Array.make n 1 in
    for i = n - 1 downto 0 do
      List.iter
        (fun (s, _) -> if height.(s) + 1 > height.(i) then height.(i) <- height.(s) + 1)
        g.Dep.succs.(i)
    done;
    let steps = Array.make n (-1) in
    let arrival = Array.make n 0. in (* completion time within its step *)
    let scheduled = ref 0 in
    let step = ref 0 in
    let step_delays = ref [] in
    while !scheduled < n do
      (* per-step usage *)
      let usage = Hashtbl.create 8 in
      let used cls =
        match Hashtbl.find_opt usage cls with Some k -> k | None -> 0
      in
      let mem_usage = Hashtbl.create 8 in (* (region, dir) -> count *)
      let mem_used key =
        match Hashtbl.find_opt mem_usage key with Some k -> k | None -> 0
      in
      let placed_this_step = ref true in
      while !placed_this_step do
        placed_this_step := false;
        (* candidates in priority order *)
        let candidates =
          List.init n Fun.id
          |> List.filter (fun i ->
                 steps.(i) = -1
                 && List.for_all
                      (fun (p, kind) ->
                        steps.(p) <> -1
                        &&
                        match kind with
                        | Dep.Raw -> steps.(p) <= !step
                        | Dep.War | Dep.Waw -> steps.(p) <= !step
                        | Dep.Mem ->
                          (* store->load needs a step boundary unless the
                             memory forwards; other mem edges only order *)
                          let store_to_load =
                            (match Cir.memory_access g.Dep.instrs.(p) with
                            | Some (_, `Write) -> true
                            | Some (_, `Read) | None -> false)
                            &&
                            match Cir.memory_access g.Dep.instrs.(i) with
                            | Some (_, `Read) -> true
                            | Some (_, `Write) | None -> false
                          in
                          if store_to_load && not forwarding
                          then steps.(p) < !step
                          else steps.(p) <= !step)
                      g.Dep.preds.(i))
          |> List.sort (fun a b -> compare height.(b) height.(a))
        in
        List.iter
          (fun i ->
            if steps.(i) = -1 then begin
              let instr = g.Dep.instrs.(i) in
              let cls = class_of_instr instr in
              (* earliest start within this step given chained RAW deps *)
              let ready_time =
                List.fold_left
                  (fun acc (p, kind) ->
                    match kind with
                    | Dep.Raw when steps.(p) = !step ->
                      Float.max acc arrival.(p)
                    | Dep.Raw | Dep.War | Dep.Waw | Dep.Mem -> acc)
                  0. g.Dep.preds.(i)
              in
              let finish = ready_time +. instr_delay func instr in
              let fits_chain = finish <= resources.chain_budget in
              let fits_resource = used cls < capacity resources cls in
              let fits_mem =
                match Cir.memory_access instr with
                | Some (region, `Read) ->
                  mem_used (region, `Read) < max 1 resources.mem_read_ports
                | Some (region, `Write) ->
                  mem_used (region, `Write) < max 1 resources.mem_write_ports
                | None -> true
              in
              (* an op too slow for any budget still gets a step alone *)
              let oversized = instr_delay func instr > resources.chain_budget in
              let chain_ok = fits_chain || (oversized && ready_time = 0.) in
              if chain_ok && fits_resource && fits_mem then begin
                steps.(i) <- !step;
                arrival.(i) <- finish;
                Hashtbl.replace usage cls (used cls + 1);
                (match Cir.memory_access instr with
                | Some (region, dir) ->
                  Hashtbl.replace mem_usage (region, dir)
                    (mem_used (region, dir) + 1)
                | None -> ());
                incr scheduled;
                placed_this_step := true
              end
            end)
          candidates
      done;
      let max_arrival =
        Array.to_list arrival
        |> List.mapi (fun i a -> if steps.(i) = !step then a else 0.)
        |> List.fold_left Float.max 0.
      in
      step_delays := max_arrival :: !step_delays;
      incr step
    done;
    (* drop trailing empty steps (can happen if last iteration placed none) *)
    let num_steps = Array.fold_left (fun acc s -> max acc (s + 1)) 0 steps in
    { steps;
      num_steps;
      step_delay =
        Array.of_list (List.rev !step_delays) |> fun a ->
        Array.sub a 0 (min num_steps (Array.length a)) }
  end

let list_schedule func resources instrs =
  schedule ~forwarding:false func resources instrs

(** ASAP schedule: list scheduling with no resource limits. *)
let asap func instrs = list_schedule func unconstrained instrs

let forwarding_asap func instrs =
  schedule ~forwarding:true func unconstrained instrs

(** ALAP schedule derived from ASAP by pushing every op as late as its
    successors allow within the ASAP makespan.  Uses the same dependence
    model as the unconstrained ASAP: RAW chains may share a step; only
    store->load pairs need a step boundary. *)
let alap func instrs =
  let g = Dep.of_instrs instrs in
  let base = asap func instrs in
  let n = Array.length g.Dep.instrs in
  let latest = Array.make n (max 0 (base.num_steps - 1)) in
  let is_store i =
    match Cir.memory_access g.Dep.instrs.(i) with
    | Some (_, `Write) -> true
    | Some (_, `Read) | None -> false
  and is_load i =
    match Cir.memory_access g.Dep.instrs.(i) with
    | Some (_, `Read) -> true
    | Some (_, `Write) | None -> false
  in
  for i = n - 1 downto 0 do
    List.iter
      (fun (s, kind) ->
        let bound =
          match kind with
          | Dep.Mem when is_store i && is_load s -> latest.(s) - 1
          | Dep.Raw | Dep.Mem | Dep.War | Dep.Waw -> latest.(s)
        in
        if bound < latest.(i) then latest.(i) <- max 0 bound)
      g.Dep.succs.(i)
  done;
  { base with steps = latest }

(** Slack (ALAP - ASAP step) of each instruction: zero-slack ops are on the
    critical path; used by E7's exploration report. *)
let slack func instrs =
  let a = asap func instrs and l = alap func instrs in
  Array.init (Array.length a.steps) (fun i -> l.steps.(i) - a.steps.(i))

(** Parallelism profile: how many operations issue in each step. *)
let ops_per_step schedule =
  let counts = Array.make (max 1 schedule.num_steps) 0 in
  Array.iter
    (fun s -> if s >= 0 then counts.(s) <- counts.(s) + 1)
    schedule.steps;
  counts
