(* FSM + datapath: the common target of the synchronous scheduled backends.

   An FSMD is a state machine where each state executes a list of CIR
   instructions (kept in original order; same-state RAW chains are wires)
   and then transfers control.  It is built from a CIR function plus a
   scheduling policy that says how each basic block's instructions spread
   over control steps — this is exactly where the surveyed languages
   differ:

     Transmogrifier C : every block is one state (cycles only at loop
                        boundaries, which are block boundaries);
     Bach C / Cyber   : list-scheduled steps under a resource allocation;
     HardwareC        : same, checked against min/max constraints;
     Handel-C         : one state per assignment (built by back/handelc). *)

type next =
  | N_goto of int
  | N_branch of { cond : Cir.operand; if_true : int; if_false : int }
  | N_halt of Cir.operand option (* computation done; result value *)

type state = {
  st_id : int;
  actions : Cir.instr list; (* original order within the state *)
  next : next;
  delay : float; (* estimated combinational delay of the state *)
}

type t = {
  fd_name : string;
  func : Cir.func; (* register widths, regions, globals *)
  states : state array;
  entry : int;
  mem_forwarding : bool; (* stores visible to same-state loads *)
}

let num_states t = Array.length t.states

(** Longest estimated combinational delay over all states: the clock
    period this design requires. *)
let critical_state_delay t =
  Array.fold_left (fun acc s -> Float.max acc s.delay) 0. t.states

(** Build an FSMD from a CIR function given a per-block scheduler. *)
let of_func ?(mem_forwarding = false) (func : Cir.func)
    ~(schedule_block : Cir.block -> Schedule.schedule) : t =
  let nblocks = Cir.num_blocks func in
  let schedules =
    Array.init nblocks (fun b -> schedule_block (Cir.block func b))
  in
  (* allocate contiguous state ids per block *)
  let first_state = Array.make nblocks 0 in
  let total = ref 0 in
  for b = 0 to nblocks - 1 do
    first_state.(b) <- !total;
    total := !total + max 1 schedules.(b).Schedule.num_steps
  done;
  let states = ref [] in
  for b = 0 to nblocks - 1 do
    let blk = Cir.block func b in
    let sched = schedules.(b) in
    let nsteps = max 1 sched.Schedule.num_steps in
    let instrs = Array.of_list blk.Cir.instrs in
    for step = 0 to nsteps - 1 do
      let actions =
        Array.to_list instrs
        |> List.filteri (fun i _ ->
               i < Array.length sched.Schedule.steps
               && sched.Schedule.steps.(i) = step)
      in
      let is_last = step = nsteps - 1 in
      let next =
        if not is_last then N_goto (first_state.(b) + step + 1)
        else
          match blk.Cir.term with
          | Cir.T_jump target -> N_goto first_state.(target)
          | Cir.T_branch { cond; if_true; if_false } ->
            N_branch
              { cond;
                if_true = first_state.(if_true);
                if_false = first_state.(if_false) }
          | Cir.T_return v -> N_halt v
      in
      let delay =
        if step < Array.length sched.Schedule.step_delay then
          sched.Schedule.step_delay.(step)
        else 0.
      in
      states :=
        { st_id = first_state.(b) + step; actions; next; delay } :: !states
    done
  done;
  let states =
    Array.of_list (List.sort (fun a b -> compare a.st_id b.st_id) (List.rev !states))
  in
  { fd_name = func.Cir.fn_name;
    func;
    states;
    entry = first_state.(func.Cir.fn_entry);
    mem_forwarding }

(** The Transmogrifier C policy: one state per basic block with everything
    chained (register-file memories allow same-cycle store/load). *)
let transmogrifier_schedule func blk =
  Schedule.forwarding_asap func blk.Cir.instrs

(** The Handel-C policy over CIR: a state ends after each committed
    assignment (a mov to a program variable or a store); the expression
    work feeding it chains combinationally within the same state.  This is
    the structural (area/Verilog) view of "each assignment statement runs
    in one cycle" — cycle-accurate counting for the full language (par,
    channels) lives in the statement machine (back/handelc.ml). *)
let handelc_schedule func blk =
  ignore func;
  let instrs = Array.of_list blk.Cir.instrs in
  let n = Array.length instrs in
  let steps = Array.make n 0 in
  let step = ref 0 in
  for i = 0 to n - 1 do
    steps.(i) <- !step;
    match instrs.(i) with
    | Cir.I_mov _ | Cir.I_store _ -> incr step
    | Cir.I_bin _ | Cir.I_un _ | Cir.I_cast _ | Cir.I_mux _ | Cir.I_load _
      -> ()
  done;
  let num_steps = if n = 0 then 0 else steps.(n - 1) + 1 in
  { Schedule.steps; num_steps; step_delay = Array.make (max 1 num_steps) 0. }

(** One instruction per state: the maximally serial policy (used as a
    baseline and by the C2Verilog-style rule set for comparison). *)
let serial_schedule _func blk =
  let n = List.length blk.Cir.instrs in
  { Schedule.steps = Array.init n Fun.id;
    num_steps = n;
    step_delay = Array.make n 0. }
