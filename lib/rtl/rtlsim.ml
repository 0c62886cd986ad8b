(* Cycle-accurate FSMD simulator.

   One simulation step = one clock cycle = one FSM state.  What the
   state's actions compute is Cir_interp's machine; this module adds the
   clock.  Within a state, actions execute in order with immediate
   register visibility (that is chaining-by-wire; the scheduler
   guarantees the order is legal), memory stores are buffered to the end
   of the cycle unless the FSMD forwards them (register-file memories),
   and loads read the pre-state contents.

   An optional trace hook observes every cycle (state taken, register
   file, stores committed this cycle) after the cycle's effects are
   applied; it cannot perturb the simulation.  Obs.Trace adapts it into a
   VCD waveform. *)

exception Timeout of { cycles : int; state : int }

type trace = {
  on_cycle :
    cycle:int ->
    state:int ->
    regs:Bitvec.t array ->
    stores:(int * int * Bitvec.t) list ->
    unit;
      (* stores: (region, address, value) committed this cycle, in
         program order *)
}

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
  states_visited : int array; (* visit count per state, for profiling *)
}

type transition = Goto of int | Halt of Bitvec.t option

(* A state's actions in order on the machine; its stores are collected
   in program order, and committed at once when the memory forwards. *)
let rec act m ~forwarding stores = function
  | [] -> List.rev stores
  | Cir.I_store { region; addr; value } :: rest ->
    let addr = Bitvec.to_int_unsigned (Cir_interp.value m addr)
    and v = Cir_interp.value m value in
    if forwarding then Cir_interp.commit m ~region ~addr v;
    act m ~forwarding ((region, addr, v) :: stores) rest
  | instr :: rest ->
    Cir_interp.step m instr;
    act m ~forwarding stores rest

let step m (fsmd : Fsmd.t) state =
  let st = fsmd.Fsmd.states.(state) in
  let forwarding = fsmd.Fsmd.mem_forwarding in
  let stores = act m ~forwarding [] st.Fsmd.actions in
  (* clock edge: buffered stores commit in program order *)
  if not forwarding then
    List.iter
      (fun (region, addr, v) -> Cir_interp.commit m ~region ~addr v)
      stores;
  ( stores,
    match st.Fsmd.next with
    | Fsmd.N_goto target -> Goto target
    | Fsmd.N_branch { cond; if_true; if_false } ->
      Goto
        (if Bitvec.to_bool (Cir_interp.value m cond) then if_true
         else if_false)
    | Fsmd.N_halt v -> Halt (Option.map (Cir_interp.value m) v) )

let max_cycles = 2_000_000

let run ?(max_cycles = max_cycles) ?trace (fsmd : Fsmd.t) ~args : outcome =
  let m = Cir_interp.start fsmd.Fsmd.func ~args in
  let visited = Array.make (Fsmd.num_states fsmd) 0 in
  let rec clock cycles state =
    if cycles >= max_cycles then raise (Timeout { cycles; state });
    visited.(state) <- visited.(state) + 1;
    let stores, next = step m fsmd state in
    (match trace with
    | None -> ()
    | Some tr ->
      tr.on_cycle ~cycle:cycles ~state ~regs:m.Cir_interp.regs ~stores);
    match next with
    | Goto target -> clock (cycles + 1) target
    | Halt result -> (result, cycles + 1)
  in
  let return_value, cycles = clock 0 fsmd.Fsmd.entry in
  { return_value;
    cycles;
    globals = Cir_interp.globals m;
    memories = Cir_interp.memories m;
    states_visited = visited }
