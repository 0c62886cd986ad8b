(* The Handel-C clock [Celoxica] — also the concurrent subset of Bach C,
   SpecC, SystemC and HardwareC.

   The paper: "Celoxica's Handel-C adds constructs for parallel statements
   and OCCAM-like rendezvous communication.  Each assignment statement
   runs in one cycle" and "in Handel-C, only assignment and delay
   statements take a clock cycle ... Handel-C may require assignment
   statements to be fused" to meet timing.

   Realization: C's semantics plus that one timing rule.  The threads,
   frames, joins and rendezvous are the reference interpreter's own
   thread machine (Interp), run on the program Interp resolved once per
   design; this module is the clock that drives it in lock-step and
   charges each item by what it did:

     - `x = e;` and `delay;` consume exactly one cycle (Handel-C policy);
     - control flow (tests, fork/join, blocks) is free — a thread that
       performs unboundedly many zero-cycle steps within one cycle is
       rejected as a combinational cycle, which is what the real compiler
       does to `while(e);`;
     - a rendezvous transfer costs one cycle for both endpoints;
     - under the `Scheduled` policy (Bach C's untimed semantics), the
       clock instead packs independent assignments into the same cycle,
       bounded by an ops-per-cycle allocation and one access per memory
       region per cycle — the compiler, not a rule, decides the cycles.
       Each assignment's read, write and region sets come with it, built
       by the resolve pass, so a turn compares interned names only.

   The backend wrapper (dialect check, pass pipeline, stats) lives in
   Handelc; Design runs this machine for every statement-machine design. *)

exception Combinational_loop
exception Deadlock
exception Timeout

type policy = [ `One_cycle_per_assignment | `Scheduled ]

let max_cycles = 2_000_000
let ops_per_cycle = 8

(* zero-cost items one thread may run in one cycle before the machine
   calls it a combinational loop *)
let guard = 100_000

(* What the Scheduled policy has packed into the current thread's
   cycle, by interned variable name.  Only that thread's turn reads it,
   so one record serves every thread and is reset at each turn. *)
type turn = {
  mutable ops : int;
  mutable written : int list;
  mutable region_reads : int list;
  mutable region_writes : int list;
}

(* Does an assignment with this footprint conflict with work already
   packed into this turn? *)
let conflicts turn (f : Interp.footprint) =
  turn.ops > 0
  && (Array.exists (fun v -> List.mem v turn.written) f.Interp.reads
     || (f.Interp.target >= 0 && List.mem f.Interp.target turn.written)
     || Array.exists
          (fun r -> List.mem r turn.region_reads)
          f.Interp.rhs_regions
     || (f.Interp.target_region >= 0
        && List.mem f.Interp.target_region turn.region_writes))

let note_assignment turn (f : Interp.footprint) =
  turn.ops <- turn.ops + 1;
  if f.Interp.target >= 0 then turn.written <- f.Interp.target :: turn.written
  else if f.Interp.target_region >= 0 then
    turn.region_writes <- f.Interp.target_region :: turn.region_writes;
  turn.region_reads <-
    Array.fold_left (fun acc r -> r :: acc) turn.region_reads
      f.Interp.rhs_regions

(* Under Scheduled, an assignment that cannot pack into this turn ends
   it; the thread runs it next cycle. *)
let defers policy turn thread =
  match policy with
  | `One_cycle_per_assignment -> false
  | `Scheduled -> (
    match Interp.pending_assignment thread with
    | Some f -> conflicts turn f || turn.ops >= ops_per_cycle
    | None -> false)

(* The cycles an item costs: Handel-C charges one per assignment, for-step,
   initialiser, transfer and delay; Scheduled packs assignments and
   initialisers into the cycle for free. *)
let cost policy turn (work : Interp.work) =
  match (policy, work) with
  | _, Interp.Control -> 0
  | _, (Interp.Communicated | Interp.Delayed) -> 1
  | `One_cycle_per_assignment,
    (Interp.Assigned _ | Interp.Stepped | Interp.Initialised _) -> 1
  | `Scheduled, Interp.Assigned f ->
    note_assignment turn f;
    0
  | `Scheduled, Interp.Initialised name ->
    turn.ops <- turn.ops + 1;
    turn.written <- name :: turn.written;
    0
  | `Scheduled, Interp.Stepped -> 0

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  store : Interp.store;
}

(* One thread's turn in a cycle: zero-cost items until one costs the
   cycle or the thread blocks. *)
let run_turn policy turn machine t =
  turn.ops <- 0;
  turn.written <- [];
  turn.region_reads <- [];
  turn.region_writes <- [];
  let spent = ref 0 and items = ref 0 in
  while !spent = 0 && Interp.runnable t && not (Interp.finished machine) do
    incr items;
    if !items > guard then raise Combinational_loop;
    spent :=
      if defers policy turn t then 1
      else cost policy turn (Interp.exec_item machine t)
  done

(* One cycle over the threads it started with: a turn for each runnable
   thread, in list order.  Whether any thread ran; a walk with no
   closure, so a cycle allocates nothing of its own. *)
let rec run_cycle policy turn machine progressed = function
  | [] -> progressed
  | t :: rest ->
    if Interp.runnable t && not (Interp.finished machine) then begin
      run_turn policy turn machine t;
      run_cycle policy turn machine true rest
    end
    else run_cycle policy turn machine progressed rest

(** Run the entry on the interpreter's thread machine, one global clock:
    each cycle, every runnable thread runs zero-cost items until one
    costs the cycle or the thread blocks. *)
let run ~policy (program : Interp.resolved) ~entry ~args : outcome =
  let machine = Interp.start ~fuel:Interp.step_budget program ~entry ~args in
  let turn = { ops = 0; written = []; region_reads = []; region_writes = [] } in
  let cycles = ref 0 in
  while not (Interp.finished machine) do
    if !cycles >= max_cycles then raise Timeout;
    incr cycles;
    if not (run_cycle policy turn machine false (Interp.threads machine)) then
      raise Deadlock
  done;
  let o = Interp.outcome machine in
  { return_value = o.Interp.return_value;
    cycles = !cycles;
    store = o.Interp.final_store }

(* --- rough structural estimate ---------------------------------------- *)

(* Since a whole assignment expression must settle within one clock cycle,
   Handel-C's achievable clock period is the *deepest* assignment's
   combinational delay — the timing pathology the paper notes ("Handel-C
   may require assignment statements to be fused" cuts cycles but deepens
   this path; splitting temporaries shortens it at a cycle cost). *)
let rec expr_delay (e : Ast.expr) =
  let w ty = max 2 (Ctypes.width ty) in
  match e.Ast.e with
  | Ast.Const _ | Ast.Var _ | Ast.Chan_recv _ -> 0.
  | Ast.Unop (_, a) -> 1. +. expr_delay a
  | Ast.Binop (op, a, b) ->
    let own =
      match op with
      | Ast.Mul -> (3. *. Area.flog2 (w a.Ast.ty)) +. 4.
      | Ast.Div | Ast.Mod ->
        float_of_int (w a.Ast.ty) *. (Area.flog2 (w a.Ast.ty) +. 1.)
      | Ast.Shl | Ast.Shr -> Area.flog2 (w a.Ast.ty) +. 1.
      | Ast.Add | Ast.Sub | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        Area.flog2 (w a.Ast.ty) +. 2.
      | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Log_and | Ast.Log_or -> 1.
      | Ast.Eq | Ast.Ne -> Area.flog2 (w a.Ast.ty) +. 1.
    in
    own +. Float.max (expr_delay a) (expr_delay b)
  | Ast.Assign (l, r) -> Float.max (expr_delay l) (expr_delay r)
  | Ast.Cond (c, t, f) ->
    2. +. Float.max (expr_delay c) (Float.max (expr_delay t) (expr_delay f))
  | Ast.Call (_, args) ->
    (* inlined combinationally: approximate by the argument depth + body *)
    4. +. List.fold_left (fun acc a -> Float.max acc (expr_delay a)) 0. args
  | Ast.Index (b, i) -> 5. +. Float.max (expr_delay b) (expr_delay i)
  | Ast.Deref a | Ast.Addr_of a | Ast.Cast (_, a) -> expr_delay a

let estimate_clock_period (program : Ast.program) =
  let worst = ref 4. in
  List.iter
    (fun f ->
      Ast.iter_func
        ~stmt:(fun _ -> ())
        ~expr:(fun e ->
          match e.Ast.e with
          | Ast.Assign (_, rhs) ->
            worst := Float.max !worst (2. +. expr_delay rhs)
          | _ -> ())
        f)
    program.Ast.funcs;
  !worst

(* Handel-C builds dedicated hardware per static assignment: estimate area
   as the operator cost of every assignment's rhs plus registers for
   declared variables. *)
let rec expr_area (e : Ast.expr) =
  let w ty = float_of_int (max 1 (Ctypes.width ty)) in
  match e.Ast.e with
  | Ast.Const _ | Ast.Var _ | Ast.Chan_recv _ -> 0.
  | Ast.Unop (_, a) -> (w e.Ast.ty /. 2.) +. expr_area a
  | Ast.Binop (op, a, b) ->
    let cost =
      match op with
      | Ast.Mul -> 6. *. w a.Ast.ty *. w a.Ast.ty
      | Ast.Div | Ast.Mod -> 10. *. w a.Ast.ty *. w a.Ast.ty
      | Ast.Shl | Ast.Shr -> 3. *. w a.Ast.ty *. Area.flog2 (max 2 (Ctypes.width a.Ast.ty))
      | Ast.Add | Ast.Sub | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 7. *. w a.Ast.ty
      | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Eq | Ast.Ne | Ast.Log_and
      | Ast.Log_or -> w a.Ast.ty
    in
    cost +. expr_area a +. expr_area b
  | Ast.Assign (l, r) -> expr_area l +. expr_area r
  | Ast.Cond (c, t, f) ->
    (3. *. w e.Ast.ty) +. expr_area c +. expr_area t +. expr_area f
  | Ast.Call (_, args) -> List.fold_left (fun acc a -> acc +. expr_area a) 0. args
  | Ast.Index (b, i) -> 8. +. expr_area b +. expr_area i
  | Ast.Deref a | Ast.Addr_of a | Ast.Cast (_, a) -> expr_area a

let estimate_area (program : Ast.program) =
  let total = ref 0. in
  List.iter
    (fun f ->
      Ast.iter_func
        ~stmt:(fun st ->
          match st.Ast.s with
          | Ast.Decl (ty, _, _) ->
            total := !total +. (6. *. float_of_int (max 1 (Ctypes.width ty)))
          | Ast.Expr _ | Ast.If _ | Ast.While _ | Ast.Do_while _ | Ast.For _
          | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _ | Ast.Par _
          | Ast.Chan_send _ | Ast.Delay | Ast.Constrain _ -> ())
        ~expr:(fun e ->
          match e.Ast.e with
          | Ast.Assign (_, rhs) -> total := !total +. expr_area rhs
          | _ -> ())
        f)
    program.Ast.funcs;
  !total

(* The program's globals after a run, split as Design reports them:
   scalars by value, arrays as word vectors, both in declaration order. *)
let observe (program : Ast.program) (o : outcome) =
  let mem = o.store.Interp.mem in
  List.fold_right
    (fun (g : Ast.global) ((scalars, arrays) as acc) ->
      match Hashtbl.find_opt o.store.Interp.globals g.Ast.g_name with
      | None -> acc
      | Some (addr, _) -> (
        match g.Ast.g_ty with
        | Ctypes.Array (_, n) ->
          ( scalars,
            (g.Ast.g_name, Array.sub mem addr n) :: arrays )
        | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _
        | Ctypes.Function _ -> ((g.Ast.g_name, mem.(addr)) :: scalars, arrays)))
    program.Ast.globals ([], [])
