(* The Handel-C statement machine [Celoxica] — also the concurrent
   subset of Bach C, SpecC, SystemC and HardwareC.

   The paper: "Celoxica's Handel-C adds constructs for parallel statements
   and OCCAM-like rendezvous communication.  Each assignment statement
   runs in one cycle" and "in Handel-C, only assignment and delay
   statements take a clock cycle ... Handel-C may require assignment
   statements to be fused" to meet timing.

   Realization: a cycle-accurate statement machine sharing the reference
   interpreter's expression semantics and memory.  Threads advance in
   lock-step, one global clock:

     - `x = e;` and `delay;` consume exactly one cycle (Handel-C policy);
     - control flow (tests, fork/join, blocks) is free — a thread that
       performs unboundedly many zero-cycle steps within one cycle is
       rejected as a combinational cycle, which is what the real compiler
       does to `while(e);`;
     - a rendezvous transfer costs one cycle for both endpoints;
     - under the `Scheduled` policy (Bach C's untimed semantics), the
       machine instead packs independent assignments into the same cycle,
       bounded by an ops-per-cycle allocation and one access per memory
       region per cycle — the compiler, not a rule, decides the cycles.

   The backend wrapper (dialect check, pass pipeline, stats) lives in
   Handelc; Design runs this machine for every statement-machine design. *)

exception Combinational_loop
exception Deadlock
exception Timeout

type policy = [ `One_cycle_per_assignment | `Scheduled ]

type item =
  | H_stmt of Ast.stmt
  | H_end_scope
  | H_loop_end
  | H_while_retest of Ast.expr * Ast.block
  | H_dowhile_retest of Ast.block * Ast.expr
  | H_for_test of Ast.expr option * Ast.expr option * Ast.block
  | H_for_step of Ast.expr option * Ast.expr option * Ast.block
  | H_join_signal of join

and join = { mutable remaining : int; joiner : thread }

and blocked =
  | Runnable
  | Blocked_send of string * Bitvec.t
  | Blocked_recv of string * (Bitvec.t -> unit)
  | Blocked_join

and thread = {
  tid : int;
  mutable cont : item list;
  mutable tenv : Interp.scope list;
  mutable state : blocked;
  (* Scheduled-policy packing state, cleared at every cycle boundary: *)
  mutable written_this_cycle : (string, unit) Hashtbl.t;
  mutable ops_this_cycle : int;
  mutable region_reads : (string, unit) Hashtbl.t;
  mutable region_writes : (string, unit) Hashtbl.t;
}

type machine = {
  env : Interp.env;
  policy : policy;
  ops_per_cycle : int;
  mutable threads : thread list;
  mutable next_tid : int;
  mutable return_value : Bitvec.t option option;
  mutable cycles : int;
  mutable assignments : int; (* total dynamic assignments, for stats *)
}

let spawn machine cont scopes =
  let t =
    { tid = machine.next_tid; cont; tenv = scopes; state = Runnable;
      written_this_cycle = Hashtbl.create 8; ops_this_cycle = 0;
      region_reads = Hashtbl.create 4; region_writes = Hashtbl.create 4 }
  in
  machine.next_tid <- machine.next_tid + 1;
  machine.threads <- machine.threads @ [ t ];
  t

let with_env machine thread f =
  let saved = machine.env.Interp.scopes in
  machine.env.Interp.scopes <- thread.tenv;
  Fun.protect
    ~finally:(fun () -> machine.env.Interp.scopes <- saved)
    (fun () -> f machine.env)

let scoped_items thread body after =
  thread.tenv <- Hashtbl.create 4 :: thread.tenv;
  List.map (fun s -> H_stmt s) body @ (H_end_scope :: after)

let rec unwind_until thread pred =
  match thread.cont with
  | [] -> raise (Interp.Runtime_error "break/continue outside loop")
  | it :: rest ->
    if pred it then ()
    else begin
      (match it with
      | H_end_scope -> thread.tenv <- List.tl thread.tenv
      | H_stmt _ | H_loop_end | H_while_retest _ | H_dowhile_retest _
      | H_for_test _ | H_for_step _ | H_join_signal _ -> ());
      thread.cont <- rest;
      unwind_until thread pred
    end

(* Variables read by a pure expression (for same-cycle conflict checks). *)
let rec vars_read acc (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Var name -> name :: acc
  | Ast.Const _ | Ast.Chan_recv _ -> acc
  | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.Deref a | Ast.Addr_of a ->
    vars_read acc a
  | Ast.Binop (_, a, b) | Ast.Index (a, b) ->
    vars_read (vars_read acc a) b
  | Ast.Assign (a, b) -> vars_read (vars_read acc a) b
  | Ast.Cond (a, b, c) -> vars_read (vars_read (vars_read acc a) b) c
  | Ast.Call (_, args) -> List.fold_left vars_read acc args

let rec regions_touched acc (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Index ({ e = Ast.Var name; _ }, idx) ->
    regions_touched (name :: acc) idx
  | Ast.Const _ | Ast.Var _ | Ast.Chan_recv _ -> acc
  | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.Deref a | Ast.Addr_of a ->
    regions_touched acc a
  | Ast.Binop (_, a, b) | Ast.Index (a, b) | Ast.Assign (a, b) ->
    regions_touched (regions_touched acc a) b
  | Ast.Cond (a, b, c) ->
    regions_touched (regions_touched (regions_touched acc a) b) c
  | Ast.Call (_, args) -> List.fold_left regions_touched acc args

(* Does executing `lhs = rhs` conflict with work already packed into this
   thread's current cycle (Scheduled policy)? *)
let conflicts thread lhs rhs =
  let reads = vars_read (vars_read [] rhs) lhs in
  let lhs_var =
    match lhs.Ast.e with Ast.Var name -> Some name | _ -> None
  in
  thread.ops_this_cycle > 0
  && (List.exists (Hashtbl.mem thread.written_this_cycle) reads
     || (match lhs_var with
        | Some v -> Hashtbl.mem thread.written_this_cycle v
        | None -> false)
     || List.exists (Hashtbl.mem thread.region_reads) (regions_touched [] rhs)
     ||
     match lhs.Ast.e with
     | Ast.Index ({ e = Ast.Var region; _ }, _) ->
       Hashtbl.mem thread.region_writes region
     | _ -> false)

let note_assignment machine thread lhs rhs =
  machine.assignments <- machine.assignments + 1;
  thread.ops_this_cycle <- thread.ops_this_cycle + 1;
  (match lhs.Ast.e with
  | Ast.Var name -> Hashtbl.replace thread.written_this_cycle name ()
  | Ast.Index ({ e = Ast.Var region; _ }, _) ->
    Hashtbl.replace thread.region_writes region ()
  | _ -> ());
  List.iter
    (fun r -> Hashtbl.replace thread.region_reads r ())
    (regions_touched [] rhs)

let try_rendezvous machine ch =
  let find pred = List.find_opt pred machine.threads in
  let sender =
    find (fun t ->
        match t.state with
        | Blocked_send (c, _) -> String.equal c ch
        | Runnable | Blocked_recv _ | Blocked_join -> false)
  and receiver =
    find (fun t ->
        match t.state with
        | Blocked_recv (c, _) -> String.equal c ch
        | Runnable | Blocked_send _ | Blocked_join -> false)
  in
  match (sender, receiver) with
  | Some s, Some r -> (
    match (s.state, r.state) with
    | Blocked_send (_, v), Blocked_recv (_, deliver) ->
      deliver v;
      (* the transfer itself costs the cycle; both resume next cycle *)
      s.state <- Runnable;
      r.state <- Runnable;
      true
    | (Runnable | Blocked_send _ | Blocked_recv _ | Blocked_join), _ -> false)
  | (Some _ | None), (Some _ | None) -> false

(* Execute one item.  Returns the cycle cost (0 or 1); blocking costs the
   rest of the cycle implicitly. *)
let rec exec_item machine thread : int =
  match thread.cont with
  | [] -> 0
  | it :: rest ->
    thread.cont <- rest;
    let eval_in e = with_env machine thread (fun env -> Interp.eval env e) in
    (match it with
    | H_end_scope ->
      thread.tenv <- List.tl thread.tenv;
      0
    | H_loop_end -> 0
    | H_while_retest (c, body) ->
      if not (Bitvec.is_zero (eval_in c)) then
        thread.cont <-
          scoped_items thread body (H_while_retest (c, body) :: thread.cont);
      0
    | H_dowhile_retest (body, c) ->
      if not (Bitvec.is_zero (eval_in c)) then
        thread.cont <-
          scoped_items thread body (H_dowhile_retest (body, c) :: thread.cont);
      0
    | H_for_test (cond, stepper, body) ->
      let continue =
        match cond with
        | None -> true
        | Some c -> not (Bitvec.is_zero (eval_in c))
      in
      if continue then
        thread.cont <-
          scoped_items thread body
            (H_for_step (cond, stepper, body) :: thread.cont);
      0
    | H_for_step (cond, stepper, body) -> (
      thread.cont <- H_for_test (cond, stepper, body) :: thread.cont;
      (* the step expression is an assignment: charge per policy *)
      match stepper with
      | None -> 0
      | Some e -> exec_assignment_expr machine thread e)
    | H_join_signal j ->
      j.remaining <- j.remaining - 1;
      if j.remaining = 0 && j.joiner.state = Blocked_join then
        j.joiner.state <- Runnable;
      0
    | H_stmt st -> exec_stmt machine thread st)

and exec_assignment_expr machine thread (e : Ast.expr) : int =
  (* Evaluate an expression statement that is an assignment (or contains
     one) and charge the policy's cycle cost. *)
  match machine.policy with
  | `One_cycle_per_assignment ->
    ignore (with_env machine thread (fun env -> Interp.eval env e));
    machine.assignments <- machine.assignments + 1;
    1
  | `Scheduled -> (
    match e.Ast.e with
    | Ast.Assign (lhs, rhs) ->
      if conflicts thread lhs rhs || thread.ops_this_cycle >= machine.ops_per_cycle
      then begin
        (* cannot pack: spend the cycle boundary, retry next cycle *)
        thread.cont <- H_stmt (Ast.mk_stmt (Ast.Expr e)) :: thread.cont;
        1
      end
      else begin
        ignore (with_env machine thread (fun env -> Interp.eval env e));
        note_assignment machine thread lhs rhs;
        0
      end
    | _ ->
      ignore (with_env machine thread (fun env -> Interp.eval env e));
      0)

and exec_stmt machine thread (st : Ast.stmt) : int =
  let eval_in e = with_env machine thread (fun env -> Interp.eval env e) in
  match st.Ast.s with
  | Ast.Expr e when Interp.(match as_recv e with Some _ -> true | None -> false)
    ->
    let ch, _ = Option.get (Interp.as_recv e) in
    thread.state <- Blocked_recv (ch, fun _ -> ());
    ignore (try_rendezvous machine ch);
    1
  | Ast.Expr { e = Ast.Assign (lhs, rhs); eloc; ty }
    when Interp.as_recv rhs <> None ->
    ignore eloc;
    ignore ty;
    let ch, cast = Option.get (Interp.as_recv rhs) in
    let deliver v =
      with_env machine thread (fun env ->
          let addr = Interp.eval_lvalue env lhs in
          Interp.store_word env.Interp.store addr
            (Interp.convert_received cast v))
    in
    thread.state <- Blocked_recv (ch, deliver);
    ignore (try_rendezvous machine ch);
    1
  | Ast.Expr ({ e = Ast.Assign _; _ } as e) ->
    exec_assignment_expr machine thread e
  | Ast.Expr e ->
    ignore (eval_in e);
    0
  | Ast.Decl (ty, name, init) ->
    let cost = ref 0 in
    with_env machine thread (fun env ->
        let addr = Interp.alloc env.Interp.store (max 1 (Ctypes.word_count ty)) in
        (match thread.tenv with
        | scope :: _ -> Hashtbl.replace scope name (addr, ty)
        | [] -> raise (Interp.Runtime_error "no scope"));
        match init with
        | Some e when Interp.as_recv e <> None ->
          let ch, cast = Option.get (Interp.as_recv e) in
          thread.state <-
            Blocked_recv
              ( ch,
                fun v ->
                  Interp.store_word env.Interp.store addr
                    (Interp.convert_received cast v) );
          ignore (try_rendezvous machine ch);
          cost := 1
        | None -> ()
        | Some e ->
          (* an initializer is an assignment *)
          Interp.store_word env.Interp.store addr (Interp.eval env e);
          machine.assignments <- machine.assignments + 1;
          cost :=
            (match machine.policy with
            | `One_cycle_per_assignment -> 1
            | `Scheduled ->
              thread.ops_this_cycle <- thread.ops_this_cycle + 1;
              Hashtbl.replace thread.written_this_cycle name ();
              0));
    !cost
  | Ast.If (c, t, f) ->
    if Bitvec.is_zero (eval_in c) then
      thread.cont <- scoped_items thread f thread.cont
    else thread.cont <- scoped_items thread t thread.cont;
    0
  | Ast.While (c, body) ->
    thread.cont <- H_while_retest (c, body) :: H_loop_end :: thread.cont;
    0
  | Ast.Do_while (body, c) ->
    thread.cont <-
      scoped_items thread body
        (H_dowhile_retest (body, c) :: H_loop_end :: thread.cont);
    0
  | Ast.For (init, cond, stepper, body) ->
    thread.tenv <- Hashtbl.create 4 :: thread.tenv;
    thread.cont <-
      (match init with None -> [] | Some st -> [ H_stmt st ])
      @ H_for_test (cond, stepper, body)
        :: H_loop_end :: H_end_scope :: thread.cont;
    0
  | Ast.Return value ->
    let v = Option.map eval_in value in
    machine.return_value <- Some v;
    thread.cont <- [];
    0
  | Ast.Break ->
    unwind_until thread (function
      | H_loop_end -> true
      | H_stmt _ | H_end_scope | H_while_retest _ | H_dowhile_retest _
      | H_for_test _ | H_for_step _ | H_join_signal _ -> false);
    (match thread.cont with
    | H_loop_end :: rest -> thread.cont <- rest
    | _ -> ());
    0
  | Ast.Continue ->
    unwind_until thread (function
      | H_while_retest _ | H_dowhile_retest _ | H_for_step _ -> true
      | H_stmt _ | H_end_scope | H_loop_end | H_for_test _ | H_join_signal _
        -> false);
    0
  | Ast.Block body ->
    thread.cont <- scoped_items thread body thread.cont;
    0
  | Ast.Par branches ->
    let j = { remaining = List.length branches; joiner = thread } in
    List.iter
      (fun branch ->
        ignore
          (spawn machine
             (List.map (fun s -> H_stmt s) branch @ [ H_join_signal j ])
             (Hashtbl.create 4 :: thread.tenv)))
      branches;
    if j.remaining > 0 then thread.state <- Blocked_join;
    0
  | Ast.Chan_send (ch, e) ->
    let v = eval_in e in
    thread.state <- Blocked_send (ch, v);
    ignore (try_rendezvous machine ch);
    1
  | Ast.Delay -> 1
  | Ast.Constrain (_, _, body) ->
    thread.cont <- scoped_items thread body thread.cont;
    0

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  assignments : int;
  store : Interp.store;
}

(** Run the statement machine to completion. *)
let run ?(max_cycles = 2_000_000) ?(ops_per_cycle = 8) ~policy
    (program : Ast.program) ~entry ~args : outcome =
  let func =
    match Ast.find_func program entry with
    | Some f -> f
    | None -> raise (Interp.Runtime_error ("no entry " ^ entry))
  in
  let store =
    { Interp.mem = Array.make 1024 (Bitvec.zero 1); sp = 0;
      globals = Hashtbl.create 16; heap_next = Interp.heap_base }
  in
  Interp.allocate_globals store program;
  let env =
    { Interp.store; program; scopes = []; steps = 0; fuel = max_int }
  in
  let machine =
    { env; policy; ops_per_cycle; threads = []; next_tid = 0;
      return_value = None; cycles = 0; assignments = 0 }
  in
  let frame : Interp.scope = Hashtbl.create 8 in
  List.iter2
    (fun (ty, name) v ->
      let ty =
        match ty with Ctypes.Array (elt, _) -> Ctypes.Pointer elt | t -> t
      in
      let addr = Interp.alloc store 1 in
      Interp.store_word store addr
        (Bitvec.resize ~signed:true ~width:(Interp.declared_width ty) v);
      Hashtbl.replace frame name (addr, ty))
    func.Ast.f_params args;
  let entry_thread =
    spawn machine (List.map (fun s -> H_stmt s) func.Ast.f_body) [ frame ]
  in
  let finished t = t.cont = [] in
  let guard = 100_000 in
  while
    machine.return_value = None
    && not (finished entry_thread)
  do
    if machine.cycles >= max_cycles then raise Timeout;
    machine.cycles <- machine.cycles + 1;
    let any_progress = ref false in
    List.iter
      (fun t ->
        if machine.return_value = None && t.state = Runnable
           && not (finished t)
        then begin
          any_progress := true;
          Hashtbl.reset t.written_this_cycle;
          Hashtbl.reset t.region_reads;
          Hashtbl.reset t.region_writes;
          t.ops_this_cycle <- 0;
          (* run zero-cost items until the thread spends its cycle *)
          let spent = ref 0 and zero_steps = ref 0 in
          while
            !spent = 0 && t.state = Runnable && not (finished t)
            && machine.return_value = None
          do
            incr zero_steps;
            if !zero_steps > guard then raise Combinational_loop;
            spent := exec_item machine t
          done
        end)
      machine.threads;
    machine.threads <-
      List.filter
        (fun t -> (not (finished t)) || t == entry_thread)
        machine.threads;
    if not !any_progress then
      if
        List.exists
          (fun t ->
            match t.state with
            | Blocked_send _ | Blocked_recv _ -> true
            | Runnable | Blocked_join -> false)
          machine.threads
      then raise Deadlock
      else if machine.return_value = None && not (finished entry_thread) then
        raise Deadlock
  done;
  { return_value =
      (match machine.return_value with Some v -> v | None -> None);
    cycles = machine.cycles;
    assignments = machine.assignments;
    store }

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
            (g.Ast.g_name, Array.init n (fun i -> mem.(addr + i))) :: arrays )
        | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _
        | Ctypes.Function _ -> ((g.Ast.g_name, mem.(addr)) :: scalars, arrays)))
    program.Ast.globals ([], [])
